package criu

import (
	"fmt"
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
)

// streamBatchBuffer bounds how many page batches may queue between the
// wire goroutine and the installer before the wire blocks (backpressure
// instead of unbounded buffering).
const streamBatchBuffer = 64

// pageBatch is a run of completed payload pages [lo, hi) by payload
// index, handed from the wire to the installer.
type pageBatch struct{ lo, hi int }

// StreamRestoreStats describes the realized streaming-restore pipeline.
type StreamRestoreStats struct {
	// Pages counts pages installed into the address space (data and
	// materialized zero pages).
	Pages int
	// Batches counts page batches handed to the background installer.
	// Each wire chunk dispatches at most one batch, so Batches >= 2
	// proves the installer started consuming before the final chunk
	// arrived — the structural witness that the overlap engaged.
	Batches int
}

// StreamRestorer is the stream feeder of the restore core (restorer): it
// restores a process from an image *stream* instead of a materialized
// directory. It implements image.StreamSink, so the transport feeds it
// files as segments decompress. Because image names sort metadata-first,
// it verifies invariants incrementally (imgcheck.StreamVerifier) and runs
// the core's plan stage as soon as pages.img is announced — then feeds
// the install stage batch by batch on a background goroutine while later
// payload segments are still on the wire. The receive/decode, verify,
// and install stages of a directory restore overlap instead of running
// back-to-back.
//
// Usage: construct, feed the wire through an image.StreamSplitter (the
// sink methods return any error, poisoning the stream), then call
// Finish exactly once — on success it returns the restored process,
// and on any path it reaps the background installer. The restorer is
// not safe for concurrent sinks; one wire goroutine feeds it.
type StreamRestorer struct {
	k        *kernel.Kernel
	provider BinaryProvider
	opts     RestoreOpts

	sv *imgcheck.StreamVerifier
	r  *restorer

	// Metadata files accumulate in a directory sink (its delivery-paced
	// buffering included); cur names the one under reception.
	meta *image.DirSink
	cur  string

	// pages.img reception. payload is sized up front from the announced
	// length: the wire goroutine writes [written, written+n) and the
	// installer reads only batches that completed before their channel
	// send, so the two never touch the same bytes.
	inPages   bool
	pagesSeen bool
	payload   []byte
	written   int

	// The installer goroutine owns r (its address space and installed
	// count) from beginPages until Finish joins it.
	batches chan pageBatch
	wg      sync.WaitGroup

	stats    StreamRestoreStats
	start    time.Time
	verifyNs time.Duration
	// installNs counts install work on the wire/Finish goroutine only
	// (address-space build, zero pages, the post-wire tail); the
	// background installer's work hides under the stream phase.
	installNs time.Duration

	err      error
	finished bool
}

// NewStreamRestorer returns a restorer for one image stream arriving on
// kernel k. opts carries the COW frame cache and the telemetry registry
// exactly as for RestoreWith.
func NewStreamRestorer(k *kernel.Kernel, provider BinaryProvider, opts RestoreOpts) *StreamRestorer {
	return &StreamRestorer{
		k: k, provider: provider, opts: opts,
		sv:   imgcheck.NewStreamVerifier(),
		meta: image.NewDirSink(),
	}
}

// fail poisons the stream; every later sink call and Finish report err.
func (sr *StreamRestorer) fail(err error) error {
	if sr.err == nil {
		sr.err = err
	}
	return sr.err
}

// BeginFile implements image.StreamSink.
func (sr *StreamRestorer) BeginFile(name string, size int) error {
	if sr.err != nil {
		return sr.err
	}
	if name == "pages.img" {
		return sr.beginPages(size)
	}
	sr.cur = name
	return sr.meta.BeginFile(name, size)
}

// FileChunk implements image.StreamSink.
func (sr *StreamRestorer) FileChunk(p []byte) error {
	if sr.err != nil {
		return sr.err
	}
	if !sr.inPages {
		return sr.meta.FileChunk(p)
	}
	copy(sr.payload[sr.written:], p)
	done := sr.written / mem.PageSize
	sr.written += len(p)
	if newDone := sr.written / mem.PageSize; newDone > done {
		// The channel send happens-before the installer's receive, so the
		// installer only ever reads payload bytes fully written above.
		sr.batches <- pageBatch{lo: done, hi: newDone}
		sr.stats.Batches++
	}
	return nil
}

// EndFile implements image.StreamSink.
func (sr *StreamRestorer) EndFile() error {
	if sr.err != nil {
		return sr.err
	}
	if sr.inPages {
		sr.inPages = false
		sr.sv.File("pages.img", sr.payload)
		return nil
	}
	if err := sr.meta.EndFile(); err != nil {
		return err
	}
	data, _ := sr.meta.Dir().Get(sr.cur)
	sr.sv.File(sr.cur, data)
	return nil
}

// beginPages is the pivot of the pipeline: every metadata file has
// landed (sorted stream order), so verification and address-space
// construction run NOW — while the page payload is still on the wire —
// and the background installer starts consuming batches.
func (sr *StreamRestorer) beginPages(size int) error {
	if sr.pagesSeen {
		return sr.fail(fmt.Errorf("criu: stream restore: pages.img announced twice"))
	}
	sr.pagesSeen = true

	verifyStart := time.Now()
	if sr.start.IsZero() {
		sr.start = verifyStart
	}
	if err := sr.sv.VerifyMeta(size); err != nil {
		return sr.fail(fmt.Errorf("criu: stream restore pre-flight: %w", err))
	}
	r, err := openRestorer(sr.sv.Dir(), sr.provider, sr.opts)
	if err != nil {
		return sr.fail(err)
	}
	sr.r = r
	sr.verifyNs += time.Since(verifyStart)

	installStart := time.Now()
	if err := r.plan(sr.sv.Dir(), size); err != nil {
		return sr.fail(err)
	}
	sr.installNs += time.Since(installStart)

	sr.inPages = true
	sr.payload = make([]byte, size)
	sr.batches = make(chan pageBatch, streamBatchBuffer)
	// Frame copies run under the stream, not after it.
	sr.wg.Add(1)
	go func() {
		defer sr.wg.Done()
		for b := range sr.batches {
			r.install(sr.payload, b.lo, b.hi)
		}
	}()
	return nil
}

// Stats returns the realized pipeline statistics. Valid after Finish.
func (sr *StreamRestorer) Stats() StreamRestoreStats { return sr.stats }

// Dir returns the image directory accumulated from the stream (every
// metadata file, plus pages.img once complete).
func (sr *StreamRestorer) Dir() *ImageDir { return sr.sv.Dir() }

// Finish completes the restore after the stream has been fully fed (the
// splitter's Close returned nil): it joins the background installer, runs
// the image-vs-binary version-skew check over the now-complete directory,
// and builds the process. Finish must be called exactly once, on every
// path — including after a sink error, where it reaps the installer and
// returns the poisoning error.
func (sr *StreamRestorer) Finish() (*kernel.Process, error) {
	if sr.finished {
		return nil, fmt.Errorf("criu: stream restore: Finish called twice")
	}
	sr.finished = true
	if sr.batches != nil {
		close(sr.batches)
		sr.wg.Wait()
	}
	if sr.err != nil {
		return nil, sr.err
	}
	if !sr.pagesSeen {
		return nil, fmt.Errorf("criu: stream restore: stream ended before pages.img")
	}
	if sr.inPages || sr.written != len(sr.payload) {
		return nil, fmt.Errorf("criu: stream restore: pages.img truncated: %d of %d bytes", sr.written, len(sr.payload))
	}

	verifyStart := time.Now()
	// The version-skew check needs the stack words in pages.img, so in
	// streaming mode it is the one pre-flight that waits for the payload.
	// Nothing has run: a failure still discards everything.
	if err := sr.r.verifyTarget(sr.sv.Dir()); err != nil {
		return nil, err
	}
	sr.verifyNs += time.Since(verifyStart)

	buildStart := time.Now()
	p, err := sr.r.build(sr.k, sr.sv.Dir())
	if err != nil {
		return nil, err
	}
	sr.installNs += time.Since(buildStart)
	sr.stats.Pages = sr.r.installed

	// Span contract: stream + verify + install sum exactly to the
	// restore's wall time; the background installer's work hides inside
	// the stream phase, which is how the overlap shows up in the tree.
	total := time.Since(sr.start)
	streamNs := total - sr.verifyNs - sr.installNs
	if streamNs < 0 {
		streamNs = 0
	}
	recordRestoreObs(sr.opts.Obs, sr.r.installed, streamNs, sr.verifyNs, sr.installNs)
	return p, nil
}

var _ image.StreamSink = (*StreamRestorer)(nil)
