// Package cluster models the multi-ISA, multi-node environment of the
// paper's evaluation: an x86-like server and ARM-like boards connected by
// a network, with end-to-end migration (vanilla and post-copy) and the
// virtual-time cost model that reproduces the shape of Figs. 5–7.
//
// Two time scales coexist:
//
//   - guest virtual time: instruction cycles executed by the simulated
//     kernels, converted to seconds through each node's clock model;
//   - transformation time: checkpoint/recode/copy/restore costs modeled
//     from image sizes, node speeds, and link bandwidth, calibrated (see
//     timing.go) to land in the ranges the paper reports.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/registry"
	"github.com/dapper-sim/dapper/internal/stackmap"
	"github.com/dapper-sim/dapper/internal/updatecheck"
)

// NodeSpec describes one machine.
type NodeSpec struct {
	Name  string
	Arch  isa.Arch
	Cores int
	// ClockHz and IPC convert guest cycles to seconds: t = cycles /
	// (ClockHz * IPC).
	ClockHz float64
	IPC     float64
	// IdleW and PerCoreW form the linear power model used by the energy
	// experiments (Fig. 8).
	IdleW    float64
	PerCoreW float64
}

// Predefined node models, calibrated to the paper's testbed: an Intel Xeon
// E5-2620 v4 (8 cores @ 2.1 GHz, 108 W observed under 7 worker threads)
// and Raspberry Pi 4 boards (4×Cortex-A72 @ 1.5 GHz, 5.1 W under 3
// threads).
var (
	XeonSpec = NodeSpec{
		Name: "xeon", Arch: isa.SX86, Cores: 8,
		ClockHz: 2.1e9, IPC: 1.0,
		IdleW: 43, PerCoreW: 9.3, // 43 + 7*9.3 ≈ 108 W at 7 threads
	}
	PiSpec = NodeSpec{
		Name: "pi", Arch: isa.SARM, Cores: 4,
		ClockHz: 1.5e9, IPC: 0.55,
		IdleW: 2.4, PerCoreW: 0.9, // 2.4 + 3*0.9 = 5.1 W at 3 threads
	}
)

// Node is one machine: a kernel plus its spec and executable store.
type Node struct {
	Spec     NodeSpec
	K        *kernel.Kernel
	Binaries criu.MapProvider
}

// NewNode boots a node.
func NewNode(spec NodeSpec) *Node {
	return &Node{
		Spec:     spec,
		K:        kernel.New(kernel.Config{Cores: spec.Cores}),
		Binaries: criu.MapProvider{},
	}
}

// Install registers a compiled pair's binary for this node's architecture
// (and the other architecture too, so the rewriter can read both sides).
func (n *Node) Install(name string, pair *compiler.Pair) {
	n.Binaries[compiler.ExePath(name, isa.SX86)] = pair.X86
	n.Binaries[compiler.ExePath(name, isa.SARM)] = pair.ARM
}

// Start launches a program (installed under name) on this node.
func (n *Node) Start(name string) (*kernel.Process, error) {
	path := compiler.ExePath(name, n.Spec.Arch)
	bin, err := n.Binaries.Open(path)
	if err != nil {
		return nil, err
	}
	return n.K.StartProcess(bin.LoadSpec(path))
}

// SecondsFor converts guest cycles to wall seconds on this node.
func (n *Node) SecondsFor(cycles uint64) float64 {
	return float64(cycles) / (n.Spec.ClockHz * n.Spec.IPC)
}

// Duration converts guest cycles to a time.Duration on this node.
func (n *Node) Duration(cycles uint64) time.Duration {
	return time.Duration(n.SecondsFor(cycles) * float64(time.Second))
}

// Breakdown is the per-phase cost of one migration (the bars of Figs. 5
// and 7).
type Breakdown struct {
	Checkpoint time.Duration
	Recode     time.Duration
	Copy       time.Duration
	Restore    time.Duration
	// RecodeHost is the real wall time the Go rewriter took (reported by
	// the benchmarks alongside the modeled time).
	RecodeHost time.Duration
	// ImageBytes is the marshaled image size before any wire codec.
	ImageBytes uint64
	// WireBytes is what actually crossed the link: the image after
	// per-segment compression, plus the stream's framing. Copy is modeled
	// from this figure.
	WireBytes uint64
	// LazyBytes counts bytes later served by the page server (post-copy).
	LazyBytes uint64
	// LazyFetches counts page-server round trips after restore.
	LazyFetches uint64
	// Downtime is the service interruption proper, pause to resume. For
	// vanilla and lazy migrations it equals Total(); for pre-copy it
	// covers only the final stop-and-copy delta.
	Downtime time.Duration
	// PreCopyTime is time spent on pre-copy rounds while the source keeps
	// running — part of the migration, not of the interruption.
	PreCopyTime time.Duration
	// Rounds counts checkpoints taken: 1 for vanilla/lazy, iterative
	// rounds plus the final delta for pre-copy.
	Rounds int
	// StreamSegments and StreamBatches describe the realized restore
	// pipeline of a StreamRestore migration (zero otherwise): wire
	// segments delivered to the streaming decoder, and page batches the
	// background installer consumed. Batches >= 2 with Segments >= 2
	// proves pages were installing while later segments were still on
	// the wire — the overlap the downtime model credits.
	StreamSegments int
	StreamBatches  int
	// RoundBytes records each pre-copy round's transferred bytes
	// (including the final delta).
	RoundBytes []uint64
	// PreCopyBytes is the total shipped before the final pause.
	PreCopyBytes uint64
}

// Total is the service interruption excluding post-copy paging.
func (b *Breakdown) Total() time.Duration {
	return b.Checkpoint + b.Recode + b.Copy + b.Restore
}

// MigrationTime is the end-to-end migration cost: pre-copy rounds (zero
// for vanilla/lazy) plus the interruption phases.
func (b *Breakdown) MigrationTime() time.Duration {
	return b.PreCopyTime + b.Total()
}

// MigrateOpts controls a migration.
type MigrateOpts struct {
	Lazy bool
	// LazyTCP serves post-copy pages over a real TCP page server (the
	// cross-node deployment path) instead of in-process FetchPage calls.
	// Requires Lazy. The server and client live inside the
	// MigrationResult; call Close when paging is done.
	LazyTCP bool
	// PageClient tunes the TCP page client (pool size, deadlines,
	// retries, prefetch); nil selects criu's defaults.
	PageClient *criu.PageClientOpts
	// WrapPageSource, if set, wraps the page source serving lazy faults —
	// tests interpose criu.FlakySource here to inject fetch failures.
	WrapPageSource func(criu.PageSource) criu.PageSource
	// WrapListener, if set, wraps the TCP page server's listener — tests
	// interpose criu.FlakyListener here to inject connection drops.
	WrapListener func(net.Listener) net.Listener
	// Shuffle additionally re-randomizes the stack layout during the
	// rewrite (policy chaining); ShuffleSeed selects the permutation.
	Shuffle     bool
	ShuffleSeed int64
	// MaxPauses bounds the monitor's wait for equivalence points.
	MaxPauses int
	// PreCopy selects iterative pre-copy migration (see precopy.go): the
	// process keeps running while dirty pages are shipped in rounds, and
	// pauses only for the final delta. Incompatible with Lazy.
	PreCopy *PreCopyOpts
	// Obs, if set, collects the migration's telemetry into one registry:
	// the monitor's pause protocol, CRIU dump counters, page-transport
	// counters and fault-service latency, and a span tree covering every
	// modeled phase end-to-end (see internal/obs and
	// docs/observability.md). Nil disables recording at ~1 ns per site.
	Obs *obs.Registry
	// Codec selects the wire codec for image transfers (and, for LazyTCP,
	// the page client's batch frames unless PageClient asks for
	// compression itself): CodecNone (the zero value) frames without
	// compressing; CodecFlate compresses each segment and batch. Restored
	// images are byte-identical across both; only Breakdown.WireBytes
	// changes.
	Codec criu.Codec
	// StreamRestore overlaps the copy and restore phases: the image's
	// segments feed a criu.StreamRestorer directly, which verifies
	// metadata, maps the address space, and installs page batches on a
	// background worker while later segments are still being decoded (see
	// docs/perf.md, "restore pipeline"). Downtime is then modeled as
	// checkpoint + recode + max(copy, restore) instead of their sum.
	// Restored state is byte-identical to a non-streamed migration.
	// Incompatible with Lazy, PreCopy, and Registry.
	StreamRestore bool
	// Delta enables XOR-delta encoding of re-dirtied pages in pre-copy
	// rounds (requires PreCopy): a page the chain already holds ships as
	// the XOR against the chain's content — mostly zeros for small
	// mutations, which CodecFlate then collapses — and soft-dirty false
	// positives are elided entirely. See criu.DumpOpts.DeltaBase.
	Delta bool
	// Registry routes the vanilla transfer through a persistent
	// content-addressed store instead of the wire: the rewritten image is
	// pushed (chunks the store already holds are elided), and the
	// destination pulls and imgcheck-pre-flights the materialized
	// directory. WireBytes then counts only the bytes the push actually
	// stored — the cross-dump dedup saving is (ImageBytes - WireBytes).
	// Incompatible with Lazy and PreCopy.
	Registry *registry.Store
	// RegistryOwner, when non-empty with Registry, pins the pushed
	// manifest under this owner tag so GC cannot sweep it while the
	// caller still wants it (see registry.Store.Unref).
	RegistryOwner string
}

// MigrationResult couples the restored process with its costs and any
// page-server plumbing the caller must keep alive.
type MigrationResult struct {
	Proc      *kernel.Process
	Breakdown Breakdown
	// Manifest is the registry manifest ID of the shipped image when the
	// migration ran through MigrateOpts.Registry, empty otherwise.
	Manifest string
	// Source is the paused source process's page source. It is non-nil
	// only for lazy migrations, where the source process must stay alive
	// to serve post-copy faults: run the restored process to completion
	// (or until its working set is resident), call FinalizeLazyStats if
	// you want the realized paging traffic in the Breakdown, then Close.
	// For non-lazy migrations Migrate reaps the source immediately — its
	// console output stays readable, but it never runs again — and Source
	// is nil.
	Source *criu.ProcessPageSource

	srcKernel  *kernel.Kernel
	srcProc    *kernel.Process
	dstKernel  *kernel.Kernel
	pageServer *criu.PageServer
	pageClient *criu.RemotePageSource
	closeOnce  sync.Once
	closeErr   error
}

// Close releases the migration's lazy-paging plumbing: it closes the TCP
// page client and server (if LazyTCP) and reaps the paused source process.
// After Close the restored process must not fault any page that was left
// behind on the source — run it to completion first, or accept that such a
// fault fails with a transport error (see kernel.IsLazyFaultError). Close
// is idempotent; for non-lazy migrations it is a no-op.
func (r *MigrationResult) Close() error {
	return r.finish(true, false)
}

// Rollback abandons a migration whose restored process failed mid-flight
// (typically a post-copy fetch that exhausted its retries, see
// kernel.IsLazyFaultError): it tears down the page-transport plumbing like
// Close and reaps the dead restored process on the destination, but —
// unlike Close — leaves the paused source process alive. The caller can
// then resume the source at its equivalence points (monitor.ResumeLocal)
// and retry the migration later; the fleet control plane's
// retry-with-backoff path is built on exactly this. Rollback and Close
// share one idempotency guard: whichever runs first wins.
func (r *MigrationResult) Rollback() error {
	return r.finish(false, true)
}

func (r *MigrationResult) finish(reapSource, reapRestored bool) error {
	r.closeOnce.Do(func() {
		if r.pageClient != nil {
			if err := r.pageClient.Close(); err != nil {
				r.closeErr = fmt.Errorf("cluster: page client close: %w", err)
			}
		}
		if r.pageServer != nil {
			if err := r.pageServer.Close(); err != nil {
				r.closeErr = errors.Join(r.closeErr, fmt.Errorf("cluster: page server close: %w", err))
			}
		}
		if reapSource && r.srcKernel != nil && r.srcProc != nil {
			r.srcKernel.Reap(r.srcProc)
		}
		if reapRestored && r.dstKernel != nil && r.Proc != nil {
			r.dstKernel.Reap(r.Proc)
		}
	})
	return r.closeErr
}

// FinalizeLazyStats copies the realized post-copy paging traffic into the
// Breakdown: LazyFetches/LazyBytes become the page server's actual request
// and byte counters (including requests that were retried or failed),
// rather than an estimate. Call it after the restored process has run.
func (r *MigrationResult) FinalizeLazyStats() {
	switch {
	case r.pageServer != nil:
		st := r.pageServer.Stats()
		r.Breakdown.LazyFetches = st.Requests
		r.Breakdown.LazyBytes = st.BytesSent
	case r.Source != nil:
		st := r.Source.Stats()
		r.Breakdown.LazyFetches = st.Requests
		r.Breakdown.LazyBytes = st.BytesSent
	}
}

// PageStats returns the page-serving counters for a lazy migration: the
// TCP server's view when LazyTCP, else the in-process source's.
func (r *MigrationResult) PageStats() criu.PageServerStats {
	if r.pageServer != nil {
		return r.pageServer.Stats()
	}
	if r.Source != nil {
		return r.Source.Stats()
	}
	return criu.PageServerStats{}
}

// PageClientStats returns the TCP page client's transport counters
// (retries, reconnects, timeouts, prefetch activity); zero when the
// migration did not use LazyTCP.
func (r *MigrationResult) PageClientStats() criu.PageClientStats {
	if r.pageClient == nil {
		return criu.PageClientStats{}
	}
	return r.pageClient.Stats()
}

// Migrate checkpoints p on src, rewrites it for dst's architecture, copies
// the images, and restores it on dst. The returned process is ready to
// run. meta must be the program's stack-map metadata.
func Migrate(src, dst *Node, p *kernel.Process, meta *stackmap.Metadata, opts MigrateOpts) (*MigrationResult, error) {
	if opts.MaxPauses == 0 {
		opts.MaxPauses = 1 << 20
	}
	// The rewrite runs on the faster node: the paper notes the
	// transformation can always run on the most powerful machine.
	recodeNode := fasterNode(src, dst)
	if opts.Delta && opts.PreCopy == nil {
		return nil, fmt.Errorf("cluster: delta encoding requires pre-copy migration")
	}
	if opts.Registry != nil && (opts.Lazy || opts.PreCopy != nil) {
		return nil, fmt.Errorf("cluster: registry transfer supports vanilla migrations only")
	}
	if opts.StreamRestore && (opts.Lazy || opts.PreCopy != nil || opts.Registry != nil) {
		return nil, fmt.Errorf("cluster: streamed restore supports vanilla wire migrations only")
	}
	if opts.PreCopy != nil {
		if opts.Lazy {
			return nil, fmt.Errorf("cluster: pre-copy is incompatible with lazy migration")
		}
		return migratePreCopy(src, dst, p, meta, opts, recodeNode)
	}

	var bd Breakdown

	// 1. Pause at equivalence points and dump (checkpoint).
	mon := monitor.New(src.K, p, meta).WithObs(opts.Obs)
	if err := mon.Pause(opts.MaxPauses); err != nil {
		return nil, fmt.Errorf("cluster: pause: %w", err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{Lazy: opts.Lazy, Obs: opts.Obs})
	if err != nil {
		return nil, fmt.Errorf("cluster: dump: %w", err)
	}
	// Fail fast on the source side: a dump that violates an image
	// invariant must not be rewritten or shipped.
	if err := imgcheck.Verify(dir); err != nil {
		return nil, fmt.Errorf("cluster: dump pre-flight: %w", err)
	}
	bd.Checkpoint = CheckpointTime(dir.Size())

	// 2. Rewrite (recode) for the destination architecture, optionally
	// chaining a stack shuffle (the destination starts with a fresh
	// layout).
	//lint:ignore wallclock RecodeHost is real host time by definition, reported separately and never part of modeled downtime
	hostStart := time.Now()
	if err := rewriteForDest(dir, src, dst, opts); err != nil {
		return nil, err
	}
	//lint:ignore wallclock RecodeHost is real host time by definition, reported separately and never part of modeled downtime
	bd.RecodeHost = time.Since(hostStart)
	bd.Recode = RecodeTime(recodeNode, dir.Size())
	// Source-side version-skew pre-flight: the rewritten image must resolve
	// against the exact binary the destination restores into (thread PCs at
	// known sites, return addresses at known call sites). Catching skew here
	// refuses the migration before any bytes ship.
	if err := verifyShipTarget(dir, src.Binaries); err != nil {
		return nil, fmt.Errorf("cluster: recode pre-flight: %w", err)
	}

	// 3. Copy images over the link (scp). The blob is handed over segment
	// by segment exactly as a TCP transfer would carry it, so WireBytes
	// is measured, not estimated. With a registry the image is pushed
	// instead: only chunks the store does not already hold cross the
	// wire, and the destination pulls and pre-flights the materialized
	// directory.
	var dir2 *criu.ImageDir
	var manifest string
	var p2 *kernel.Process
	ropts := criu.RestoreOpts{Obs: opts.Obs}
	if opts.Registry != nil {
		m, pst, err := opts.Registry.Push(dir, registry.PushOpts{Owner: opts.RegistryOwner})
		if err != nil {
			return nil, fmt.Errorf("cluster: registry push: %w", err)
		}
		manifest = m.ID
		pagesRaw, _ := dir.Get("pages.img")
		metaBytes := dir.Size() - uint64(len(pagesRaw))
		bd.ImageBytes = dir.Size()
		bd.WireBytes = pst.BytesStored + metaBytes
		if dir2, err = opts.Registry.Pull(manifest); err != nil {
			return nil, fmt.Errorf("cluster: registry pull: %w", err)
		}
		// Pull-path pre-flight: the materialized image re-verifies every
		// invariant (and every chunk re-hashed inside Pull), so a corrupt
		// store entry fails here with a named invariant, never mid-restore.
		if err := imgcheck.Verify(dir2); err != nil {
			return nil, fmt.Errorf("cluster: registry pull pre-flight: %w", err)
		}
	} else if blob := dir.Marshal(); opts.StreamRestore {
		// Streamed pipeline: the segments feed the restorer directly, so
		// decode, incremental verify, and parallel page install all
		// overlap. The restore is complete when Finish returns; step 4
		// below only attributes modeled time.
		bd.ImageBytes = uint64(len(blob))
		sr := criu.NewStreamRestorer(dst.K, dst.Binaries, ropts)
		wire, segs, terr := transfer(blob, opts.Codec, sr, opts.Obs)
		// Finish runs on every path: it reaps the background installer.
		p2, err = sr.Finish()
		if terr != nil {
			return nil, fmt.Errorf("cluster: transfer: %w", terr)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: restore: %w", err)
		}
		bd.WireBytes = wire
		bd.StreamSegments = segs
		bd.StreamBatches = sr.Stats().Batches
		dir2 = sr.Dir()
	} else {
		bd.ImageBytes = uint64(len(blob))
		sink := image.NewDirSinkFor(len(blob))
		if bd.WireBytes, _, err = transfer(blob, opts.Codec, sink, opts.Obs); err != nil {
			return nil, fmt.Errorf("cluster: transfer: %w", err)
		}
		dir2 = sink.Dir()
	}
	bd.Copy = InfiniBand.TransferTime(bd.WireBytes)

	// 4. Restore on the destination node. The streamed pipeline already
	// restored while receiving; non-streamed paths restore here from the
	// materialized directory.
	if p2 == nil {
		if p2, err = criu.RestoreWith(dst.K, dir2, dst.Binaries, ropts); err != nil {
			return nil, fmt.Errorf("cluster: restore: %w", err)
		}
	}
	bd.Restore = RestoreTime(dir2.Size(), opts.Lazy)
	// Vanilla and lazy pause the process for the whole pipeline. Like the
	// pre-copy path, downtime sums the modeled phases only — host wall
	// clock never leaks in, so replays report identical downtime. The
	// streamed pipeline overlaps copy with restore, so its downtime
	// charges only the longer of the two.
	if opts.StreamRestore {
		bd.Downtime = bd.Checkpoint + bd.Recode + OverlappedCopyRestore(bd.Copy, bd.Restore)
	} else {
		bd.Downtime = bd.Total()
	}
	bd.Rounds = 1

	// Span tree: vanilla/lazy migrations are all downtime, so the root's
	// single child covers it exactly. A streamed restore groups copy and
	// restore under one overlapped stage whose duration is their max, so
	// the downtime span's children still sum exactly to its duration.
	reg := opts.Obs
	root := reg.NewSpan("migration")
	dt := root.Child("downtime")
	dt.Child("checkpoint").Finish(bd.Checkpoint)
	dt.Child("recode").Finish(bd.Recode)
	if opts.StreamRestore {
		xfer := dt.Child("xfer_restore")
		xfer.Child("copy").Finish(bd.Copy)
		xfer.Child("restore").Finish(bd.Restore)
		xfer.Finish(OverlappedCopyRestore(bd.Copy, bd.Restore))
	} else {
		dt.Child("copy").Finish(bd.Copy)
		dt.Child("restore").Finish(bd.Restore)
	}
	dt.Finish(bd.Downtime)
	root.Finish(bd.MigrationTime())
	reg.Counter("migrate.count").Inc()
	reg.Counter("migrate.image_bytes").Add(bd.ImageBytes)
	reg.Histogram("recode.host_ns").Observe(bd.RecodeHost)

	res := &MigrationResult{Proc: p2, Breakdown: bd, Manifest: manifest, srcKernel: src.K, srcProc: p, dstKernel: dst.K}
	if !opts.Lazy {
		// Nothing will ever fault back to the source: reap it now instead
		// of leaking it SIGSTOPed forever. Its console stays readable.
		src.K.Reap(p)
		return res, nil
	}

	// Post-copy: the paused source process becomes the page server. The
	// migration registry observes the fault path at the destination side
	// (ObsSource) and the transport counters on both ends.
	srcPages := criu.NewProcessPageSourceObs(p, opts.Obs)
	res.Source = srcPages
	var pageSrc criu.PageSource = srcPages
	if opts.WrapPageSource != nil {
		pageSrc = opts.WrapPageSource(pageSrc)
	}
	if !opts.LazyTCP {
		criu.InstallLazyHandler(p2, criu.ObsSource(pageSrc, opts.Obs))
		return res, nil
	}
	// From here a failure must reap p2: it is already adopted by dst.K,
	// and a caller handed (nil, err) has no way to reach it. The source
	// stays paused and untouched, so the caller can ResumeLocal and retry.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dst.K.Reap(p2)
		return nil, fmt.Errorf("cluster: page server: %w", err)
	}
	if opts.WrapListener != nil {
		ln = opts.WrapListener(ln)
	}
	srv := criu.ServePagesObs(ln, pageSrc, opts.Obs)
	var copts criu.PageClientOpts
	if opts.PageClient != nil {
		copts = *opts.PageClient
	}
	if copts.Obs == nil {
		copts.Obs = opts.Obs
	}
	if copts.Codec == criu.CodecNone {
		// The migration-level codec extends to the post-copy page stream
		// unless the client options ask for compression themselves.
		copts.Codec = opts.Codec
	}
	client, err := criu.DialPageServerOpts(srv.Addr(), copts)
	if err != nil {
		err = fmt.Errorf("cluster: page client: %w", err)
		if cerr := srv.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("cluster: page server close: %w", cerr))
		}
		dst.K.Reap(p2)
		return nil, err
	}
	criu.InstallLazyHandler(p2, criu.ObsSource(client, opts.Obs))
	res.pageServer, res.pageClient = srv, client
	return res, nil
}

// rewriteForDest runs the recode pipeline on an image directory: the
// cross-ISA rewrite when the architectures differ, then the optional
// stack shuffle. Shared by the vanilla/lazy and pre-copy paths.
func rewriteForDest(dir *criu.ImageDir, src, dst *Node, opts MigrateOpts) error {
	ctx := &core.Context{Binaries: src.Binaries, Obs: opts.Obs}
	if src.Spec.Arch != dst.Spec.Arch {
		policy := core.CrossISAPolicy{Target: dst.Spec.Arch}
		if err := policy.Rewrite(dir, ctx); err != nil {
			return fmt.Errorf("cluster: rewrite: %w", err)
		}
	}
	if opts.Shuffle {
		// The shuffled binary must be visible on BOTH nodes: register it
		// into the destination's provider too.
		pol := core.StackShufflePolicy{Seed: opts.ShuffleSeed}
		if err := pol.Rewrite(dir, ctx); err != nil {
			return fmt.Errorf("cluster: shuffle: %w", err)
		}
		filesRaw, ok := dir.Get("files.img")
		if !ok {
			return fmt.Errorf("cluster: shuffle: image directory missing files.img")
		}
		files, err := criu.UnmarshalFiles(filesRaw)
		if err != nil {
			return err
		}
		bin, err := src.Binaries.Open(files.ExePath)
		if err != nil {
			return err
		}
		dst.Binaries.Register(files.ExePath, bin)
	}
	return nil
}

// verifyShipTarget runs updatecheck's image-vs-binary pass (via imgcheck)
// against the binary the image's files entry names — the one the
// destination will open at restore.
func verifyShipTarget(dir *criu.ImageDir, bins criu.BinaryProvider) error {
	filesRaw, ok := dir.Get("files.img")
	if !ok {
		return fmt.Errorf("image directory missing files.img")
	}
	files, err := criu.UnmarshalFiles(filesRaw)
	if err != nil {
		return err
	}
	bin, err := bins.Open(files.ExePath)
	if err != nil {
		return err
	}
	if bin.Meta == nil {
		return nil
	}
	if err := imgcheck.VerifyTargetBinary(dir, &updatecheck.Binary{
		Arch: bin.Arch, Text: bin.Text, Symbols: bin.Symbols, Meta: bin.Meta,
	}); err != nil {
		return fmt.Errorf("image/binary version skew for %q: %w", files.ExePath, err)
	}
	return nil
}

func fasterNode(a, b *Node) *Node {
	if a.Spec.ClockHz*a.Spec.IPC >= b.Spec.ClockHz*b.Spec.IPC {
		return a
	}
	return b
}
