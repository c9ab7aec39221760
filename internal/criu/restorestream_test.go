package criu_test

import (
	"bytes"
	"encoding/binary"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
)

// dupHeavy fills a large array with a pattern that repeats every 512
// ints — exactly one 4K page — so the resident set is full of
// byte-identical nonzero pages.
// Equivalence points live at function entry, so the post-fill work sits
// in a callee the monitor can pause between calls to.
const dupHeavy = `
var data[8192] int;
var sum int;
func fill() {
	var i int;
	for i = 0; i < 8192; i = i + 1 {
		data[i] = (i % 512) + 7;
	}
}
func step(round int) {
	sum = sum + data[(round * 512) % 8192];
}
func main() {
	var round int;
	fill();
	for round = 0; round < 4096; round = round + 1 {
		step(round);
	}
	printi(sum);
}`

// pausedDupPair compiles dupHeavy, runs it past the fill loop, and pauses
// it at an equivalence point, ready to dump; the compiled pair is what a
// restore's binary provider needs.
func pausedDupPair(t *testing.T) (*kernel.Process, *compiler.Pair) {
	t.Helper()
	pair, err := compiler.Compile(dupHeavy)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: 2, Quantum: 97})
	p, err := k.StartProcess(pair.X86.LoadSpec("/bin/dup.sx86"))
	if err != nil {
		t.Fatal(err)
	}
	alive, err := k.RunBudget(p, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if !alive {
		t.Fatal("program finished before the dump point")
	}
	mon := monitor.New(k, p, pair.Meta)
	if err := mon.Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	return p, pair
}

// streamRestore pushes dir's marshaled bytes through a StreamSplitter
// into a StreamRestorer in chunkSize pieces, returning the restored
// process and the restorer (for stats).
func streamRestore(t *testing.T, k *kernel.Kernel, prov criu.BinaryProvider, dir *criu.ImageDir, opts criu.RestoreOpts, chunkSize int) (*kernel.Process, *criu.StreamRestorer) {
	t.Helper()
	sr := criu.NewStreamRestorer(k, prov, opts)
	sp := image.NewStreamSplitter(sr)
	blob := dir.Marshal()
	for off := 0; off < len(blob); off += chunkSize {
		end := off + chunkSize
		if end > len(blob) {
			end = len(blob)
		}
		if _, err := sp.Write(blob[off:end]); err != nil {
			if _, ferr := sr.Finish(); ferr == nil {
				t.Fatalf("splitter errored (%v) but Finish succeeded", err)
			}
			t.Fatalf("stream write: %v", err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}
	p, err := sr.Finish()
	if err != nil {
		t.Fatalf("stream finish: %v", err)
	}
	return p, sr
}

// asSnapshot serializes an address space's populated pages in index
// order — the byte-identity fingerprint for the restore matrix.
func asSnapshot(as *mem.AddressSpace) []byte {
	idxs := as.PopulatedPages()
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var buf bytes.Buffer
	for _, idx := range idxs {
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], idx)
		buf.Write(hdr[:])
		data, _ := as.PageData(idx)
		buf.Write(data)
	}
	return buf.Bytes()
}

// TestStreamRestoreMatchesRestore: the streamed pipeline must land the
// exact memory image and console behavior of the classic whole-image
// restore.
func TestStreamRestoreMatchesRestore(t *testing.T) {
	p, pair := pausedDupPair(t)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	prov := criu.MapProvider{"/bin/dup.sx86": pair.X86}

	k1 := kernel.New(kernel.Config{Cores: 2})
	p1, err := criu.Restore(k1, dir, prov)
	if err != nil {
		t.Fatal(err)
	}
	k2 := kernel.New(kernel.Config{Cores: 2})
	// 4 KiB chunks: the payload spans many chunks, so the installer
	// provably consumes batches before the stream ends.
	p2, sr := streamRestore(t, k2, prov, dir, criu.RestoreOpts{}, 4<<10)

	if got, want := asSnapshot(p2.AS), asSnapshot(p1.AS); !bytes.Equal(got, want) {
		t.Fatal("streamed restore produced a different memory image")
	}
	if st := sr.Stats(); st.Pages == 0 || st.Batches < 2 {
		t.Errorf("stats = %+v, want pages installed across >= 2 batches", st)
	}
	if err := k1.Run(p1); err != nil {
		t.Fatal(err)
	}
	if err := k2.Run(p2); err != nil {
		t.Fatal(err)
	}
	if p1.ConsoleString() != p2.ConsoleString() {
		t.Errorf("console diverged: %q vs %q", p1.ConsoleString(), p2.ConsoleString())
	}
}

// TestRestoreMatrixByteIdentical is the byte-identity matrix: frame
// sharing {private, COW cache} x image shapes {vanilla, flattened
// incremental} x feeders {directory, streamed} must all restore the
// identical memory image. Run under -race this also shakes out
// install-path data races between the stream and its installer.
func TestRestoreMatrixByteIdentical(t *testing.T) {
	dupProc, dupPair := pausedDupPair(t)
	vanilla, err := criu.Dump(dupProc, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	chain, _ := buildChain(t, sparseWriter, isa.SX86, 3, 7_000)
	flat, err := criu.FlattenChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	sparsePair, err := compiler.Compile(sparseWriter)
	if err != nil {
		t.Fatal(err)
	}

	images := []struct {
		name string
		dir  *criu.ImageDir
		prov criu.MapProvider
	}{
		{"vanilla", vanilla, criu.MapProvider{"/bin/dup.sx86": dupPair.X86}},
		{"flattened", flat, criu.MapProvider{"/bin/inc.sx86": sparsePair.X86}},
	}

	for _, img := range images {
		var golden []byte
		check := func(label string, as *mem.AddressSpace) {
			t.Helper()
			snap := asSnapshot(as)
			if golden == nil {
				golden = snap
				return
			}
			if !bytes.Equal(snap, golden) {
				t.Errorf("%s/%s: memory image differs from the private directory restore", img.name, label)
			}
		}
		for _, frames := range []bool{false, true} {
			var opts criu.RestoreOpts
			label := "private"
			if frames {
				opts.Frames = kernel.NewFrameCache()
				label = "cow"
			}
			k := kernel.New(kernel.Config{Cores: 2})
			p, err := criu.RestoreWith(k, img.dir, img.prov, opts)
			if err != nil {
				t.Fatalf("%s restore frames=%v: %v", img.name, frames, err)
			}
			check(label+"/restore", p.AS)

			ks := kernel.New(kernel.Config{Cores: 2})
			if frames {
				opts.Frames = kernel.NewFrameCache()
			}
			ps, _ := streamRestore(t, ks, img.prov, img.dir, opts, 48<<10)
			check(label+"/stream", ps.AS)
		}
	}
}

// TestStreamRestoreTelemetry: the restore span tree must be
// stream + verify + install == restore exactly, and the counters must
// reflect the installed pages.
func TestStreamRestoreTelemetry(t *testing.T) {
	p, pair := pausedDupPair(t)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	prov := criu.MapProvider{"/bin/dup.sx86": pair.X86}
	reg := obs.New()
	k := kernel.New(kernel.Config{Cores: 2})
	_, sr := streamRestore(t, k, prov, dir, criu.RestoreOpts{Obs: reg}, 64<<10)

	rep := reg.Report()
	root, ok := rep.Span("restore")
	if !ok {
		t.Fatal("no restore span recorded")
	}
	var sum time.Duration
	names := map[string]bool{}
	for _, c := range rep.Children(root.ID) {
		sum += c.Dur()
		names[c.Name] = true
	}
	if sum != root.Dur() {
		t.Errorf("restore children sum %v != span %v", sum, root.Dur())
	}
	for _, want := range []string{"stream", "verify", "install"} {
		if !names[want] {
			t.Errorf("restore span missing %q child (have %v)", want, names)
		}
	}
	if got := rep.Counters["restore.pages"]; got != uint64(sr.Stats().Pages) {
		t.Errorf("restore.pages = %d, want %d", got, sr.Stats().Pages)
	}
	if rep.Histograms["restore.install_ns"].Count == 0 {
		t.Error("restore.install_ns histogram empty")
	}
}

// TestStreamRestoreRefusesUnflattened: streamed restore must reject an
// incremental image before any page installs, like RestoreWith does.
func TestStreamRestoreRefusesUnflattened(t *testing.T) {
	chain, _ := buildChain(t, sparseWriter, isa.SX86, 2, 7_000)
	pair, err := compiler.Compile(sparseWriter)
	if err != nil {
		t.Fatal(err)
	}
	prov := criu.MapProvider{"/bin/inc.sx86": pair.X86}
	k := kernel.New(kernel.Config{Cores: 2})
	sr := criu.NewStreamRestorer(k, prov, criu.RestoreOpts{})
	sp := image.NewStreamSplitter(sr)
	_, werr := sp.Write(chain[len(chain)-1].Marshal())
	_, ferr := sr.Finish()
	if werr == nil && ferr == nil {
		t.Fatal("streamed restore accepted an unflattened incremental image")
	}
	if ferr != nil && !strings.Contains(ferr.Error(), "flatten") && (werr == nil || !strings.Contains(werr.Error(), "flatten")) {
		t.Errorf("error does not mention flattening: write=%v finish=%v", werr, ferr)
	}
}

// TestStreamRestoreTruncated: a stream that dies mid-payload must fail
// Finish, and Finish must reap the installer (no goroutine leak under
// -race and goleak-style reruns).
func TestStreamRestoreTruncated(t *testing.T) {
	p, pair := pausedDupPair(t)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	prov := criu.MapProvider{"/bin/dup.sx86": pair.X86}
	blob := dir.Marshal()
	k := kernel.New(kernel.Config{Cores: 2})
	sr := criu.NewStreamRestorer(k, prov, criu.RestoreOpts{})
	sp := image.NewStreamSplitter(sr)
	if _, err := sp.Write(blob[:len(blob)-4096]); err != nil {
		t.Fatalf("prefix write should be clean: %v", err)
	}
	if err := sp.Close(); err == nil {
		t.Error("splitter accepted a truncated stream")
	}
	if _, err := sr.Finish(); err == nil {
		t.Error("Finish accepted a truncated restore")
	}
	if _, err := sr.Finish(); err == nil {
		t.Error("second Finish did not error")
	}
}

// recordingSource wraps a PageSource and records every fetched address.
type recordingSource struct {
	inner criu.PageSource
	mu    sync.Mutex
	addrs map[uint64]bool
}

func (r *recordingSource) FetchPage(addr uint64) ([]byte, error) {
	r.mu.Lock()
	r.addrs[addr] = true
	r.mu.Unlock()
	return r.inner.FetchPage(addr)
}

// TestLazyRestoreZeroPagesNotFetched is the satellite regression: a lazy
// restore must materialize pagemap zero entries locally — reading one
// after restore must never round-trip to the page server.
func TestLazyRestoreZeroPagesNotFetched(t *testing.T) {
	// In a lazy dump only stack/TLS pages (and the flag page) escape lazy
	// classification, so the zero entry comes from the stack: deep()'s
	// 8 KiB local array covers at least one full page, is dirtied and
	// re-zeroed, and stays resident (and all-zero) after deep returns —
	// later frames are far smaller than big, so they never reach it.
	src := `
var data[4096] int;
var sum int;
func deep() {
	var big[1024] int;
	big[100] = 5;
	big[100] = 0;
	sum = sum + big[100];
}
func work(i int) {
	data[i] = i + 1;
	sum = sum + data[i];
}
func main() {
	var i int;
	deep();
	for i = 0; i < 3000; i = i + 1 {
		work(i % 4096);
	}
	printi(sum);
}`
	pair, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: 2, Quantum: 97})
	p, err := k.StartProcess(pair.X86.LoadSpec("/bin/zl.sx86"))
	if err != nil {
		t.Fatal(err)
	}
	alive, err := k.RunBudget(p, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	if !alive {
		t.Fatal("program finished before the dump point")
	}
	mon := monitor.New(k, p, pair.Meta)
	if err := mon.Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := criu.LoadPageSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.ZeroPages) == 0 {
		t.Fatal("lazy dump carries no zero entries; the regression needs one")
	}
	if len(ps.LazyPages) == 0 {
		t.Fatal("lazy dump carries no lazy entries")
	}

	prov := criu.MapProvider{"/bin/zl.sx86": pair.X86}
	k2 := kernel.New(kernel.Config{Cores: 2})
	p2, err := criu.RestoreWith(k2, dir, prov, criu.RestoreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Every zero page must already be populated — materialized by the
	// restore, not left for the fault handler.
	for addr := range ps.ZeroPages {
		if _, ok := p2.AS.PageData(addr / mem.PageSize); !ok {
			t.Errorf("zero page 0x%x not materialized at restore", addr)
		}
	}
	rec := &recordingSource{inner: criu.NewProcessPageSource(p), addrs: map[uint64]bool{}}
	criu.InstallLazyHandler(p2, rec)
	if err := k2.Run(p2); err != nil {
		t.Fatal(err)
	}
	for addr := range rec.addrs {
		if ps.ZeroPages[addr] {
			t.Errorf("zero page 0x%x round-tripped to the page server", addr)
		}
	}
	if len(rec.addrs) == 0 {
		t.Error("no lazy fetches at all; the lazy path was not exercised")
	}
}
