package criu_test

import (
	"bytes"
	"encoding/binary"
	"slices"
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

// asSnapshot serializes an address space's populated pages in index
// order — the byte-identity fingerprint for the restore matrix.
func asSnapshot(as *mem.AddressSpace) []byte {
	var buf bytes.Buffer
	as.MappedPages(func(_ mem.VMA, idx uint64, data []byte) bool {
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], idx)
		buf.Write(hdr[:])
		buf.Write(data)
		return false
	})
	return buf.Bytes()
}

// TestRestoreMatrixByteIdentical is the byte-identity matrix: frame
// sharing {first restore, second restore adopting the same directory
// after the first wrote every page} x image shapes {vanilla, flattened
// incremental} must all restore the identical memory image.
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
				t.Errorf("%s/%s: memory image differs from the private restore", img.name, label)
			}
		}
		for _, label := range []string{"first", "second"} {
			k := kernel.New(kernel.Config{Cores: 2})
			p, err := criu.Restore(k, img.dir, img.prov)
			if err != nil {
				t.Fatalf("%s restore %s: %v", img.name, label, err)
			}
			check(label, p.AS)
			var idxs []uint64
			p.AS.MappedPages(func(_ mem.VMA, idx uint64, _ []byte) bool { idxs = append(idxs, idx); return false })
			for _, idx := range idxs {
				if err := p.AS.WriteU64(idx*mem.PageSize, ^uint64(0)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRestoreTelemetry: the restore span tree must be verify + install ==
// restore exactly, and the counters must reflect the installed pages.
func TestRestoreTelemetry(t *testing.T) {
	p, pair := pausedDupPair(t)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	prov := criu.MapProvider{"/bin/dup.sx86": pair.X86}
	reg := obs.New()
	k := kernel.New(kernel.Config{Cores: 2})
	if _, err := criu.RestoreWith(k, dir, prov, criu.RestoreOpts{Obs: reg}); err != nil {
		t.Fatal(err)
	}

	rep := reg.Report()
	root, ok := rep.Span("restore")
	if !ok {
		t.Fatal("no restore span recorded")
	}
	var sum time.Duration
	var names []string
	for _, c := range rep.Children(root.ID) {
		sum += c.Dur()
		names = append(names, c.Name)
	}
	if sum != root.Dur() {
		t.Errorf("restore children sum %v != span %v", sum, root.Dur())
	}
	if got := strings.Join(names, " "); got != "verify install" {
		t.Errorf("restore span children %q, want verify install", got)
	}
	if got, want := rep.Counters["restore.pages"], uint64(criu.DumpedPages(dir)); got != want {
		t.Errorf("restore.pages = %d, want the %d dumped data pages", got, want)
	}
	if rep.Histograms["restore.install_ns"].Count == 0 {
		t.Error("restore.install_ns histogram empty")
	}
}

// recordingSource wraps a PageSource and records every fetched address.
type recordingSource struct {
	inner criu.PageSource
	mu    sync.Mutex
	addrs map[uint64]bool
}

func (r *recordingSource) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	r.mu.Lock()
	r.addrs[addr] = true
	r.mu.Unlock()
	return r.inner.ReadPage(addr, dst)
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
	pages := pagesByClass(t, dir)
	if len(pages[image.PageZero]) == 0 {
		t.Fatal("lazy dump carries no zero entries; the regression needs one")
	}
	if len(pages[image.PageLazy]) == 0 {
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
	for _, addr := range pages[image.PageZero] {
		if _, ok := p2.AS.PageData(addr / mem.PageSize); !ok {
			t.Errorf("zero page 0x%x not materialized at restore", addr)
		}
	}
	// The lazy pages, and only those, are listed for the fault handler.
	var lazy []uint64
	for _, rg := range p2.AS.LazyPages() {
		for idx := rg.Start; idx < rg.End; idx++ {
			lazy = append(lazy, idx*mem.PageSize)
		}
	}
	if !slices.Equal(lazy, pages[image.PageLazy]) {
		t.Errorf("restore listed %d lazy pages, the pagemap %d", len(lazy), len(pages[image.PageLazy]))
	}
	rec := &recordingSource{inner: criu.NewProcessPageSource(p), addrs: map[uint64]bool{}}
	criu.InstallLazyHandler(p2, rec)
	if err := k2.Run(p2); err != nil {
		t.Fatal(err)
	}
	for addr := range rec.addrs {
		if slices.Contains(pages[image.PageZero], addr) {
			t.Errorf("zero page 0x%x round-tripped to the page server", addr)
		}
	}
	if len(rec.addrs) == 0 {
		t.Error("no lazy fetches at all; the lazy path was not exercised")
	}
}
