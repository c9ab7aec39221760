package criu_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
)

// denseWriter keeps rewriting a sliding window of a big array; sparseWriter
// strides across it so most rounds dirty disjoint pages.
// Equivalence points live at function entry, so the per-round work sits in
// a callee — that is what lets the monitor pause between rounds.
const denseWriter = `
var data[8192] int;
var sink int;
func fill(round int) {
	var i int;
	for i = 0; i < 512; i = i + 1 {
		data[(round * 67 + i) % 8192] = round * 10000 + i;
	}
}
func main() {
	var round int;
	for round = 0; round < 64; round = round + 1 {
		fill(round);
		sink = sink + 1;
	}
	printi(sink);
}`

// sparseWriter advances a small (~2-page) window per outer round, so later
// deltas are much smaller than the accumulated resident set.
const sparseWriter = `
var data[16384] int;
var sum int;
func touch(round int) {
	var i int;
	for i = 0; i < 96; i = i + 1 {
		data[(round * 331 + i) % 16384] = round + i;
		sum = sum + data[(round * 131) % 16384];
	}
}
func main() {
	var round int;
	for round = 0; round < 48; round = round + 1 {
		touch(round);
	}
	printi(sum);
}`

// dumpChain runs the program in budget slices, taking a TrackMem full dump
// first and an incremental dump (Parent = previous) after each slice; with
// delta, each incremental dump XORs re-dirtied pages against the chain's
// resolved content, maintained round over round with AdvanceBase. each, if
// set, sees every link at its pause — the process still stopped there —
// with that base as advanced over the link (nil without delta). It returns
// the chain, the still-paused process and the dump telemetry.
func dumpChain(t *testing.T, src string, arch isa.Arch, rounds int, budget uint64, delta bool,
	each func(i int, p *kernel.Process, link *criu.ImageDir, base *criu.PageSet)) ([]*criu.ImageDir, *kernel.Process, *obs.Registry) {
	t.Helper()
	pair, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: 2, Quantum: 97})
	p, err := k.StartProcess(pair.ByArch(arch).LoadSpec("/bin/inc." + arch.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunBudget(p, budget); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(k, p, pair.Meta)
	reg := obs.New()
	var chain []*criu.ImageDir
	var base *criu.PageSet
	for r := 0; r <= rounds; r++ {
		if r > 0 {
			if err := mon.ResumeLocal(); err != nil {
				t.Fatalf("resume %d: %v", r, err)
			}
			alive, err := k.RunBudget(p, budget)
			if err != nil {
				t.Fatalf("run %d: %v", r, err)
			}
			if !alive {
				t.Fatalf("program finished before round %d; shrink the budget", r)
			}
		}
		if err := mon.Pause(1 << 20); err != nil {
			t.Fatalf("pause %d: %v", r, err)
		}
		opts := criu.DumpOpts{TrackMem: true, Obs: reg}
		if r > 0 {
			opts.Parent, opts.DeltaBase = chain[r-1], base
		}
		link, err := criu.Dump(p, opts)
		if err != nil {
			t.Fatalf("dump %d: %v", r, err)
		}
		if delta {
			if base, err = criu.AdvanceBase(base, link); err != nil {
				t.Fatalf("advance %d: %v", r, err)
			}
		}
		chain = append(chain, link)
		if each != nil {
			each(r, p, link, base)
		}
	}
	return chain, p, reg
}

// buildChain is a plain incremental chain from dumpChain.
func buildChain(t *testing.T, src string, arch isa.Arch, rounds int, budget uint64) ([]*criu.ImageDir, *kernel.Process) {
	t.Helper()
	chain, p, _ := dumpChain(t, src, arch, rounds, budget, false, nil)
	return chain, p
}

// pagesByClass walks dir's pagemap: the address of every page it lists,
// by class, in file order.
func pagesByClass(t *testing.T, dir *criu.ImageDir) map[image.PageClass][]uint64 {
	t.Helper()
	pm, err := dir.Pagemap()
	if err != nil {
		t.Fatal(err)
	}
	out := map[image.PageClass][]uint64{}
	pm.EachPage(func(a uint64, class image.PageClass) { out[class] = append(out[class], a) })
	return out
}

// setPages is pagesByClass of the pagemap ps stores.
func setPages(t *testing.T, ps *criu.PageSet) map[image.PageClass][]uint64 {
	t.Helper()
	dir := image.NewImageDir()
	ps.Store(dir)
	return pagesByClass(t, dir)
}

// statePages is a resolved page set's content by address: data pages by
// content, zero pages as zero content.
func statePages(t *testing.T, ps *criu.PageSet) map[uint64][]byte {
	t.Helper()
	pages := setPages(t, ps)
	if n := len(pages[image.PageParent]) + len(pages[image.PageDelta]) + len(pages[image.PageLazy]); n > 0 {
		t.Fatalf("%d in_parent, delta or lazy pages in what should be resolved content", n)
	}
	zero := make([]byte, mem.PageSize)
	out := make(map[uint64][]byte, len(pages[image.PageData])+len(pages[image.PageZero]))
	for _, a := range pages[image.PageData] {
		out[a] = ps.Data(a)
	}
	for _, a := range pages[image.PageZero] {
		out[a] = zero
	}
	return out
}

// resolvedPages is statePages of a self-contained directory.
func resolvedPages(t *testing.T, dir *criu.ImageDir) map[uint64][]byte {
	t.Helper()
	ps, err := criu.LoadPageSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	return statePages(t, ps)
}

// samePages requires got to hold exactly want's pages with want's content.
func samePages(t *testing.T, what string, got, want map[uint64][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s resolves %d pages, the full dump has %d", what, len(got), len(want))
	}
	for a, w := range want {
		if g, ok := got[a]; !ok {
			t.Errorf("page 0x%x missing from %s", a, what)
		} else if !bytes.Equal(g, w) {
			t.Errorf("page 0x%x differs between %s and the full dump", a, what)
		}
	}
}

// everyPrefix is the dumpChain callback behind the two MatchesFullDump
// tests: at each pause it takes a full dump and requires the chain pushed
// so far — the fold's definition of "the chain as of link i" — and
// AdvanceBase's set after the same link to equal it page for page. A plain
// chain passes no base, so it is advanced here.
func everyPrefix(t *testing.T) func(int, *kernel.Process, *criu.ImageDir, *criu.PageSet) {
	var pushed imgcheck.Chain
	var own *criu.PageSet
	return func(i int, p *kernel.Process, link *criu.ImageDir, base *criu.PageSet) {
		t.Helper()
		full, err := criu.Dump(p, criu.DumpOpts{})
		if err != nil {
			t.Fatalf("reference full dump at pause %d: %v", i, err)
		}
		want := resolvedPages(t, full)
		if err := pushed.Push(image.Open(link)); err != nil {
			t.Fatalf("push link %d: %v", i, err)
		}
		flat, err := pushed.Flatten()
		if err != nil {
			t.Fatalf("flatten as of link %d: %v", i, err)
		}
		samePages(t, fmt.Sprintf("the chain pushed as of link %d", i), resolvedPages(t, flat), want)
		if base == nil {
			if own, err = criu.AdvanceBase(own, link); err != nil {
				t.Fatalf("advance %d: %v", i, err)
			}
			base = own
		}
		samePages(t, fmt.Sprintf("AdvanceBase's set as of link %d", i), statePages(t, base), want)
	}
}

// TestIncrementalChainMatchesFullDump is the headline property test: across
// workloads, architectures, chain lengths, and checkpoint spacings, the
// flattened incremental chain must be page-for-page identical to a single
// full dump taken at the final pause — and so must every prefix of it be to
// a full dump taken at its pause (everyPrefix).
func TestIncrementalChainMatchesFullDump(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		arch   isa.Arch
		rounds int
		budget uint64
	}{
		{"dense-x86-2x9k", denseWriter, isa.SX86, 2, 9_000},
		{"dense-x86-4x23k", denseWriter, isa.SX86, 4, 23_000},
		{"dense-arm-3x14k", denseWriter, isa.SARM, 3, 14_000},
		{"sparse-x86-3x7k", sparseWriter, isa.SX86, 3, 7_000},
		{"sparse-arm-2x31k", sparseWriter, isa.SARM, 2, 31_000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			chain, p, _ := dumpChain(t, tc.src, tc.arch, tc.rounds, tc.budget, false, everyPrefix(t))
			full, err := criu.Dump(p, criu.DumpOpts{})
			if err != nil {
				t.Fatalf("reference full dump: %v", err)
			}
			flat, err := criu.FlattenChain(chain)
			if err != nil {
				t.Fatalf("flatten: %v", err)
			}
			samePages(t, "the flattened chain", resolvedPages(t, flat), resolvedPages(t, full))
			// Non-page images must come from the final pause verbatim.
			for _, name := range full.Names() {
				if name == "pagemap.img" || name == "pages.img" {
					continue
				}
				w, _ := full.Get(name)
				g, ok := flat.Get(name)
				if !ok || !bytes.Equal(g, w) {
					t.Errorf("image %s differs between chain head and full dump", name)
				}
			}
			// The deltas must actually be incremental: each one carries
			// fewer data pages than the full dump of the final state, and
			// defers at least some pages to its parent.
			fullPages := criu.DumpedPages(full)
			for i, d := range chain[1:] {
				if n := criu.DumpedPages(d); n >= fullPages {
					t.Errorf("delta %d dumped %d pages, full dump only %d", i+1, n, fullPages)
				}
				cov, err := criu.CoveredPages(d)
				if err != nil {
					t.Fatal(err)
				}
				if n := criu.DumpedPages(d); len(cov) == n {
					t.Errorf("delta %d has no in_parent/zero entries", i+1)
				}
			}
		})
	}
}

// TestIncrementalChainFlakyFinalDelta re-fetches the final delta's data
// pages through the fault-injected TCP page transport — the "final delta
// transfer over a bad link" scenario — and requires the flattened result to
// stay byte-identical.
func TestIncrementalChainFlakyFinalDelta(t *testing.T) {
	chain, _ := buildChain(t, denseWriter, isa.SX86, 3, 11_000)
	final := chain[len(chain)-1]
	ps, err := criu.LoadPageSet(final)
	if err != nil {
		t.Fatal(err)
	}
	// Serve the final delta's data pages behind injected faults.
	src := pageFunc(func(addr uint64) ([]byte, error) {
		pg := ps.Data(addr)
		if pg == nil {
			return nil, fmt.Errorf("page 0x%x not in final delta", addr)
		}
		return pg, nil
	})
	faults := obs.New()
	flaky := criu.NewFlakySource(src, criu.FaultSpec{Seed: 41, FailRate: 0.4}, faults)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := criu.ServePagesOn(ln, flaky)
	defer srv.Close()
	client, err := criu.DialPageServerOpts(srv.Addr(), criu.PageClientOpts{MaxRetries: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Rebuild the delta from fetched pages, keeping the flag-only entries.
	rebuilt := emptyPageSet(t)
	for class, addrs := range pagesByClass(t, final) {
		for _, a := range addrs {
			var pg []byte
			if class == image.PageData {
				if pg, err = client.FetchPage(a); err != nil {
					t.Fatalf("fetch 0x%x through flaky transport: %v", a, err)
				}
			}
			rebuilt.Put(a, class, pg)
		}
	}
	fetched := image.NewImageDir()
	for _, name := range final.Names() {
		if name == "pagemap.img" || name == "pages.img" {
			continue
		}
		raw, _ := final.Get(name)
		fetched.Put(name, raw)
	}
	rebuilt.Store(fetched)

	wantFlat, err := criu.FlattenChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	gotFlat, err := criu.FlattenChain(append(append([]*criu.ImageDir{}, chain[:len(chain)-1]...), fetched))
	if err != nil {
		t.Fatalf("flatten with fetched delta: %v", err)
	}
	want := resolvedPages(t, wantFlat)
	got := resolvedPages(t, gotFlat)
	if len(got) != len(want) {
		t.Fatalf("fetched-delta chain resolves %d pages, want %d", len(got), len(want))
	}
	for a, w := range want {
		if !bytes.Equal(got[a], w) {
			t.Errorf("page 0x%x corrupted by flaky transfer", a)
		}
	}
	if faults.Counter("faults.failures").Value() == 0 {
		t.Error("fault injector never fired; the test exercised nothing")
	}
}

// TestIncrementalDumpGuards covers the misuse errors.
func TestIncrementalDumpGuards(t *testing.T) {
	chain, p := buildChain(t, denseWriter, isa.SX86, 1, 9_000)
	if _, err := criu.Dump(p, criu.DumpOpts{Parent: chain[0], Lazy: true}); err == nil {
		t.Error("incremental+lazy dump succeeded")
	}
	p.AS.StopDirtyTracking()
	if _, err := criu.Dump(p, criu.DumpOpts{Parent: chain[0]}); err == nil {
		t.Error("incremental dump without tracking succeeded")
	}
	// An unflattened delta must not restore, even with the binary at hand.
	pair, err := compiler.Compile(denseWriter)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	prov := criu.MapProvider{"/bin/inc.sx86": pair.X86}
	if _, err := criu.Restore(k, chain[1], prov); err == nil || !strings.Contains(err.Error(), "in_parent") {
		t.Errorf("restore of raw delta: %v", err)
	}
	if _, err := criu.FlattenChain(nil); err == nil {
		t.Error("flatten of empty chain succeeded")
	}
	// A chain missing its base cannot resolve.
	if _, err := criu.FlattenChain(chain[1:]); err == nil {
		t.Error("flatten of truncated chain succeeded")
	}
}

// TestShrunkPageLeavesParent: a page a shrink unmaps and a regrow maps
// again reads zero on the source, so the next incremental dump must not
// defer it to a parent holding its old bytes. Reading it back populates a
// zero frame without a store; the shrink's soft-dirty mark is what keeps
// it out of in_parent.
func TestShrunkPageLeavesParent(t *testing.T) {
	chain, p := buildChain(t, denseWriter, isa.SX86, 0, 9_000)
	v, ok := p.AS.FindVMA(isa.DataBase)
	if !ok {
		t.Fatal("no data VMA")
	}
	last := v.End - mem.PageSize
	if err := p.AS.WriteU64(last+8, 0xdead); err != nil {
		t.Fatal(err)
	}
	parent, err := criu.Dump(p, criu.DumpOpts{Parent: chain[0], TrackMem: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AS.Resize(v.Start, last); err != nil {
		t.Fatal(err)
	}
	if err := p.AS.Resize(v.Start, v.End); err != nil {
		t.Fatal(err)
	}
	if got, err := p.AS.ReadU64(last + 8); err != nil || got != 0 {
		t.Fatalf("regrown page reads %#x (err %v), want 0", got, err)
	}
	link, err := criu.Dump(p, criu.DumpOpts{Parent: parent, TrackMem: true})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := criu.LoadPageSet(link)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Class(last) == image.PageParent {
		t.Errorf("page 0x%x is in_parent: the destination would fold in 0xdead, the source reads 0", last)
	}
	full, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := criu.FlattenChain([]*criu.ImageDir{chain[0], parent, link})
	if err != nil {
		t.Fatal(err)
	}
	samePages(t, "the chain after a shrink and regrow", resolvedPages(t, flat), resolvedPages(t, full))
}

// TestZeroPagesElided: an all-zero resident page travels as a pagemap-only
// zero entry (visible in CRIT), carries no bytes, and restores correctly.
func TestZeroPagesElided(t *testing.T) {
	src := `
var data[4096] int;
var i int;
func keep() {
	data[5] = 9;
}
func main() {
	data[2000] = 7;
	data[2000] = 0;
	data[5] = 9;
	for i = 0; i < 2000; i = i + 1 { keep(); }
	printi(data[5]);
}`
	pair, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Native reference.
	kn := kernel.New(kernel.Config{})
	pn, err := kn.StartProcess(pair.X86.LoadSpec("/bin/z.sx86"))
	if err != nil {
		t.Fatal(err)
	}
	if err := kn.Run(pn); err != nil {
		t.Fatal(err)
	}
	want := pn.ConsoleString()

	k := kernel.New(kernel.Config{})
	p, err := k.StartProcess(pair.X86.LoadSpec("/bin/z.sx86"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunBudget(p, 30_000); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(k, p, pair.Meta)
	if err := mon.Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := criu.LoadPageSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	zero := pagesByClass(t, dir)[image.PageZero]
	if len(zero) == 0 {
		t.Fatal("no zero entries in the pagemap; data[2000]'s page was expected to be elided")
	}
	for _, a := range zero {
		if class := ps.Class(a); class != image.PageZero {
			t.Errorf("page 0x%x is both zero and %v", a, class)
		}
	}
	// CRIT shows the flag.
	js, err := criu.DecodeJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"zero": true`) {
		t.Error("CRIT JSON does not surface the zero flag")
	}
	// And the image still restores to the identical run.
	k2 := kernel.New(kernel.Config{})
	prov := criu.MapProvider{"/bin/z.sx86": pair.X86}
	p2, err := criu.Restore(k2, dir, prov)
	if err != nil {
		t.Fatal(err)
	}
	if err := k2.Run(p2); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsoleString() + p2.ConsoleString(); got != want {
		t.Errorf("zero-elided restore output %q, want %q", got, want)
	}
}
