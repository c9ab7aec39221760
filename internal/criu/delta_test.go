package criu_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/obs"
)

// buildDeltaChain is buildChain with XOR-delta encoding threaded through
// (dumpChain with delta set). It returns the chain, the still-paused
// process, and the dump telemetry.
func buildDeltaChain(t *testing.T, src string, arch isa.Arch, rounds int, budget uint64) ([]*criu.ImageDir, *kernel.Process, *obs.Registry) {
	t.Helper()
	return dumpChain(t, src, arch, rounds, budget, true, nil)
}

// TestDeltaChainMatchesFullDump is the delta-encoding property test: a
// chain dumped with XOR deltas must flatten to exactly the pages a single
// full dump of the final state holds — the deltas are a pure wire
// encoding, invisible after FlattenChain — and every prefix of it to what a
// full dump at its pause holds, which is also the base the next round's
// deltas were encoded against (everyPrefix).
func TestDeltaChainMatchesFullDump(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		arch   isa.Arch
		rounds int
		budget uint64
	}{
		{"dense-x86-3x9k", denseWriter, isa.SX86, 3, 9_000},
		{"dense-arm-2x14k", denseWriter, isa.SARM, 2, 14_000},
		{"sparse-x86-3x7k", sparseWriter, isa.SX86, 3, 7_000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			chain, p, reg := dumpChain(t, tc.src, tc.arch, tc.rounds, tc.budget, true, everyPrefix(t))
			// The dense writer re-dirties the same window every round, so a
			// chain that never emitted a delta page means the encoder is
			// dead and this test is vacuous.
			if reg.Counter("dump.pages_delta").Value() == 0 {
				t.Fatal("no delta pages were encoded across the whole chain")
			}
			full, err := criu.Dump(p, criu.DumpOpts{})
			if err != nil {
				t.Fatalf("reference full dump: %v", err)
			}
			flat, err := criu.FlattenChain(chain)
			if err != nil {
				t.Fatalf("flatten: %v", err)
			}
			samePages(t, "the flattened delta chain", resolvedPages(t, flat), resolvedPages(t, full))
		})
	}
}

// TestDeltaChainMatchesPlainIncremental runs the same program through a
// plain incremental chain and a delta-encoded one; both flattenings must
// be page-identical, and the delta dumps must never carry more payload
// than their plain counterparts (a delta page replaces a data page
// one-for-one; demotions to in_parent only shrink it further).
func TestDeltaChainMatchesPlainIncremental(t *testing.T) {
	const rounds, budget = 3, 9_000
	plain, _ := buildChain(t, denseWriter, isa.SX86, rounds, budget)
	delta, _, _ := buildDeltaChain(t, denseWriter, isa.SX86, rounds, budget)

	plainFlat, err := criu.FlattenChain(plain)
	if err != nil {
		t.Fatal(err)
	}
	deltaFlat, err := criu.FlattenChain(delta)
	if err != nil {
		t.Fatal(err)
	}
	want := resolvedPages(t, plainFlat)
	got := resolvedPages(t, deltaFlat)
	if len(got) != len(want) {
		t.Fatalf("delta chain resolves %d pages, plain chain %d", len(got), len(want))
	}
	for a, w := range want {
		if !bytes.Equal(got[a], w) {
			t.Errorf("page 0x%x differs between plain and delta chains", a)
		}
	}
	for i := 1; i < len(plain); i++ {
		p, d := criu.DumpedPages(plain[i]), criu.DumpedPages(delta[i])
		if d > p {
			t.Errorf("round %d: delta dump carries %d pages, plain dump only %d", i, d, p)
		}
	}
}

// TestDeltaCRITRoundTrip: the delta flag must survive the CRIT JSON
// round trip byte-for-byte, and be visible in the JSON itself.
func TestDeltaCRITRoundTrip(t *testing.T) {
	chain, _, _ := buildDeltaChain(t, denseWriter, isa.SX86, 2, 9_000)
	final := chain[len(chain)-1]
	if len(pagesByClass(t, final)[image.PageDelta]) == 0 {
		t.Fatal("final delta dump has no delta pages; nothing to round-trip")
	}
	js, err := criu.DecodeJSON(final)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"delta": true`) {
		t.Error("CRIT JSON does not surface the delta flag")
	}
	back, err := criu.EncodeJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pagemap.img", "pages.img"} {
		w, _ := final.Get(name)
		g, ok := back.Get(name)
		if !ok || !bytes.Equal(g, w) {
			t.Errorf("%s not byte-identical after CRIT round trip", name)
		}
	}
}

// TestDeltaDumpGuards covers the delta-specific misuse errors.
func TestDeltaDumpGuards(t *testing.T) {
	chain, p, _ := buildDeltaChain(t, denseWriter, isa.SX86, 2, 9_000)
	base, err := criu.AdvanceBase(nil, chain[0])
	if err != nil {
		t.Fatal(err)
	}
	// DeltaBase without Parent is meaningless: there is no chain to hold
	// the base content the XOR refers to.
	if _, err := criu.Dump(p, criu.DumpOpts{TrackMem: true, DeltaBase: base}); err == nil {
		t.Error("delta dump without Parent succeeded")
	}
	// An unflattened delta dump must refuse to restore, pointing at
	// FlattenChain.
	pair, err := compiler.Compile(denseWriter)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	prov := criu.MapProvider{"/bin/inc.sx86": pair.X86}
	if _, err := criu.Restore(k, chain[1], prov); err == nil || !strings.Contains(err.Error(), "flatten") {
		t.Errorf("restore of raw delta dump: %v", err)
	}
	// AdvanceBase seeded with a delta dump (instead of the chain's full
	// base) must refuse: the XORs have nothing to apply to.
	if _, err := criu.AdvanceBase(nil, chain[1]); err == nil {
		t.Error("AdvanceBase accepted a delta dump as the chain's first link")
	}
	// A truncated chain cannot resolve its deltas.
	if _, err := criu.FlattenChain(chain[1:]); err == nil {
		t.Error("flatten of a delta chain missing its base succeeded")
	}
}

// TestDeltaChainRestores completes the loop: flatten the delta chain and
// restore it, and the resumed run must produce the same output as the
// uninterrupted reference.
func TestDeltaChainRestores(t *testing.T) {
	pair, err := compiler.Compile(denseWriter)
	if err != nil {
		t.Fatal(err)
	}
	kn := kernel.New(kernel.Config{})
	pn, err := kn.StartProcess(pair.X86.LoadSpec("/bin/inc.sx86"))
	if err != nil {
		t.Fatal(err)
	}
	if err := kn.Run(pn); err != nil {
		t.Fatal(err)
	}
	want := pn.ConsoleString()

	chain, p, _ := buildDeltaChain(t, denseWriter, isa.SX86, 3, 9_000)
	flat, err := criu.FlattenChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	k2 := kernel.New(kernel.Config{})
	prov := criu.MapProvider{"/bin/inc.sx86": pair.X86}
	p2, err := criu.Restore(k2, flat, prov)
	if err != nil {
		t.Fatal(err)
	}
	if err := k2.Run(p2); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsoleString() + p2.ConsoleString(); got != want {
		t.Errorf("delta-chain restore output %q, want %q", got, want)
	}
}
