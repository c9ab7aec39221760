package core_test

import (
	"bytes"
	"slices"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// pausedDump runs a class-S workload to a deterministic pause — the
// rediska server loaded with 400 keys and blocked on an empty input queue,
// streamcluster a fixed cycle budget into its four-thread run — and dumps
// it, returning the directory and a provider holding both binaries.
func pausedDump(t *testing.T, name string) (*criu.ImageDir, criu.MapProvider) {
	return pausedDumpOf(t, name, workloads.ClassS, 400, criu.DumpOpts{})
}

// pausedDumpOf is pausedDump at another class, rediska preload and dump
// options.
func pausedDumpOf(t *testing.T, name string, class workloads.Class, keys uint64, opts criu.DumpOpts) (*criu.ImageDir, criu.MapProvider) {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, class)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: 4, Quantum: 97})
	p, err := k.StartProcess(pair.X86.LoadSpec(compiler.ExePath(name, isa.SX86)))
	if err != nil {
		t.Fatal(err)
	}
	if name == "rediska" {
		p.PushInput(workloads.RediskaLoad(keys))
		for st, err := k.Step(p); st.Blocked != 1 || p.PendingInput() != 0; st, err = k.Step(p) {
			if err != nil {
				t.Fatal(err)
			}
		}
	} else if alive, err := k.RunBudget(p, 40_000); err != nil || !alive {
		t.Fatalf("%s: alive=%v err=%v", name, alive, err)
	}
	if err := monitor.New(k, p, pair.Meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dir, criu.MapProvider{
		compiler.ExePath(name, isa.SX86): pair.X86,
		compiler.ExePath(name, isa.SARM): pair.ARM,
	}
}

// TestStoredFormByteIdentical pins what PageSet.Store's page-list form of
// pages.img may never change: any byte, size or name a reader of the
// directory sees. After a view is opened and committed unedited, and
// after every policy (and the cross-ISA-then-shuffle chain), on rediska
// and streamcluster, the rewritten directory must be
// indistinguishable from the flat one its own blob parses back into —
// Marshal, FrameFile over Names with Get, Size (which feeds RecodeTime and
// RestoreTime, so a drift would move modeled columns) and the page set a
// loader decodes.
func TestStoredFormByteIdentical(t *testing.T) {
	for _, name := range []string{"rediska", "streamcluster"} {
		// An identical recompile registered under a second path is a patch
		// every function of which classifies safe.
		patched := compiler.ExePath(name+"-v2", isa.SX86)
		policies := map[string][]core.Policy{
			"unedited":      {},
			"cross-isa":     {core.CrossISAPolicy{}},
			"shuffle":       {core.StackShufflePolicy{Seed: 7}},
			"live-update":   {core.LiveUpdatePolicy{NewExePath: patched}},
			"cross+shuffle": {core.CrossISAPolicy{}, core.StackShufflePolicy{Seed: 7}},
		}
		for pname, chain := range policies {
			t.Run(name+"/"+pname, func(t *testing.T) {
				dir, bins := pausedDump(t, name)
				bins[patched] = bins[compiler.ExePath(name, isa.SX86)]
				if len(chain) == 0 {
					image.Open(dir).Commit()
				}
				for _, pol := range chain {
					if err := pol.Rewrite(dir, &core.Context{Binaries: bins}); err != nil {
						t.Fatalf("%s: %v", pol.Name(), err)
					}
				}
				blob := dir.Marshal()
				var framed []byte
				for _, n := range dir.Names() {
					data, ok := dir.Get(n)
					if !ok {
						t.Fatalf("Names lists %s, Get does not have it", n)
					}
					framed = append(framed, image.FrameFile(n, data)...)
				}
				if !bytes.Equal(blob, framed) {
					t.Fatal("Marshal differs from FrameFile over Names with Get")
				}
				flat, err := image.UnmarshalImageDir(blob)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(flat.Marshal(), blob) {
					t.Error("the blob does not round-trip through a flat directory")
				}
				if !slices.Equal(flat.Names(), dir.Names()) {
					t.Errorf("Names %v, flat %v", dir.Names(), flat.Names())
				}
				if dir.Size() != flat.Size() {
					t.Errorf("Size %d, flat %d", dir.Size(), flat.Size())
				}
				got, err := image.LoadPageSet(dir)
				if err != nil {
					t.Fatal(err)
				}
				want, err := image.LoadPageSet(flat)
				if err != nil {
					t.Fatal(err)
				}
				pm, err := flat.Pagemap()
				if err != nil {
					t.Fatal(err)
				}
				pm.EachPage(func(a uint64, class image.PageClass) {
					if got.Class(a) != class || want.Class(a) != class || !bytes.Equal(got.Data(a), want.Data(a)) {
						t.Fatalf("page 0x%x (%v in the pagemap) loads as %v and %v from the two forms, or its bytes differ", a, class, got.Class(a), want.Class(a))
					}
				})
			})
		}
	}
}
