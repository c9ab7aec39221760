package criu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// goldenImages pins every image byte the dump path produces: SHA-256 of
// ImageDir.Marshal() per workload and dump kind, recorded from the commit
// before the copy-budget change (PR 14). A change on the image path may
// move how often bytes are copied, never which bytes come out; if one of
// these moves, the change altered an image.
var goldenImages = map[string]string{
	"rediska/full":             "3cd79a26330adf967295ed2c057615d3cec38cccd29d64be801eb42c9c8cb64d",
	"rediska/lazy":             "7f75db27442b2ce31ccbb54c4077eb98556d3f998df3ffa3c3cb1629677498fc",
	"rediska/incr-delta":       "9e9230641b28c080d399e8515136c4dadb79f2aa37cf4c19a6ca5ab715e20d23",
	"rediska/flattened":        "9f5839418f30fa0732fb66dee429d6202490ded5426aa65f3d23d40e626dce80",
	"streamcluster/full":       "964e226c1881268327de0bf5cd4cc585ff9c6ead839b877d0e06d2eccabf952c",
	"streamcluster/lazy":       "bb4c065f3554daec9899befb6e0581ad53f98488ada27b79603e4f72bcf3466d",
	"streamcluster/incr-delta": "082f626c2efe61c67a4a70f48e217d388b53a808f150bcaf86d2fd75bac89037",
	"streamcluster/flattened":  "db2d951a4f6694fb52fb016dd270b72ebd0c058185f8e050106d5f758239f144",
}

// goldenProc starts a workload and runs it to a deterministic pause: the
// rediska server loaded with 400 keys and blocked on an empty input queue,
// streamcluster a fixed cycle budget into its four-thread run.
func goldenProc(t *testing.T, name string) (*kernel.Kernel, *kernel.Process, *compiler.Pair) {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: 4, Quantum: 97})
	p, err := k.StartProcess(pair.X86.LoadSpec(compiler.ExePath(name, pair.X86.Arch)))
	if err != nil {
		t.Fatal(err)
	}
	if name == "rediska" {
		p.PushInput(workloads.RediskaLoad(400))
	}
	goldenAdvance(t, k, p, name, 0)
	return k, p, pair
}

// goldenAdvance moves the process forward between the two dumps of the
// incremental chain: a batch of writes for the server, a cycle budget for
// the batch job.
func goldenAdvance(t *testing.T, k *kernel.Kernel, p *kernel.Process, name string, round int) {
	t.Helper()
	if name != "rediska" {
		alive, err := k.RunBudget(p, 40_000-10_000*uint64(round))
		if err != nil || !alive {
			t.Fatalf("%s round %d: alive=%v err=%v", name, round, alive, err)
		}
		return
	}
	for i := 0; i < 16*round; i++ {
		p.PushInput(workloads.RediskaSet(uint64(5000+i), uint64(round*1000+i)))
	}
	for i := 0; i < 5_000_000; i++ {
		st, err := k.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Blocked == 1 && p.PendingInput() == 0 {
			return
		}
	}
	t.Fatal("rediska did not quiesce")
}

func TestGoldenImageDigests(t *testing.T) {
	for _, name := range []string{"rediska", "streamcluster"} {
		k, p, pair := goldenProc(t, name)
		mon := monitor.New(k, p, pair.Meta)
		if err := mon.Pause(1 << 20); err != nil {
			t.Fatal(err)
		}
		check := func(kind string, dir *criu.ImageDir, err error) *criu.ImageDir {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			sum := sha256.Sum256(dir.Marshal())
			if got, want := hex.EncodeToString(sum[:]), goldenImages[name+"/"+kind]; got != want {
				t.Errorf("%s/%s: image digest %s, golden %s", name, kind, got, want)
			}
			return dir
		}
		dump := func(kind string, opts criu.DumpOpts) *criu.ImageDir {
			t.Helper()
			dir, err := criu.Dump(p, opts)
			return check(kind, dir, err)
		}
		dump("lazy", criu.DumpOpts{Lazy: true})
		full := dump("full", criu.DumpOpts{TrackMem: true})
		base, err := criu.AdvanceBase(nil, full)
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.ResumeLocal(); err != nil {
			t.Fatal(err)
		}
		goldenAdvance(t, k, p, name, 1)
		if err := mon.Pause(1 << 20); err != nil {
			t.Fatal(err)
		}
		incr := dump("incr-delta", criu.DumpOpts{Parent: full, DeltaBase: base, TrackMem: true})
		flat, err := criu.FlattenChain([]*criu.ImageDir{full, incr})
		check("flattened", flat, err)
	}
}
