package workloads_test

import (
	"fmt"
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestMigrateWorkloadsMidRun runs every batch workload to the half-way
// point on the Xeon node, migrates it to the Pi node (real checkpoint,
// rewrite, image transfer, restore), finishes it there, and requires
// bit-identical console output versus the native run — the repository's
// headline invariant exercised on the actual evaluation programs.
func TestMigrateWorkloadsMidRun(t *testing.T) {
	for _, w := range workloads.All() {
		if w.Kind != workloads.Batch {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			pair, err := workloads.CompilePair(w, workloads.ClassS)
			if err != nil {
				t.Fatal(err)
			}
			// Native reference (and cycle measurement) on the Xeon.
			ref := cluster.NewNode(cluster.XeonSpec)
			ref.Install(w.Name, pair)
			rp, err := ref.Start(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.K.Run(rp); err != nil {
				t.Fatalf("native: %v\n%s", err, rp.ConsoleString())
			}
			want := rp.ConsoleString()

			xeon := cluster.NewNode(cluster.XeonSpec)
			pi := cluster.NewNode(cluster.PiSpec)
			xeon.Install(w.Name, pair)
			pi.Install(w.Name, pair)
			p, err := xeon.Start(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			alive, err := xeon.K.RunBudget(p, rp.VCycles/2)
			if err != nil {
				t.Fatal(err)
			}
			if !alive {
				t.Skip("finished before the checkpoint point")
			}
			res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{})
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if err := pi.K.Run(res.Proc); err != nil {
				t.Fatalf("post-migration: %v\n%s", err, res.Proc.ConsoleString())
			}
			got := p.ConsoleString() + res.Proc.ConsoleString()
			if got != want {
				t.Errorf("output mismatch after migration:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestMigrateJoinsExitedThreads migrates the three 4-thread PARSEC
// workloads late in their run, at k/25 of the source's native cycles for
// k = 22..24, where a worker has exited and main has not yet joined it.
// The exited worker is process state: a restored process that lost it
// fails its join with "join: no thread". Both directions, stop-and-copy
// and in-process post-copy; every point must finish with the native
// output.
func TestMigrateJoinsExitedThreads(t *testing.T) {
	for _, name := range []string{"blackscholes", "streamcluster", "swaptions"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := workloads.CompilePair(w, workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []struct {
			name     string
			src, dst cluster.NodeSpec
		}{{"x86-arm", cluster.XeonSpec, cluster.PiSpec}, {"arm-x86", cluster.PiSpec, cluster.XeonSpec}} {
			ref := cluster.NewNode(dir.src)
			ref.Install(name, pair)
			rp, err := ref.Start(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.K.Run(rp); err != nil {
				t.Fatal(err)
			}
			want := rp.ConsoleString()
			for k := uint64(22); k <= 24; k++ {
				for _, lazy := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/k=%d/lazy=%v", name, dir.name, k, lazy), func(t *testing.T) {
						src, dst := cluster.NewNode(dir.src), cluster.NewNode(dir.dst)
						src.Install(name, pair)
						dst.Install(name, pair)
						p, err := src.Start(name)
						if err != nil {
							t.Fatal(err)
						}
						if alive, err := src.K.RunBudget(p, rp.VCycles*k/25); err != nil || !alive {
							t.Fatalf("run to %d/25: alive %v, %v", k, alive, err)
						}
						res, err := cluster.Migrate(src, dst, p, pair.Meta, cluster.MigrateOpts{Lazy: lazy})
						if err != nil {
							t.Fatalf("migrate: %v", err)
						}
						defer res.Close()
						if err := dst.K.Run(res.Proc); err != nil {
							t.Fatalf("after restore: %v", err)
						}
						if got := p.ConsoleString() + res.Proc.ConsoleString(); got != want {
							t.Errorf("output %q, want %q", got, want)
						}
					})
				}
			}
		}
	}
}

// TestMigrateRediskaWithDB loads the KV store, migrates it (vanilla and
// lazy) while it is blocked in recv, and verifies the database content
// survives on the other architecture.
func TestMigrateRediskaWithDB(t *testing.T) {
	w, err := workloads.Get("rediska")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	for _, lazy := range []bool{false, true} {
		xeon := cluster.NewNode(cluster.XeonSpec)
		pi := cluster.NewNode(cluster.PiSpec)
		xeon.Install(w.Name, pair)
		pi.Install(w.Name, pair)
		p, err := xeon.Start(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		// Load 500 keys plus one marker, then let it block in recv.
		p.PushInput(workloads.RediskaLoad(500))
		p.PushInput(workloads.RediskaSet(42, 4242))
		for i := 0; i < 200000; i++ {
			st, err := xeon.K.Step(p)
			if err != nil {
				t.Fatal(err)
			}
			if st.Blocked == 1 && p.PendingInput() == 0 {
				break
			}
		}
		p.TakeOutput() // drain load replies

		res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{Lazy: lazy})
		if err != nil {
			t.Fatalf("lazy=%v: migrate: %v", lazy, err)
		}
		p2 := res.Proc
		if p2.Arch != isa.SARM {
			t.Fatalf("restored on %v", p2.Arch)
		}
		// Query the migrated database.
		get := func(key uint64) []uint64 {
			p2.PushInput(workloads.RediskaGet(key))
			for i := 0; i < 200000; i++ {
				if _, err := pi.K.Step(p2); err != nil {
					t.Fatalf("lazy=%v: step: %v", lazy, err)
				}
				if out := p2.TakeOutput(); len(out) > 0 {
					return workloads.ParseWords(out)
				}
			}
			t.Fatal("no response from migrated server")
			return nil
		}
		if r := get(42); r[0] != 1 || r[1] != 4242 {
			t.Errorf("lazy=%v: marker key -> %v", lazy, r)
		}
		if r := get(1000000 + 7*123); r[0] != 1 || r[1] != 123*123+3 {
			t.Errorf("lazy=%v: bulk key -> %v", lazy, r)
		}
		p2.PushInput(workloads.RediskaStats())
		var stats []uint64
		for i := 0; i < 200000; i++ {
			if _, err := pi.K.Step(p2); err != nil {
				t.Fatal(err)
			}
			if out := p2.TakeOutput(); len(out) > 0 {
				stats = workloads.ParseWords(out)
				break
			}
		}
		if len(stats) < 2 || stats[1] != 501 {
			t.Errorf("lazy=%v: stats after migration -> %v", lazy, stats)
		}
		p2.CloseInput()
		if err := pi.K.Run(p2); err != nil {
			t.Fatalf("lazy=%v: shutdown: %v", lazy, err)
		}
	}
}

// TestMigrateReverseDirection covers arm -> x86 for a representative
// subset (both directions are exercised exhaustively in internal/core).
func TestMigrateReverseDirection(t *testing.T) {
	for _, name := range []string{"cg", "kmeans", "blackscholes"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			pair, err := workloads.CompilePair(w, workloads.ClassS)
			if err != nil {
				t.Fatal(err)
			}
			ref := cluster.NewNode(cluster.PiSpec)
			ref.Install(name, pair)
			rp, err := ref.Start(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.K.Run(rp); err != nil {
				t.Fatal(err)
			}
			want := rp.ConsoleString()

			pi := cluster.NewNode(cluster.PiSpec)
			xeon := cluster.NewNode(cluster.XeonSpec)
			pi.Install(name, pair)
			xeon.Install(name, pair)
			p, err := pi.Start(name)
			if err != nil {
				t.Fatal(err)
			}
			alive, err := pi.K.RunBudget(p, rp.VCycles/2)
			if err != nil {
				t.Fatal(err)
			}
			if !alive {
				t.Skip("finished early")
			}
			res, err := cluster.Migrate(pi, xeon, p, pair.Meta, cluster.MigrateOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := xeon.K.Run(res.Proc); err != nil {
				t.Fatal(err)
			}
			if got := p.ConsoleString() + res.Proc.ConsoleString(); got != want {
				t.Errorf("arm->x86 output mismatch:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestClassAScaling (skipped with -short) runs a class-A workload on both
// architectures and migrates it, exercising large frames, big heaps, and
// the imm12 fallback paths in anger.
func TestClassAScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("class A is slow")
	}
	for _, name := range []string{"cg", "is"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			pair, err := workloads.CompilePair(w, workloads.ClassA)
			if err != nil {
				t.Fatal(err)
			}
			ref := cluster.NewNode(cluster.XeonSpec)
			ref.Install(name, pair)
			rp, err := ref.Start(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.K.Run(rp); err != nil {
				t.Fatal(err)
			}
			want := rp.ConsoleString()

			xeon := cluster.NewNode(cluster.XeonSpec)
			pi := cluster.NewNode(cluster.PiSpec)
			xeon.Install(name, pair)
			pi.Install(name, pair)
			p, err := xeon.Start(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := xeon.K.RunBudget(p, rp.VCycles/2); err != nil {
				t.Fatal(err)
			}
			res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := pi.K.Run(res.Proc); err != nil {
				t.Fatal(err)
			}
			if got := p.ConsoleString() + res.Proc.ConsoleString(); got != want {
				t.Errorf("class A migration mismatch:\n got %q\nwant %q", got, want)
			}
		})
	}
}
