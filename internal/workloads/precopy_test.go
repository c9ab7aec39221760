package workloads_test

import (
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestPreCopyMigrateBatches is the pre-copy headline invariant, property-
// tested across every batch workload and two checkpoint fractions: output
// after an iterative pre-copy migration must be byte-identical to the
// uninterrupted native run.
func TestPreCopyMigrateBatches(t *testing.T) {
	for _, w := range workloads.All() {
		if w.Kind != workloads.Batch {
			continue
		}
		for _, frac := range []uint64{3, 6} { // tenths of the native run
			w, frac := w, frac
			t.Run(w.Name+"-0."+string('0'+rune(frac)), func(t *testing.T) {
				t.Parallel()
				pair, err := workloads.CompilePair(w, workloads.ClassS)
				if err != nil {
					t.Fatal(err)
				}
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
				alive, err := xeon.K.RunBudget(p, rp.VCycles*frac/10)
				if err != nil {
					t.Fatal(err)
				}
				if !alive {
					t.Skip("finished before the checkpoint point")
				}
				res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
					PreCopy: &cluster.PreCopyOpts{RoundBudget: rp.VCycles/20 + 1},
				})
				if err != nil {
					t.Fatalf("pre-copy migrate: %v", err)
				}
				if err := pi.K.Run(res.Proc); err != nil {
					t.Fatalf("post-migration: %v\n%s", err, res.Proc.ConsoleString())
				}
				if got := p.ConsoleString() + res.Proc.ConsoleString(); got != want {
					t.Errorf("output mismatch after pre-copy migration:\n got %q\nwant %q", got, want)
				}
				bd := res.Breakdown
				if bd.Rounds < 1 || bd.Rounds != len(bd.RoundBytes) {
					t.Errorf("rounds=%d but %d round sizes recorded", bd.Rounds, len(bd.RoundBytes))
				}
				if bd.Downtime != bd.Checkpoint+bd.Recode+bd.Copy+bd.Restore {
					t.Errorf("downtime %v is not the sum of its pause components", bd.Downtime)
				}
				if bd.MigrationTime() < bd.Downtime {
					t.Errorf("total %v below downtime %v", bd.MigrationTime(), bd.Downtime)
				}
			})
		}
	}
}

// drainRediska steps until the server blocks in recv with its input queue
// empty.
func drainRediska(t *testing.T, n *cluster.Node, p *kernel.Process) {
	t.Helper()
	for i := 0; i < 5_000_000; i++ {
		st, err := n.K.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Blocked == 1 && p.PendingInput() == 0 {
			return
		}
	}
	t.Fatal("rediska did not quiesce")
}

// TestPreCopyRediskaLiveTraffic migrates the KV server while write batches
// keep arriving between rounds — the scenario pre-copy exists for — and
// requires the full reply stream (source + destination) to be byte-identical
// to a native run fed the same command sequence.
func TestPreCopyRediskaLiveTraffic(t *testing.T) {
	w, err := workloads.Get("rediska")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	const db = 400
	const nbatch, perBatch = 8, 16
	batch := func(j int) [][]byte {
		var cmds [][]byte
		for i := 0; i < perBatch; i++ {
			cmds = append(cmds, workloads.RediskaSet(uint64(5000+j*perBatch+i), uint64(j*1000+i)))
		}
		return cmds
	}

	// Native reference: same load + batches, uninterrupted.
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install(w.Name, pair)
	rp, err := ref.Start(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	rp.PushInput(workloads.RediskaLoad(db))
	for j := 0; j < nbatch; j++ {
		for _, c := range batch(j) {
			rp.PushInput(c)
		}
	}
	rp.CloseInput()
	if err := ref.K.Run(rp); err != nil {
		t.Fatal(err)
	}
	want := string(rp.TakeOutput())

	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install(w.Name, pair)
	pi.Install(w.Name, pair)
	p, err := xeon.Start(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	p.PushInput(workloads.RediskaLoad(db))
	drainRediska(t, xeon, p)

	next := 0
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		PreCopy: &cluster.PreCopyOpts{
			RunUntilIdle: true,
			BetweenRounds: func(p *kernel.Process, round int) {
				if next < nbatch {
					for _, c := range batch(next) {
						p.PushInput(c)
					}
					next++
				}
			},
		},
	})
	if err != nil {
		t.Fatalf("pre-copy migrate: %v", err)
	}
	if res.Breakdown.Rounds < 2 {
		t.Errorf("live traffic converged in %d round(s); expected iteration", res.Breakdown.Rounds)
	}
	if res.Breakdown.PreCopyBytes == 0 {
		t.Error("no pre-copy bytes recorded")
	}
	got := string(p.TakeOutput()) // load + pre-migration batch replies
	for ; next < nbatch; next++ {
		for _, c := range batch(next) {
			res.Proc.PushInput(c)
		}
	}
	res.Proc.CloseInput()
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatalf("post-migration: %v", err)
	}
	got += string(res.Proc.TakeOutput())
	if got != want {
		t.Errorf("reply stream diverged: got %d bytes, want %d bytes", len(got), len(want))
	}
}

// TestPreCopyTCPTransport ships every round over the real image transport.
func TestPreCopyTCPTransport(t *testing.T) {
	w, err := workloads.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install(w.Name, pair)
	rp, err := ref.Start(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.K.Run(rp); err != nil {
		t.Fatal(err)
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
	if _, err := xeon.K.RunBudget(p, rp.VCycles/2); err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		PreCopy: &cluster.PreCopyOpts{RoundBudget: rp.VCycles/20 + 1, TCP: true},
	})
	if err != nil {
		t.Fatalf("pre-copy over TCP: %v", err)
	}
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsoleString() + res.Proc.ConsoleString(); got != want {
		t.Errorf("TCP pre-copy output mismatch:\n got %q\nwant %q", got, want)
	}
}

// TestPreCopyDowntimeBelowVanilla is the economic claim: for a stateful
// server, pausing only for the final delta must beat stop-and-copy downtime.
func TestPreCopyDowntimeBelowVanilla(t *testing.T) {
	w, err := workloads.Get("rediska")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	const db = 1500
	run := func(pre bool) *cluster.Breakdown {
		xeon := cluster.NewNode(cluster.XeonSpec)
		pi := cluster.NewNode(cluster.PiSpec)
		xeon.Install(w.Name, pair)
		pi.Install(w.Name, pair)
		p, err := xeon.Start(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		p.PushInput(workloads.RediskaLoad(db))
		drainRediska(t, xeon, p)
		p.TakeOutput()
		opts := cluster.MigrateOpts{}
		if pre {
			opts.PreCopy = &cluster.PreCopyOpts{
				RunUntilIdle: true,
				BetweenRounds: func(p *kernel.Process, round int) {
					for i := uint64(0); i < 32; i++ {
						p.PushInput(workloads.RediskaSet(1000000+7*(uint64(round)*32+i), i))
					}
				},
			}
		}
		res, err := cluster.Migrate(xeon, pi, p, pair.Meta, opts)
		if err != nil {
			t.Fatalf("pre=%v: %v", pre, err)
		}
		res.Proc.CloseInput()
		if err := pi.K.Run(res.Proc); err != nil {
			t.Fatalf("pre=%v: shutdown: %v", pre, err)
		}
		return &res.Breakdown
	}
	vanilla := run(false)
	pre := run(true)
	if vanilla.Downtime != vanilla.Total() || vanilla.Rounds != 1 {
		t.Errorf("vanilla downtime=%v total=%v rounds=%d; want downtime==total, 1 round",
			vanilla.Downtime, vanilla.Total(), vanilla.Rounds)
	}
	if pre.Downtime >= vanilla.Downtime {
		t.Errorf("pre-copy downtime %v not below vanilla %v", pre.Downtime, vanilla.Downtime)
	}
}

// TestLazyDowntimePopulated: post-copy also reports its pause window now.
func TestLazyDowntimePopulated(t *testing.T) {
	w, err := workloads.Get("mg")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install(w.Name, pair)
	rp, err := ref.Start(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.K.Run(rp); err != nil {
		t.Fatal(err)
	}
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
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	bd := res.Breakdown
	if bd.Downtime == 0 || bd.Downtime != bd.Total() || bd.Rounds != 1 {
		t.Errorf("lazy downtime=%v total=%v rounds=%d; want downtime==total>0, 1 round",
			bd.Downtime, bd.Total(), bd.Rounds)
	}
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
}

// TestPreCopyLazyConflict: the two modes are mutually exclusive.
func TestPreCopyLazyConflict(t *testing.T) {
	w, err := workloads.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install(w.Name, pair)
	pi.Install(w.Name, pair)
	p, err := xeon.Start(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, 100_000); err != nil {
		t.Fatal(err)
	}
	_, err = cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		Lazy:    true,
		PreCopy: &cluster.PreCopyOpts{},
	})
	if err == nil {
		t.Fatal("lazy+pre-copy migration succeeded; want an error")
	}
}
