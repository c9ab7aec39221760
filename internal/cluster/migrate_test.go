package cluster_test

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// migrateModes is every composition Migrate has, each with the stage
// names its "migrate.host" tree must carry, in order. round and downtime
// are the pre-copy windows; their own children are checked against
// roundStages/downtimeStages.
var migrateModes = []struct {
	name           string
	opts           cluster.MigrateOpts
	stages         string
	roundStages    string
	downtimeStages string
}{
	{
		name:   "vanilla",
		stages: "monitor.pause criu.dump imgcheck.verify core.rewrite cluster.transfer criu.restore kernel.reap",
	},
	{
		name:   "lazy",
		opts:   cluster.MigrateOpts{Lazy: true},
		stages: "monitor.pause criu.dump imgcheck.verify core.rewrite cluster.transfer criu.restore criu.lazy_setup",
	},
	{
		name:   "lazy-tcp",
		opts:   cluster.MigrateOpts{Lazy: true, LazyTCP: true},
		stages: "monitor.pause criu.dump imgcheck.verify core.rewrite cluster.transfer criu.restore criu.lazy_setup",
	},
	{
		name:   "shuffle",
		opts:   cluster.MigrateOpts{Shuffle: true, ShuffleSeed: 7},
		stages: "monitor.pause criu.dump imgcheck.verify core.rewrite core.shuffle cluster.transfer criu.restore kernel.reap",
	},
	{
		name:           "precopy",
		opts:           cluster.MigrateOpts{PreCopy: &cluster.PreCopyOpts{}},
		stages:         "round vm.between_rounds downtime kernel.reap",
		roundStages:    "monitor.pause criu.dump cluster.transfer imgcheck.verify monitor.resume",
		downtimeStages: "monitor.pause criu.dump_incr cluster.transfer imgcheck.verify imgcheck.verify criu.flatten core.rewrite criu.restore",
	},
	{
		name:           "precopy-tcp-delta-flate",
		opts:           cluster.MigrateOpts{PreCopy: &cluster.PreCopyOpts{TCP: true}, Delta: true, Codec: criu.CodecFlate},
		stages:         "cluster.listen round vm.between_rounds downtime kernel.reap",
		roundStages:    "monitor.pause criu.dump criu.advance_base cluster.send_recv imgcheck.verify monitor.resume",
		downtimeStages: "monitor.pause criu.dump_incr cluster.send_recv imgcheck.verify imgcheck.verify criu.flatten core.rewrite criu.restore",
	},
}

// migrateRediska loads a class-A rediska server with 4000 keys, migrates
// it xeon -> pi with opts, and returns the result. Pre-copy runs keep
// writes arriving between rounds, so the chain has real deltas.
func migrateRediska(t *testing.T, opts cluster.MigrateOpts) *cluster.MigrationResult {
	t.Helper()
	w, err := workloads.Get("rediska")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassA)
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
	p.PushInput(workloads.RediskaLoad(4000))
	for st, err := xeon.K.Step(p); st.Blocked != 1 || p.PendingInput() != 0; st, err = xeon.K.Step(p) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if opts.PreCopy != nil {
		pc := *opts.PreCopy
		pc.RunUntilIdle = true
		pc.BetweenRounds = func(p *kernel.Process, round int) {
			for i := uint64(0); i < 32; i++ {
				k := uint64(round)*32 + i
				p.PushInput(workloads.RediskaSet(1000000+7*k, k))
			}
		}
		opts.PreCopy = &pc
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := res.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return res
}

// childNames joins the names of a span's direct children.
func childNames(rep *obs.Report, id uint64) string {
	var names []string
	for _, ev := range rep.Children(id) {
		names = append(names, ev.Name)
	}
	return strings.Join(names, " ")
}

// collapseRounds reduces "round vm.between_rounds round vm.between_rounds
// downtime" to "round vm.between_rounds downtime": pre-copy runs a
// data-dependent number of rounds.
func collapseRounds(s string) string {
	const pair = "round vm.between_rounds "
	for strings.Contains(s, pair+pair) {
		s = strings.Replace(s, pair+pair, pair, 1)
	}
	return s
}

// descendants returns every span under id, depth first.
func descendants(rep *obs.Report, id uint64) []obs.SpanEvent {
	var out []obs.SpanEvent
	for _, ev := range rep.Children(id) {
		out = append(out, ev)
		out = append(out, descendants(rep, ev.ID)...)
	}
	return out
}

// TestMigrateHostSpans pins the shape of the wall-clock tree the real
// Migrate records: for every mode, exactly the stages that mode composes,
// in order, covering the root (the benchmark's trace.coverage, asserted on
// the pipeline itself instead of on a re-enactment), with host and modeled
// spans never under each other's root — and nothing at all, not even an
// allocation, when no registry is attached.
func TestMigrateHostSpans(t *testing.T) {
	for _, mode := range migrateModes {
		t.Run(mode.name, func(t *testing.T) {
			// The shape must hold on every run. Coverage is a host
			// measurement: a preemption or a collection landing between
			// two stages can only lower it, and the lazy migration is a
			// quarter of a millisecond long, so the best of three runs is
			// the pipeline's own figure.
			best := 0.0
			for run := 0; run < 3 && best < 0.95; run++ {
				opts := mode.opts
				opts.Obs = obs.New()
				migrateRediska(t, opts)
				rep := opts.Obs.Report()
				host, ok := rep.Span("migrate.host")
				if !ok {
					t.Fatal("no migrate.host span recorded")
				}
				checkHostTree(t, rep, host, mode.stages, mode.roundStages, mode.downtimeStages)
				cov := coverage(rep, host)
				for _, ev := range rep.Children(host.ID) {
					if ev.Name == "round" || ev.Name == "downtime" {
						cov = min(cov, coverage(rep, ev))
					}
				}
				if cov > 1 {
					t.Fatalf("stages sum to %.3f of the span holding them\n%s", cov, rep.Text())
				}
				t.Logf("run %d: stages cover %.3f of the %v root and of every window", run, cov, host.Dur())
				best = max(best, cov)
			}
			if best < 0.95 {
				t.Errorf("stages cover at best %.3f of their parent, want >= 0.95: Migrate spends time outside its stages", best)
			}
		})
	}
	t.Run("disabled", func(t *testing.T) {
		if n := cluster.DisabledStageAllocs(); n != 0 {
			t.Errorf("a stage on a nil registry allocates %v times, want 0", n)
		}
	})
}

// TestPreCopyFinalRoundSkipsAdvanceBase: the convergence decision is made
// once the dump returns, so only a round another round follows folds its
// link into the delta base. In a two-round Delta pre-copy
// criu.advance_base runs under the first window and never under the
// downtime window, and what crosses the link is byte for byte what it was
// when the final round folded its link as well.
func TestPreCopyFinalRoundSkipsAdvanceBase(t *testing.T) {
	opts := cluster.MigrateOpts{PreCopy: &cluster.PreCopyOpts{TCP: true}, Delta: true, Codec: criu.CodecFlate, Obs: obs.New()}
	bd := migrateRediska(t, opts).Breakdown
	if bd.Rounds != 2 {
		t.Fatalf("converged in %d rounds, want 2", bd.Rounds)
	}
	rep := opts.Obs.Report()
	host, _ := rep.Span("migrate.host")
	folds := map[string]int{}
	for _, w := range rep.Children(host.ID) {
		folds[w.Name] += strings.Count(childNames(rep, w.ID), "criu.advance_base")
	}
	if folds["round"] != 1 || folds["downtime"] != 0 {
		t.Errorf("criu.advance_base under round %d times, under downtime %d times; want 1 and 0", folds["round"], folds["downtime"])
	}
	if want := []uint64{preCopyRound0Wire, preCopyRound1Wire}; !slices.Equal(bd.RoundBytes, want) {
		t.Errorf("round wire bytes %v, want %v", bd.RoundBytes, want)
	}
	if bd.ImageBytes != preCopyFinalImage {
		t.Errorf("final image %d bytes, want %d", bd.ImageBytes, preCopyFinalImage)
	}
}

// The wire and image bytes of TestPreCopyFinalRoundSkipsAdvanceBase's
// migration, as measured when every round advanced the delta base — and
// round 0's again once flate-words stored lane-blocks as word
// differences, which took it from 28,498 bytes.
const (
	preCopyRound0Wire = 23684
	preCopyRound1Wire = 814
	preCopyFinalImage = 1561806
)

// coverage is the share of a span its direct children account for.
func coverage(rep *obs.Report, ev obs.SpanEvent) float64 {
	return float64(childSum(rep, ev.ID)) / float64(ev.Dur())
}

// checkHostTree asserts one report's host tree has exactly the given
// stages, one downtime window (pre-copy) strictly inside the root, and
// that host and modeled spans never hang under each other's root.
func checkHostTree(t *testing.T, rep *obs.Report, host obs.SpanEvent, stages, roundStages, downtimeStages string) {
	t.Helper()
	if got := collapseRounds(childNames(rep, host.ID)); got != stages {
		t.Errorf("host stages:\n got %s\nwant %s", got, stages)
	}
	windows := 0
	for _, ev := range rep.Children(host.ID) {
		got, want := childNames(rep, ev.ID), ""
		switch ev.Name {
		case "round":
			// Rounds after the first dump incrementally.
			got, want = strings.Replace(got, "criu.dump_incr", "criu.dump", 1), roundStages
		case "downtime":
			windows++
			want = downtimeStages
			if ev.Dur() <= 0 || ev.Dur() >= host.Dur() {
				t.Errorf("host downtime %v, want inside (0, root %v)", ev.Dur(), host.Dur())
			}
		}
		if got != want {
			t.Errorf("%s stages:\n got %s\nwant %s", ev.Name, got, want)
		}
	}
	if downtimeStages != "" && windows != 1 {
		t.Errorf("%d downtime windows under the host root, want exactly 1", windows)
	}

	// Host stages are named layer.call; modeled phases are bare words.
	// Neither kind hangs under the other's root.
	modeled, ok := rep.Span("migration")
	if !ok {
		t.Fatal("no migration span recorded")
	}
	for _, ev := range descendants(rep, modeled.ID) {
		if strings.Contains(ev.Name, ".") {
			t.Errorf("host span %q under the modeled root", ev.Name)
		}
	}
	for _, ev := range descendants(rep, host.ID) {
		if ev.Name != "round" && ev.Name != "downtime" && !strings.Contains(ev.Name, ".") {
			t.Errorf("modeled span %q under the host root", ev.Name)
		}
	}
}

// TestModeledDowntimeIsPhaseSum: in every mode the modeled downtime is
// checkpoint + recode + copy + restore — no overlap formula, no host time
// — in the Breakdown and in the modeled span tree alike.
func TestModeledDowntimeIsPhaseSum(t *testing.T) {
	for _, mode := range migrateModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := mode.opts
			opts.Obs = obs.New()
			bd := migrateRediska(t, opts).Breakdown
			sum := bd.Checkpoint + bd.Recode + bd.Copy + bd.Restore
			if bd.Downtime != sum || sum == 0 {
				t.Errorf("downtime %v, want the phase sum %v", bd.Downtime, sum)
			}
			if want := bd.PreCopyTime + sum; bd.MigrationTime() != want {
				t.Errorf("migration time %v, want pre-copy + phases = %v", bd.MigrationTime(), want)
			}
			rep := opts.Obs.Report()
			root, _ := rep.Span("migration")
			dt, ok := rep.Child(root.ID, "downtime")
			if !ok || dt.Dur() != sum {
				t.Errorf("modeled downtime span %v (present=%v), want %v", dt.Dur(), ok, sum)
			}
			if got := childNames(rep, dt.ID); got != "checkpoint recode copy restore" {
				t.Errorf("downtime phases %q, want checkpoint recode copy restore", got)
			}
			if got := childSum(rep, dt.ID); got != sum {
				t.Errorf("downtime phases sum to %v, want %v", got, sum)
			}
		})
	}
}

// TestPreCopyFailureStopsDirtyTracking: every pre-copy dump arms
// soft-dirty tracking on the source. A migration that fails after round 0
// — here at restore, on a destination without the binary — hands the
// source back, and must hand it back with tracking off: the caller's
// retry path resumes that process, and it must not run with every first
// store per page on the slow path. The resumed source finishes with the
// native output, nothing is left on the destination, and no receiver
// goroutine survives.
func TestPreCopyFailureStopsDirtyTracking(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "in-process"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			xeon, _, pair, kp := heapSetup(t, 4)
			bare := cluster.NewNode(cluster.PiSpec) // nothing installed
			goroutines := runtime.NumGoroutine()
			_, err := cluster.Migrate(xeon, bare, kp.p, pair.Meta, cluster.MigrateOpts{
				PreCopy: &cluster.PreCopyOpts{RoundBudget: kp.native/20 + 1, TCP: tcp},
			})
			if err == nil || !strings.Contains(err.Error(), "restore") {
				t.Fatalf("migration to a node without the binary: err %v, want a restore refusal", err)
			}
			handedBack(t, xeon, bare, kp, pair, goroutines)
		})
	}
}

// handedBack is what every failed pre-copy owes its caller: the source
// with soft-dirty tracking off, resumable to the native output; nothing on
// the destination; and no goroutine — the image receiver's, over TCP —
// beyond the count taken before the migration.
func handedBack(t *testing.T, src, dst *cluster.Node, kp *kernelProc, pair *compiler.Pair, goroutines int) {
	t.Helper()
	if kp.p.AS.DirtyTracking() {
		t.Error("soft-dirty tracking still armed on the source after the failure")
	}
	if n := dst.K.Live(); n != 0 {
		t.Errorf("%d processes left on the destination", n)
	}
	if err := monitor.New(src.K, kp.p, pair.Meta).ResumeLocal(); err != nil {
		t.Fatal(err)
	}
	if err := src.K.Run(kp.p); err != nil {
		t.Fatal(err)
	}
	if got := kp.p.ConsoleString(); got != kp.nativeOut {
		t.Errorf("resumed source printed %q, want the native %q", got, kp.nativeOut)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the failure, %d before", n, goroutines)
	}
}

// TestPreCopyRefusedLinkHandsBack: the two refusals a link can meet on the
// destination leave the same state behind as a failed restore does. A
// round whose link does not fold — here because the destination lost the
// chain it had, so round 1's in_parent pages have nothing older — is
// refused inside that round by inparent-chain; a final link whose address
// space does not check — an sx86 core with a value beyond its eight
// registers, planted in the running source — is refused in the downtime
// window's verify by core-regs. Both over TCP, where the refusal must not
// strand the receiver.
func TestPreCopyRefusedLinkHandsBack(t *testing.T) {
	t.Run("round", func(t *testing.T) {
		xeon, pi, pair, kp := heapSetup(t, 4)
		goroutines := runtime.NumGoroutine()
		err := cluster.PreCopyForgettingChain(xeon, pi, kp.p, pair.Meta, cluster.MigrateOpts{
			PreCopy: &cluster.PreCopyOpts{RoundBudget: kp.native/20 + 1, TCP: true}, Delta: true,
		})
		if err == nil || !strings.Contains(err.Error(), "round 1: imgcheck.verify") || !strings.Contains(err.Error(), imgcheck.InvInParent) {
			t.Fatalf("err %v, want round 1's verify refusing by %s", err, imgcheck.InvInParent)
		}
		handedBack(t, xeon, pi, kp, pair, goroutines)
	})
	t.Run("newest", func(t *testing.T) {
		xeon, pi, pair, kp := heapSetup(t, 4)
		goroutines := runtime.NumGoroutine()
		_, err := cluster.Migrate(xeon, pi, kp.p, pair.Meta, cluster.MigrateOpts{
			PreCopy: &cluster.PreCopyOpts{RoundBudget: kp.native/20 + 1, TCP: true, BetweenRounds: func(p *kernel.Process, _ int) {
				for _, th := range p.Threads {
					th.Regs.R[12] = 7 // sx86 code never reads or writes it
				}
			}},
		})
		if err == nil || !strings.Contains(err.Error(), "imgcheck.verify") || !strings.Contains(err.Error(), imgcheck.InvCoreRegs) {
			t.Fatalf("err %v, want the final verify refusing by %s", err, imgcheck.InvCoreRegs)
		}
		if strings.Contains(err.Error(), "round") {
			t.Errorf("refused inside a round, want the downtime window: %v", err)
		}
		handedBack(t, xeon, pi, kp, pair, goroutines)
	})
}
