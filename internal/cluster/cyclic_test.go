package cluster_test

import (
	"errors"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// TestMigrateRefusesCyclicFrameChain: stopAndCopy rewrites before it runs
// the target-binary verifier, so a frame chain that links back into itself
// — here planted in the paused source's own stack, where the dump picks it
// up — reaches the rewriter's unwind first. It must come back as the
// walker's named refusal, promptly, with the source still parked where it
// was: once its stack word is put back it resumes to the native result.
func TestMigrateRefusesCyclicFrameChain(t *testing.T) {
	pair, err := compiler.Compile(`
func fib(n int) int {
	if n < 2 { return n; }
	return fib(n-1) + fib(n-2);
}
func main() {
	printi(fib(19));
	print("\n");
}`)
	if err != nil {
		t.Fatal(err)
	}
	xeon, pi := cluster.NewNode(cluster.XeonSpec), cluster.NewNode(cluster.PiSpec)
	xeon.Install("work", pair)
	pi.Install("work", pair)
	want := nativeOut(t, xeon)

	for _, opts := range []cluster.MigrateOpts{{}, {Shuffle: true, ShuffleSeed: 5}} {
		p, err := xeon.Start("work")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xeon.K.RunBudget(p, 100_000); err != nil {
			t.Fatal(err)
		}
		mon := monitor.New(xeon.K, p, pair.Meta)
		if err := mon.Pause(1 << 20); err != nil {
			t.Fatal(err)
		}
		fp := p.Threads[0].Regs.R[isa.ABIFor(isa.SX86).FP]
		saved, err := p.AS.ReadU64(fp)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AS.WriteU64(fp, fp); err != nil {
			t.Fatal(err)
		}

		done := make(chan error, 1)
		go func() {
			_, err := cluster.Migrate(xeon, pi, p, pair.Meta, opts)
			done <- err
		}()
		select {
		case err = <-done:
		case <-time.After(time.Second):
			t.Fatal("Migrate still running after 1s on a cyclic frame chain")
		}
		var refusal *stackmap.Refusal
		if !errors.As(err, &refusal) || refusal.Name != stackmap.RefuseDepth {
			t.Fatalf("shuffle=%v: want a %s refusal, got: %v", opts.Shuffle, stackmap.RefuseDepth, err)
		}

		if err := p.AS.WriteU64(fp, saved); err != nil {
			t.Fatal(err)
		}
		if err := mon.ResumeLocal(); err != nil {
			t.Fatal(err)
		}
		if err := xeon.K.Run(p); err != nil {
			t.Fatal(err)
		}
		if got := p.ConsoleString(); got != want {
			t.Errorf("shuffle=%v: source resumed to %q, want %q", opts.Shuffle, got, want)
		}
	}
}
