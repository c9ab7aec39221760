package core_test

import (
	"errors"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

const fibSrc = `
func fib(n int) int {
	if n < 2 { return n; }
	return fib(n-1) + fib(n-2);
}
func main() {
	printi(fib(19));
	print("\n");
}`

// within fails the test if fn is still running after a second: a walk
// that never ends must fail the test, not hang the suite.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatalf("%s still running after 1s", what)
		return nil
	}
}

// TestRewriteRefusesCyclicFrameChain: a dump whose innermost caller frame
// has its saved FP linked to itself passes every structural check — the
// word is inside a mapped, dumped stack page — and used to send
// RewriteThread's unwind round the same frame until memory ran out. The
// walk is bounded now: every policy refuses the image by name, quickly,
// the verifier refuses it under the same name, and the source process,
// which nothing touched, runs on to the native result.
func TestRewriteRefusesCyclicFrameChain(t *testing.T) {
	w := buildWorld(t, "fib", fibSrc)
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		want, cycles := w.runNative(t, arch, 1)
		k, p := w.start(t, arch, 1)
		if alive, err := k.RunBudget(p, cycles/2); err != nil || !alive {
			t.Fatalf("%v: alive=%v err=%v", arch, alive, err)
		}
		mon := monitor.New(k, p, w.pair.Meta)
		if err := mon.Pause(1 << 20); err != nil {
			t.Fatal(err)
		}
		dir, err := criu.Dump(p, criu.DumpOpts{})
		if err != nil {
			t.Fatal(err)
		}
		// [fp] = fp, in the image only.
		v := image.Open(dir)
		c, err := v.Core(p.Threads[0].TID)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := v.PageSet()
		if err != nil {
			t.Fatal(err)
		}
		fp := c.Regs.R[isa.ABIFor(arch).FP]
		if err := ps.WriteU64(fp, fp); err != nil {
			t.Fatal(err)
		}
		v.Commit()
		if err := imgcheck.Verify(dir); err != nil {
			t.Fatalf("%v: the crafted image should be structurally sound: %v", arch, err)
		}
		blob := dir.Marshal()

		bin := w.pair.ByArch(arch)
		if err := imgcheck.VerifyTargetBinary(dir, bin); err == nil {
			t.Errorf("%v: VerifyTargetBinary accepted a cyclic frame chain", arch)
		}
		for _, pol := range []core.Policy{core.CrossISAPolicy{}, core.StackShufflePolicy{Seed: 3}} {
			crafted, err := criu.UnmarshalImageDir(blob)
			if err != nil {
				t.Fatal(err)
			}
			// Shuffle registers a binary on success; give each run its own
			// provider so a wrongly accepted image cannot poison the next.
			bins := criu.MapProvider{
				compiler.ExePath("fib", isa.SX86): w.pair.X86,
				compiler.ExePath("fib", isa.SARM): w.pair.ARM,
			}
			err = within(t, pol.Name(), func() error { return pol.Rewrite(crafted, &core.Context{Binaries: bins}) })
			var refusal *stackmap.Refusal
			if !errors.As(err, &refusal) || refusal.Name != stackmap.RefuseDepth {
				t.Errorf("%v/%s: want a %s refusal, got: %v", arch, pol.Name(), stackmap.RefuseDepth, err)
			}
			if got := crafted.Marshal(); string(got) != string(blob) {
				t.Errorf("%v/%s: a refused rewrite changed the directory", arch, pol.Name())
			}
		}

		if err := mon.ResumeLocal(); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(p); err != nil {
			t.Fatal(err)
		}
		if got := p.ConsoleString(); got != want {
			t.Errorf("%v: source resumed to %q, want %q", arch, got, want)
		}
	}
}
