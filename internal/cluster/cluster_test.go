package cluster_test

import (
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
)

const workSrc = `
func crunch(n int) int {
	var acc int;
	var i int;
	for i = 0; i < n; i = i + 1 {
		acc = acc + i * i % 1013;
	}
	return acc;
}
func main() {
	var r int;
	var total int;
	for r = 0; r < 30; r = r + 1 {
		total = total + crunch(500);
	}
	printi(total);
	print("\n");
}`

func setup(t *testing.T) (*cluster.Node, *cluster.Node, *compiler.Pair) {
	t.Helper()
	pair, err := compiler.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install("work", pair)
	pi.Install("work", pair)
	return xeon, pi, pair
}

func nativeOut(t *testing.T, n *cluster.Node) string {
	t.Helper()
	p, err := n.Start("work")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.K.Run(p); err != nil {
		t.Fatal(err)
	}
	return p.ConsoleString()
}

func TestMigrateAcrossNodes(t *testing.T) {
	xeon, pi, pair := setup(t)
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("work", pair)
	want := nativeOut(t, ref)

	p, err := xeon.Start("work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, 200_000); err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
	got := p.ConsoleString() + res.Proc.ConsoleString()
	if got != want {
		t.Errorf("migrated output %q, want %q", got, want)
	}
	bd := res.Breakdown
	if bd.Checkpoint <= 0 || bd.Recode <= 0 || bd.Copy <= 0 || bd.Restore <= 0 {
		t.Errorf("breakdown has non-positive phases: %+v", bd)
	}
	if bd.ImageBytes == 0 {
		t.Error("no image bytes recorded")
	}
}

func TestLazyMigrationBreakdownSmaller(t *testing.T) {
	// Post-copy must move far fewer bytes up front than vanilla for a
	// heap-heavy program.
	// The loops call helpers so equivalence points occur inside them
	// (checkers only exist at function boundaries).
	src := `
func put(p *int, i int) { p[i] = i; }
func get(p *int, i int) int { return p[i]; }
func main() {
	var p *int;
	var i int;
	var s int;
	p = alloc(8 * 20000);
	for i = 0; i < 20000; i = i + 1 { put(p, i); }
	for i = 0; i < 20000; i = i + 1 { s = s + get(p, i); }
	printi(s);
	print("\n");
}`
	pair, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Measure total native cycles so the checkpoint lands mid-computation.
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("heapy", pair)
	refProc, err := ref.Start("heapy")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.K.Run(refProc); err != nil {
		t.Fatal(err)
	}
	budget := refProc.VCycles * 2 / 5

	run := func(lazy bool) (*cluster.MigrationResult, string, *kernel.Process) {
		xeon := cluster.NewNode(cluster.XeonSpec)
		pi := cluster.NewNode(cluster.PiSpec)
		xeon.Install("heapy", pair)
		pi.Install("heapy", pair)
		p, err := xeon.Start("heapy")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xeon.K.RunBudget(p, budget); err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{Lazy: lazy})
		if err != nil {
			t.Fatal(err)
		}
		if err := pi.K.Run(res.Proc); err != nil {
			t.Fatal(err)
		}
		return res, p.ConsoleString() + res.Proc.ConsoleString(), p
	}
	vanilla, outV, _ := run(false)
	lazy, outL, _ := run(true)
	if outV != outL {
		t.Fatalf("outputs differ: %q vs %q", outV, outL)
	}
	if lazy.Breakdown.ImageBytes >= vanilla.Breakdown.ImageBytes {
		t.Errorf("lazy images (%d B) not smaller than vanilla (%d B)",
			lazy.Breakdown.ImageBytes, vanilla.Breakdown.ImageBytes)
	}
	if lazy.Breakdown.Copy >= vanilla.Breakdown.Copy {
		t.Errorf("lazy copy %v not faster than vanilla %v", lazy.Breakdown.Copy, vanilla.Breakdown.Copy)
	}
	if lazy.Source == nil {
		t.Fatal("lazy migration did not keep a page source")
	}
	if lazy.Source.Stats().Requests == 0 {
		t.Error("no pages were served on demand")
	}
}

func TestTimingModelShape(t *testing.T) {
	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	// Recode on the Pi must be ~4x slower than on the Xeon for the same
	// images (the paper's 254 ms vs 1005 ms asymmetry).
	rx := cluster.RecodeTime(xeon, 10<<20)
	rp := cluster.RecodeTime(pi, 10<<20)
	ratio := rp.Seconds() / rx.Seconds()
	if ratio < 2 || ratio > 6 {
		t.Errorf("recode ratio pi/xeon = %.2f, want ~2.5x-4x", ratio)
	}
	// Checkpoint and restore stay under ~30ms for typical image sizes.
	if c := cluster.CheckpointTime(20 << 20); c.Milliseconds() > 30 {
		t.Errorf("checkpoint %v too slow for 20 MiB", c)
	}
	if r := cluster.RestoreTime(20<<20, false); r.Milliseconds() > 30 {
		t.Errorf("restore %v too slow for 20 MiB", r)
	}
	// InfiniBand copies ~100 MiB in roughly 300 ms.
	ct := cluster.InfiniBand.TransferTime(100 << 20)
	if ct.Milliseconds() < 150 || ct.Milliseconds() > 600 {
		t.Errorf("IB copy of 100 MiB = %v, want ~300ms", ct)
	}
	// Power model endpoints from the paper.
	if w := cluster.XeonSpec.PowerW(7); w < 100 || w > 115 {
		t.Errorf("Xeon @7 threads = %.1f W, want ~108", w)
	}
	if w := cluster.PiSpec.PowerW(3); w < 4.5 || w > 6 {
		t.Errorf("Pi @3 threads = %.1f W, want ~5.1", w)
	}
}

// TestMigrateWithShuffle chains a stack shuffle into the cross-node
// migration: output must still match, and the destination's binary must
// carry a different frame layout.
func TestMigrateWithShuffle(t *testing.T) {
	xeon, pi, pair := setup(t)
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("work", pair)
	want := nativeOut(t, ref)

	p, err := xeon.Start("work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, 200_000); err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{Shuffle: true, ShuffleSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsoleString() + res.Proc.ConsoleString(); got != want {
		t.Errorf("shuffled migration output %q, want %q", got, want)
	}
	// The destination provider now serves an instrumented binary whose
	// metadata differs from the original.
	shuffled, err := pi.Binaries.Open(res.Proc.ExePath)
	if err != nil {
		t.Fatal(err)
	}
	if shuffled.Meta == pair.Meta {
		t.Error("destination still serves the unshuffled metadata")
	}
}

// TestMigrateRefusesOptionsWithoutLazy: the page transport's options act
// only on a lazy migration's faults, so Migrate refuses each of them
// without Lazy, by name, before it touches the process — which then runs
// on to the native output.
func TestMigrateRefusesOptionsWithoutLazy(t *testing.T) {
	xeon, pi, pair := setup(t)
	want := nativeOut(t, xeon)
	for _, tc := range []struct {
		name string
		opts cluster.MigrateOpts
		want string
	}{
		{"LazyTCP", cluster.MigrateOpts{LazyTCP: true}, "LazyTCP requires lazy migration"},
		{"Faults", cluster.MigrateOpts{Faults: &criu.FaultSpec{FailRate: 1}}, "fault injection (Faults) requires lazy migration"},
		{"PageClient", cluster.MigrateOpts{PageClient: &criu.PageClientOpts{MaxRetries: 1}}, "PageClient options require lazy migration"},
		{"PageClient with pre-copy", cluster.MigrateOpts{PreCopy: &cluster.PreCopyOpts{}, PageClient: &criu.PageClientOpts{}}, "PageClient options require lazy migration"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := xeon.Start("work")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := xeon.K.RunBudget(p, 100_000); err != nil {
				t.Fatal(err)
			}
			_, err = cluster.Migrate(xeon, pi, p, pair.Meta, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Migrate: %v, want a refusal naming %q", err, tc.want)
			}
			if err := xeon.K.Run(p); err != nil {
				t.Fatal(err)
			}
			if got := p.ConsoleString(); got != want {
				t.Errorf("source after the refusal printed %q, want the native %q", got, want)
			}
		})
	}
}
