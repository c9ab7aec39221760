package cluster_test

import (
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/obs"
)

// dupWorkSrc prefixes the compute loop with a fill that leaves the big
// array full of byte-identical 4K pages (the pattern repeats every 512
// ints = one page), so a dedup-aware dump has real savings to find.
const dupWorkSrc = `
var data[8192] int;
func fill() {
	var i int;
	for i = 0; i < 8192; i = i + 1 {
		data[i] = (i % 512) + 3;
	}
}
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
	fill();
	for r = 0; r < 30; r = r + 1 {
		total = total + crunch(500);
	}
	total = total + data[5000];
	printi(total);
	print("\n");
}`

func setupDup(t *testing.T) (*cluster.Node, *cluster.Node, *compiler.Pair) {
	t.Helper()
	pair, err := compiler.Compile(dupWorkSrc)
	if err != nil {
		t.Fatal(err)
	}
	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install("work", pair)
	pi.Install("work", pair)
	return xeon, pi, pair
}

// TestMigrateParallelDedupIdentity runs the full migration pipeline with
// every parallel stage fanned out and dedup enabled — the tentpole
// configuration — and checks three things: the migrated run's output is
// identical to native, the modeled breakdown is identical to the serial
// pipeline's (parallelism must never leak into modeled time), and the
// dedup counters actually fired.
func TestMigrateParallelDedupIdentity(t *testing.T) {
	ref := func() string {
		xeon, _, _ := setupDup(t)
		return nativeOut(t, xeon)
	}()

	run := func(workers int, dedup, shuffle bool) (string, cluster.Breakdown, *obs.Registry) {
		xeon, pi, pair := setupDup(t)
		p, err := xeon.Start("work")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xeon.K.RunBudget(p, 300_000); err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
			Workers: workers, Dedup: dedup, Shuffle: shuffle, Obs: reg,
		})
		if err != nil {
			t.Fatalf("workers=%d dedup=%v: %v", workers, dedup, err)
		}
		if err := pi.K.Run(res.Proc); err != nil {
			t.Fatal(err)
		}
		return p.ConsoleString() + res.Proc.ConsoleString(), res.Breakdown, reg
	}

	serialOut, serialBD, _ := run(1, true, false)
	parOut, parBD, reg := run(8, true, false)
	if serialOut != ref || parOut != ref {
		t.Fatalf("migrated output differs from native %q:\nserial %q\nparallel %q", ref, serialOut, parOut)
	}
	if serialBD.Downtime != parBD.Downtime {
		t.Errorf("modeled downtime depends on worker count: serial %v vs parallel %v",
			serialBD.Downtime, parBD.Downtime)
	}
	if reg.Counter("dedup.pages_elided").Value() == 0 {
		t.Error("parallel dedup migration elided no pages")
	}
	if reg.Counter("dedup.bytes_saved").Value() == 0 {
		t.Error("parallel dedup migration saved no bytes")
	}
	if reg.Counter("dump.shards").Value() == 0 {
		t.Error("parallel dump recorded no shards")
	}

	// The shuffle policy chains a second rewrite over the same cores; the
	// result must still be a restorable image.
	shufOut, _, _ := run(8, true, true)
	if shufOut != ref {
		t.Errorf("parallel shuffled migration output %q, want %q", shufOut, ref)
	}
}

// TestPreCopyParallelDedup exercises the iterative pre-copy path with
// workers and dedup on: every round's dump, verify, and rewrite runs
// through the parallel pipeline, and the result must still match native.
func TestPreCopyParallelDedup(t *testing.T) {
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
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		Workers: 8, Dedup: true,
		PreCopy: &cluster.PreCopyOpts{RoundBudget: 50_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsoleString() + res.Proc.ConsoleString(); got != want {
		t.Errorf("pre-copy parallel output %q, want %q", got, want)
	}
}
