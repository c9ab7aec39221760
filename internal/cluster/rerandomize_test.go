package cluster_test

import (
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// rerandSrc has functions with many same-size slots and stack arrays, so
// every shuffle has layouts to choose from.
const rerandSrc = `
func mix(a int, b int) int {
	var t1 int;
	var t2 int;
	var t3 int;
	var t4 int;
	var buf[8] int;
	var i int;
	t1 = a + b;
	t2 = a - b;
	t3 = a * 2;
	t4 = b * 3;
	for i = 0; i < 8; i = i + 1 {
		buf[i] = t1 + i * t2;
	}
	return buf[3] + t3 + t4 + buf[7];
}

func scan(p *int, n int) int {
	var acc int;
	var j int;
	for j = 0; j < n; j = j + 1 {
		acc = acc + p[j];
	}
	return acc;
}

func main() {
	var data[16] int;
	var r int;
	var out int;
	for r = 0; r < 25; r = r + 1 {
		data[r % 16] = mix(r, r + 2);
		out = out + scan(&data[0], 16);
		printi(out % 10000);
		print(" ");
	}
	print("fin\n");
}`

// rerandNode compiles rerandSrc, installs it on a fresh node of spec and
// starts it there, and returns the native run's output and cycle count,
// measured on a node of its own.
func rerandNode(t *testing.T, spec cluster.NodeSpec) (*cluster.Node, *kernel.Process, *compiler.Pair, string, uint64) {
	t.Helper()
	pair, err := compiler.Compile(rerandSrc)
	if err != nil {
		t.Fatal(err)
	}
	native := cluster.NewNode(spec)
	native.Install("rerand", pair)
	ref, err := native.Start("rerand")
	if err != nil {
		t.Fatal(err)
	}
	if err := native.K.Run(ref); err != nil {
		t.Fatal(err)
	}
	n := cluster.NewNode(spec)
	n.Install("rerand", pair)
	p, err := n.Start("rerand")
	if err != nil {
		t.Fatal(err)
	}
	return n, p, pair, ref.ConsoleString(), ref.VCycles
}

// TestPeriodicRerandomization is the paper's periodic stack
// re-randomization (§I): each epoch is a Migrate from a node to itself
// with a fresh shuffle seed. A program re-randomized three times
// mid-flight, with a plain same-architecture checkpoint/restore epoch
// among them, must print the native output whole, every source's console
// and the last process's together; each shuffle epoch must leave a new
// frame layout and the plain one the same; no epoch may ship (no
// cluster.transfer stage, no copy, no wire byte); and each must reap the
// process it restored from.
func TestPeriodicRerandomization(t *testing.T) {
	for _, spec := range []cluster.NodeSpec{cluster.XeonSpec, cluster.PiSpec} {
		t.Run(spec.Arch.String(), func(t *testing.T) {
			n, p, pair, want, cycles := rerandNode(t, spec)
			meta := pair.Meta
			var got strings.Builder
			layout := layoutSignature(meta, spec.Arch)
			for e, shuffle := range []bool{true, true, false, true} {
				if alive, err := n.K.RunBudget(p, cycles/8); err != nil || !alive {
					t.Fatalf("run to epoch %d: alive %v, err %v", e, alive, err)
				}
				reg := obs.New()
				res, err := cluster.Migrate(n, n, p, meta, cluster.MigrateOpts{Shuffle: shuffle, ShuffleSeed: 1000 + int64(e), Obs: reg})
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				stages := "monitor.pause criu.dump imgcheck.verify criu.restore kernel.reap"
				if shuffle {
					stages = strings.Replace(stages, "criu.restore", "core.shuffle criu.restore", 1)
				}
				rep := reg.Report()
				if host, _ := rep.Span("migrate.host"); childNames(rep, host.ID) != stages {
					t.Errorf("epoch %d: stages %q, want %q", e, childNames(rep, host.ID), stages)
				}
				got.WriteString(p.ConsoleString())
				p = res.Proc
				if bd := res.Breakdown; bd.Copy != 0 || bd.WireBytes != 0 || bd.ImageBytes == 0 {
					t.Errorf("epoch %d: copy %v, wire %dB, images %dB; want no copy, no wire byte and the image's size", e, bd.Copy, bd.WireBytes, bd.ImageBytes)
				}
				if live := n.K.Live(); live != 1 {
					t.Fatalf("epoch %d: %d processes live, want 1", e, live)
				}
				bin, err := n.Binaries.Open(p.ExePath)
				if err != nil {
					t.Fatal(err)
				}
				meta = bin.Meta // the next epoch unwinds the layout this one drew
				next := layoutSignature(meta, spec.Arch)
				if (next != layout) != shuffle {
					t.Errorf("epoch %d (shuffle %v): layout changed %v", e, shuffle, next != layout)
				}
				layout = next
			}
			if err := n.K.Run(p); err != nil {
				t.Fatalf("final run: %v", err)
			}
			if got.WriteString(p.ConsoleString()); got.String() != want {
				t.Errorf("output across the epochs:\n got %q\nwant %q", got.String(), want)
			}
		})
	}
}

// TestRerandomizeFailureLeavesSourcePaused: an epoch refused after its pause —
// here the shuffle, which finds no binary to instrument — names the stage
// that refused and hands the source back stopped and alone on its node,
// resumable to the native output.
func TestRerandomizeFailureLeavesSourcePaused(t *testing.T) {
	n, p, pair, want, cycles := rerandNode(t, cluster.XeonSpec)
	delete(n.Binaries, compiler.ExePath("rerand", isa.SX86))
	if alive, err := n.K.RunBudget(p, cycles/8); err != nil || !alive {
		t.Fatalf("run to the epoch: alive %v, err %v", alive, err)
	}
	_, err := cluster.Migrate(n, n, p, pair.Meta, cluster.MigrateOpts{Shuffle: true, ShuffleSeed: 1000})
	if err == nil || !strings.Contains(err.Error(), "core.shuffle") {
		t.Fatalf("epoch with no binary: err %v, want core.shuffle's refusal", err)
	}
	if !p.Stopped || p.Exited || n.K.Live() != 1 {
		t.Fatalf("after the refused epoch: stopped %v, exited %v, %d live; want the source alone, stopped", p.Stopped, p.Exited, n.K.Live())
	}
	if err := monitor.New(n.K, p, pair.Meta).ResumeLocal(); err != nil {
		t.Fatal(err)
	}
	if err := n.K.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsoleString(); got != want {
		t.Errorf("resumed source printed %q, want the native %q", got, want)
	}
}

// layoutSignature hashes the per-arch slot offsets of all app functions.
func layoutSignature(meta *stackmap.Metadata, arch isa.Arch) int64 {
	ai := stackmap.ArchIdx(arch)
	var h int64 = 1469598103
	for _, fn := range meta.Funcs {
		if fn.Wrapper {
			continue
		}
		for i := range fn.Slots {
			h = h*1099511628211 + int64(fn.Slots[i].ID)*31 + fn.Slots[i].Off[ai]
		}
	}
	return h
}
