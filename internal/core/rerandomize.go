package core

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// Rerandomizer drives the paper's periodic stack re-randomization (§I:
// "periodically re-randomizing the function call stack"): at each epoch it
// pauses the process at equivalence points, checkpoints it, applies a
// fresh stack shuffle to the image and the binary, and restores the
// process in place on the same kernel. Because each epoch rewrites from
// the *current* layout to a newly drawn one, an attacker's knowledge decays
// every interval.
type Rerandomizer struct {
	K        *kernel.Kernel
	Binaries criu.MapProvider
	// Meta tracks the process's CURRENT metadata (updated every epoch).
	Meta *stackmap.Metadata
	// Seed is advanced every epoch.
	Seed int64
	// Epochs counts completed re-randomizations.
	Epochs int
	// LastBits is the entropy introduced by the latest epoch.
	LastBits float64
}

// rerandomizeMaxPauses bounds each epoch's wait for quiescence.
const rerandomizeMaxPauses = 1 << 22

// Step performs one re-randomization epoch on p and returns the restored
// process, reaping p once it is restored. A Step that fails after its
// pause leaves p paused, and its error says so.
func (r *Rerandomizer) Step(p *kernel.Process) (*kernel.Process, error) {
	mon := monitor.New(r.K, p, r.Meta)
	if err := mon.Pause(rerandomizeMaxPauses); err != nil {
		return nil, fmt.Errorf("core: rerandomize epoch %d: %w", r.Epochs, err)
	}
	paused := func(err error) error {
		return fmt.Errorf("core: rerandomize epoch %d: %w (the source is left paused)", r.Epochs, err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		return nil, paused(err)
	}
	r.Seed++
	var report ShuffleReport
	pol := StackShufflePolicy{Seed: r.Seed, Report: &report}
	if err := pol.Rewrite(dir, &Context{Binaries: r.Binaries}); err != nil {
		return nil, paused(err)
	}
	np, err := criu.Restore(r.K, dir, r.Binaries)
	if err != nil {
		return nil, paused(err)
	}
	// The process now runs the freshly instrumented binary; subsequent
	// epochs must unwind with ITS metadata.
	bin, err := r.Binaries.Open(np.ExePath)
	if err != nil {
		r.K.Reap(np)
		return nil, paused(err)
	}
	r.K.Reap(p)
	r.Meta = bin.Meta
	r.Epochs++
	r.LastBits = report.AvgBitsApp
	return np, nil
}
