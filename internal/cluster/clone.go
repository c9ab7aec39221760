package cluster

import (
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/registry"
)

// CloneOpts controls a clone fan-out.
type CloneOpts struct {
	// Obs, if set, receives clone telemetry (clone.count,
	// clone.shared_frames, clone.restore_host_ns).
	Obs *obs.Registry
}

// CloneResult is one fan-out's outcome.
type CloneResult struct {
	// Procs holds one restored process per target node, in target order.
	Procs []*kernel.Process
	// SharedPages is how many pages each clone adopted, copy-on-write, from
	// the one pulled directory the clones share.
	SharedPages int
	// PullHost and RestoreHost are real host wall times for
	// materializing the image and restoring all clones.
	PullHost    time.Duration
	RestoreHost time.Duration
}

// CloneFromRegistry restores one stored checkpoint onto every target
// node — the serverless-style warm-start fan-out. The manifest is pulled
// once, verified, and then restored N times, each restore adopting its
// pages copy-on-write: all
// clones share one set of resident page frames until a clone's first
// write to a page privatizes its copy.
//
// Targets may repeat a node: each entry restores one clone onto that
// node's kernel. Every target must have the checkpoint's binary
// installed.
func CloneFromRegistry(store *registry.Store, manifest string, targets []*Node, opts CloneOpts) (*CloneResult, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("cluster: clone: no target nodes")
	}
	//lint:ignore wallclock clone latency is real host time by definition, reported separately from modeled migration time
	pullStart := time.Now()
	dir, err := store.Pull(manifest)
	if err != nil {
		return nil, fmt.Errorf("cluster: clone: %w", err)
	}
	// Pre-flight once for the whole fan-out: every chunk was re-hashed
	// inside Pull, but the store checks nothing about an image, so it must
	// satisfy every static invariant before it is installed anywhere.
	if err := imgcheck.Verify(dir); err != nil {
		return nil, fmt.Errorf("cluster: clone pre-flight: %w", err)
	}
	res := &CloneResult{
		Procs:       make([]*kernel.Process, len(targets)),
		SharedPages: criu.DumpedPages(dir),
	}
	//lint:ignore wallclock clone latency is real host time by definition, reported separately from modeled migration time
	res.PullHost = time.Since(pullStart)

	//lint:ignore wallclock clone latency is real host time by definition, reported separately from modeled migration time
	restoreStart := time.Now()
	for i, t := range targets {
		p, err := criu.RestoreWith(t.K, dir, t.Binaries, criu.RestoreOpts{Obs: opts.Obs})
		if err != nil {
			// Reap the clones that did land so a partial fan-out leaks nothing.
			for j, p := range res.Procs[:i] {
				targets[j].K.Reap(p)
			}
			return nil, fmt.Errorf("cluster: clone %d on %s: %w", i, t.Spec.Name, err)
		}
		res.Procs[i] = p
	}
	//lint:ignore wallclock clone latency is real host time by definition, reported separately from modeled migration time
	res.RestoreHost = time.Since(restoreStart)

	opts.Obs.Counter("clone.count").Add(uint64(len(targets)))
	opts.Obs.Counter("clone.shared_frames").Add(uint64(res.SharedPages))
	opts.Obs.Histogram("clone.restore_host_ns").Observe(res.RestoreHost)
	return res, nil
}
