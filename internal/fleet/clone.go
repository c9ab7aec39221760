package fleet

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/cluster"
)

// Clone jobs are the fleet face of the registry's copy-on-write restore
// path: one stored checkpoint manifest fanned out onto a node as N
// processes sharing resident page frames until first write. A clone job
// runs the same lifecycle as a migration job (schedule, runJob, settle,
// retire); only its placement and its attempt differ. There is no live
// source process, so placement picks a destination alone — the "source"
// is the manifest, which the registry never deletes.

// checkManifest refuses a clone job the manager could not run: one with
// no configured registry to restore from, or whose manifest the registry
// lacks. Submit runs it on every clone job, NewManager on every replayed
// pending one, so attemptClone never meets either.
func (m *Manager) checkManifest(manifest string) error {
	if m.cfg.Registry == nil {
		return fmt.Errorf("clone job needs a configured registry")
	}
	if m.cfg.Registry.Manifest(manifest) == nil {
		return fmt.Errorf("unknown manifest %.12s", manifest)
	}
	return nil
}

// attemptClone restores the manifest onto dst Clone times and runs every
// clone to completion. All clones must produce byte-identical output —
// the fan-out analogue of the migration path's native-reference check.
// The clones are reaped once compared. Every failure is retryable.
func (m *Manager) attemptClone(job *Job, dst *NodeState) error {
	targets := make([]*cluster.Node, job.Spec.Clone)
	for i := range targets {
		targets[i] = dst.Node
	}
	res, err := cluster.CloneFromRegistry(m.cfg.Registry, job.Spec.Manifest, targets, cluster.CloneOpts{Obs: m.reg})
	if err != nil {
		return retryable{fmt.Errorf("fleet: clone %.12s onto %s: %w", job.Spec.Manifest, dst.Name, err)}
	}
	defer func() {
		for _, p := range res.Procs {
			dst.Node.K.Reap(p)
		}
	}()
	var out string
	for i, p := range res.Procs {
		if err := dst.Node.K.Run(p); err != nil {
			return retryable{fmt.Errorf("fleet: run clone %d on %s: %w", i, dst.Name, err)}
		}
		if i == 0 {
			out = p.ConsoleString()
			continue
		}
		if got := p.ConsoleString(); got != out {
			m.reg.Counter("fleet.corrupt_outputs").Inc()
			return retryable{fmt.Errorf("fleet: clone %d output diverged: %q != %q", i, got, out)}
		}
	}
	m.mu.Lock()
	job.Output = out
	m.mu.Unlock()
	return nil
}
