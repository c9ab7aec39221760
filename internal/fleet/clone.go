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
// is the manifest, pinned in the registry under owner "job-<id>" from submit
// until the job is terminal so GC can never sweep a checkpoint a
// pending job still needs. The pin lives in the registry's own journal;
// the fleet journal records the job transitions. A crash between the
// two journals' writes is healed at startup by re-asserting pins for
// pending jobs and re-releasing them for terminal ones (both
// idempotent).

// cloneOwner is the registry ref owner tag for a clone job's pin.
func cloneOwner(id int) string { return fmt.Sprintf("job-%d", id) }

// reconcileClonePins aligns registry manifest pins with the replayed job
// states at startup. Called from NewManager before the scheduler exists.
func (m *Manager) reconcileClonePins() error {
	for _, id := range m.jobOrder {
		job := m.jobs[id]
		if job.Spec.Manifest == "" {
			continue
		}
		if m.cfg.Registry == nil {
			return fmt.Errorf("fleet: journaled clone job %d needs Config.Registry", id)
		}
		switch job.State {
		case Pending:
			if err := m.cfg.Registry.Ref(job.Spec.Manifest, cloneOwner(id)); err != nil {
				return fmt.Errorf("fleet: re-pin clone job %d: %w", id, err)
			}
		case Done, Failed:
			if err := m.cfg.Registry.Unref(job.Spec.Manifest, cloneOwner(id)); err != nil {
				return fmt.Errorf("fleet: release clone job %d: %w", id, err)
			}
		}
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
