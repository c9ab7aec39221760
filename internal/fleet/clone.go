package fleet

import (
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
)

// Clone jobs are the fleet face of the registry's copy-on-write restore
// path: one stored checkpoint manifest fanned out onto a node as N
// processes sharing resident page frames until first write. Unlike a
// migration job there is no live source process — the "source" is the
// manifest, pinned in the registry under owner "job-<id>" from submit
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

// scheduleClone places and dispatches one clone job. Called from
// schedule with m.mu held; returns false when the fleet-wide job bound
// is reached (nothing more can dispatch this pass).
func (m *Manager) scheduleClone(job *Job) bool {
	dst := m.pickCloneTarget(job)
	if dst == nil {
		return true
	}
	if !m.jobSlots.TryAcquire() {
		return false
	}
	if !dst.acquire() {
		m.jobSlots.Release()
		return true
	}
	if m.testHookAfterAcquire != nil {
		m.testHookAfterAcquire(job, dst, dst)
	}
	// Same heartbeat race as migration placements: re-check under the
	// acquired slot.
	if dst.Down() {
		dst.release(0)
		m.jobSlots.Release()
		m.reg.Counter("fleet.placement_races").Inc()
		return true
	}
	job.State = Running
	job.Attempts++
	job.Dst = dst.Name
	attempt := job.Attempts
	if err := m.journal.Append(Event{Type: "start", Job: job.ID, Attempt: attempt, Dst: dst.Name}); err != nil {
		job.State = Failed
		job.Err = err.Error()
		dst.release(0)
		m.jobSlots.Release()
		return true
	}
	m.reg.Counter("fleet.dispatches").Inc()
	m.wg.Add(1)
	go m.runCloneJob(job, dst)
	return true
}

// pickCloneTarget chooses the node the clones restore onto: the pinned
// DstNode if the spec names one, otherwise the placement policy over
// every eligible node (there is no source to exclude).
func (m *Manager) pickCloneTarget(job *Job) *NodeState {
	if job.Spec.DstNode != "" {
		n := m.nodes[job.Spec.DstNode]
		if n == nil || !eligible(n) {
			return nil
		}
		return n
	}
	wantArch, constrained := archOf(job.Spec.TargetArch)
	var candidates []*NodeState
	for _, name := range m.nodeOrder {
		n := m.nodes[name]
		if !eligible(n) || (constrained && n.Arch() != wantArch) {
			continue
		}
		candidates = append(candidates, n)
	}
	return m.policy.Pick(job, nil, candidates)
}

// runCloneJob is the clone executor goroutine: one attempt, then state
// transition, mirroring runJob.
func (m *Manager) runCloneJob(job *Job, dst *NodeState) {
	defer m.wg.Done()
	//lint:ignore wallclock host busy-time for slot utilization accounting; feeds fleet.attempt_host_ns, never a modeled breakdown
	start := time.Now()
	err := m.attemptClone(job, dst)
	//lint:ignore wallclock host busy-time for slot utilization accounting; feeds fleet.attempt_host_ns, never a modeled breakdown
	busy := time.Since(start)
	dst.release(busy)
	m.jobSlots.Release()
	m.reg.Histogram("fleet.attempt_host_ns").Observe(busy)
	m.settleClone(job, dst, err)
	m.kick()
}

// attemptClone restores the manifest onto dst Clone times and runs every
// clone to completion. All clones must produce byte-identical output —
// the fan-out analogue of the migration path's native-reference check.
func (m *Manager) attemptClone(job *Job, dst *NodeState) error {
	targets := make([]*cluster.Node, job.Spec.Clone)
	for i := range targets {
		targets[i] = dst.Node
	}
	res, err := cluster.CloneFromRegistry(m.cfg.Registry, job.Spec.Manifest, targets, cluster.CloneOpts{Obs: m.reg})
	if err != nil {
		return fmt.Errorf("fleet: clone %.12s onto %s: %w", job.Spec.Manifest, dst.Name, err)
	}
	var out string
	for i, p := range res.Procs {
		if runErr := dst.Node.K.Run(p); runErr != nil {
			for _, q := range res.Procs[i:] {
				dst.Node.K.Reap(q)
			}
			return fmt.Errorf("fleet: run clone %d on %s: %w", i, dst.Name, runErr)
		}
		if i == 0 {
			out = p.ConsoleString()
			continue
		}
		if got := p.ConsoleString(); got != out {
			m.reg.Counter("fleet.corrupt_outputs").Inc()
			return fmt.Errorf("fleet: clone %d output diverged: %q != %q", i, got, out)
		}
	}
	m.mu.Lock()
	job.Output = out
	m.mu.Unlock()
	return nil
}

// settleClone applies a clone attempt's outcome under the manager lock.
// On a terminal transition the manifest pin is released only after the
// terminal event is durable in the fleet journal: a crash between the
// fsync and the Unref leaves a leaked pin that startup reconciliation
// re-releases (Unref of an absent ref is a no-op).
func (m *Manager) settleClone(job *Job, dst *NodeState, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		job.State = Done
		job.Err = ""
		dst.done.Add(1)
		m.reg.Counter("fleet.jobs_done").Inc()
		if jerr := m.journal.Append(Event{Type: "done", Job: job.ID, Retries: job.Retries}); jerr != nil {
			job.Err = jerr.Error()
		}
		m.releaseClonePin(job)
		return
	}
	dst.failed.Add(1)
	m.reg.Counter("fleet.attempts_failed").Inc()
	if job.Attempts <= job.Spec.MaxRetries {
		job.State = Pending
		job.Retries++
		job.Err = err.Error()
		//lint:ignore wallclock retry backoff is host-side scheduling; the modeled migration clock never sees it
		job.notBefore = time.Now().Add(m.backoffFor(job.Attempts))
		m.reg.Counter("fleet.retries").Inc()
		if jerr := m.journal.Append(Event{Type: "retry", Job: job.ID, Err: err.Error()}); jerr != nil {
			job.State = Failed
			job.Err = jerr.Error()
			m.releaseClonePin(job)
		}
		return
	}
	job.State = Failed
	job.Err = err.Error()
	m.reg.Counter("fleet.jobs_failed").Inc()
	if jerr := m.journal.Append(Event{Type: "failed", Job: job.ID, Err: err.Error(), Retries: job.Retries}); jerr != nil {
		job.Err = jerr.Error()
	}
	m.releaseClonePin(job)
}

// releaseClonePin drops the job's manifest pin; callers hold m.mu and
// have already journaled the terminal transition.
func (m *Manager) releaseClonePin(job *Job) {
	if uerr := m.cfg.Registry.Unref(job.Spec.Manifest, cloneOwner(job.ID)); uerr != nil && job.Err == "" {
		job.Err = uerr.Error()
	}
}
