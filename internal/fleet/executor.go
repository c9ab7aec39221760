package fleet

import (
	"errors"
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
)

// The executor runs one attempt of a job, then settles its outcome. A
// clone job's attempt restores its manifest (attemptClone, clone.go); a
// migration's runs end to end:
//
//  1. First attempt only: start the job's program on the source node and
//     run it to the spec's cycle fraction (the migration point).
//  2. cluster.Migrate with the job's per-job MigrateOpts (codec,
//     delta, lazy/precopy) and the fleet obs registry.
//     Restore pre-flights every image through imgcheck, so a corrupt
//     image can never be silently resumed.
//  3. Lazy jobs then run the restored process, realizing post-copy
//     faults; a fetch that exhausts its retries surfaces as a
//     kernel.IsLazyFaultError.
//  4. On a transport failure: roll back to the source — release the
//     transport, reap the dead restored process
//     (cluster.MigrationResult.Rollback), resume the paused source at
//     its equivalence points (monitor.ResumeLocal) — and return a
//     retryable error, so settle requeues the job with exponential
//     backoff.
//  5. On success: run the restored process to completion, verify its
//     combined console output against the program's native reference —
//     the end-to-end corruption check — and reap it.
//
// Node slots are held for the attempt's whole lifetime and released
// before the backoff, so a retrying job never starves its nodes. When a
// job ends, retire reaps its source process, so a finished job leaves no
// process in any node's kernel.

// retryable marks an attempt failure the job can retry from: every clone
// job failure (the manifest is still there to restore), and a
// migration failure whose rollback kept the source process.
type retryable struct{ error }

func (e retryable) Unwrap() error { return e.error }

// runJob is the executor goroutine: one attempt, then state transition.
func (m *Manager) runJob(job *Job, src, dst *NodeState, attempt int) {
	defer m.wg.Done()
	//lint:ignore wallclock host busy-time for slot utilization accounting; feeds fleet.attempt_host_ns, never a modeled breakdown
	start := time.Now()
	var err error
	if job.Spec.Manifest != "" {
		err = m.attemptClone(job, dst)
	} else {
		err = m.attempt(job, src, dst, attempt)
	}
	//lint:ignore wallclock host busy-time for slot utilization accounting; feeds fleet.attempt_host_ns, never a modeled breakdown
	busy := time.Since(start)
	m.reg.Histogram("fleet.attempt_host_ns").Observe(busy)
	m.settle(job, held(src, dst), busy, err)
	m.kick()
}

// settle gives back the attempt's slots, applies its outcome to the job
// under the manager lock and journals the transition. A failed attempt
// is retried while budget is left if its error is retryable; the retry's
// backoff deadline arms a timer that wakes the scheduler. A job that ends
// is retired.
func (m *Manager) settle(job *Job, nodes slots, busy time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	nodes.release(busy)
	m.inflight--
	var ev Event
	switch {
	case err == nil:
		job.State, job.Err = Done, ""
		m.reg.Counter("fleet.jobs_done").Inc()
		if job.Spec.Manifest == "" { // a clone job migrates nothing
			m.reg.Histogram("fleet.migration_ns").Observe(job.MigrationTime)
			m.reg.Histogram("fleet.downtime_ns").Observe(job.Downtime)
		}
		ev = Event{Type: "done", Job: job.ID, Retries: job.Retries}
	case errors.As(err, new(retryable)) && job.Attempts <= job.Spec.MaxRetries:
		job.State, job.Err = Pending, err.Error()
		job.Retries++
		backoff := m.backoffFor(job.Attempts)
		//lint:ignore wallclock retry backoff is host-side scheduling; the modeled migration clock never sees it
		job.notBefore = time.Now().Add(backoff)
		time.AfterFunc(backoff, m.kick)
		m.reg.Counter("fleet.retries").Inc()
		ev = Event{Type: "retry", Job: job.ID, Err: job.Err}
	default:
		job.State, job.Err = Failed, err.Error()
		m.reg.Counter("fleet.jobs_failed").Inc()
		ev = Event{Type: "failed", Job: job.ID, Err: job.Err, Retries: job.Retries}
	}
	if err != nil {
		m.reg.Counter("fleet.attempts_failed").Inc()
	}
	for _, n := range nodes {
		if err == nil {
			n.done.Add(1)
		} else {
			n.failed.Add(1)
		}
	}
	if jerr := m.journal.Append(ev); jerr != nil {
		// A retry the journal does not hold would be lost on restart;
		// fail the job rather than run it unjournaled.
		if job.State == Pending {
			job.State = Failed
		}
		job.Err = jerr.Error()
	}
	if job.State != Pending {
		m.retire(job)
	}
}

// retire releases what a job holds once it has ended: its source process
// (paused, resumed by a rollback, or never migrated). It runs after the
// terminal event is journaled. Callers hold m.mu.
func (m *Manager) retire(job *Job) {
	if job.proc != nil {
		m.nodes[job.Src].Node.K.Reap(job.proc)
		job.proc = nil
	}
}

// attempt runs one migration attempt. A nil error means the job is done
// (migrated, run to completion, output verified). A failure is retryable
// only if rollback resumed the source process; the job keeps that
// process in job.proc either way until retire reaps it.
func (m *Manager) attempt(job *Job, src, dst *NodeState, attempt int) error {
	m.mu.Lock()
	prog := m.programs[job.Spec.Program]
	m.mu.Unlock()
	if prog == nil {
		return fmt.Errorf("fleet: program %q vanished", job.Spec.Program)
	}
	refCycles, refOut, err := prog.reference(src.Node.Spec)
	if err != nil {
		return err
	}

	// First dispatch: materialize the source process at the migration
	// point.
	proc := job.proc
	if proc == nil {
		if proc, err = src.Node.Start(job.Spec.Program); err != nil {
			return fmt.Errorf("fleet: start %q on %s: %w", job.Spec.Program, src.Name, err)
		}
		// Jobs and Job copy the record under m.mu.
		m.mu.Lock()
		job.proc = proc
		m.mu.Unlock()
		alive, err := src.Node.K.RunBudget(proc, uint64(float64(refCycles)*job.Spec.RunFrac))
		if err != nil {
			return fmt.Errorf("fleet: run to %.0f%%: %w", job.Spec.RunFrac*100, err)
		}
		if !alive {
			return fmt.Errorf("fleet: %q finished before the %.0f%% migration point", job.Spec.Program, job.Spec.RunFrac*100)
		}
	}

	opts, err := m.migrateOpts(job, attempt, refCycles)
	if err != nil {
		return err
	}

	res, err := cluster.Migrate(src.Node, dst.Node, proc, prog.pair.Meta, opts)
	if err != nil {
		// The source is still paused at its equivalence points (or never
		// fully parked); resume it so the next attempt can re-pause.
		return m.rollbackToSource(src, proc, prog, fmt.Errorf("fleet: migrate %s->%s: %w", src.Name, dst.Name, err))
	}
	// The restored process has done its work once its output is read.
	defer dst.Node.K.Reap(res.Proc)

	// Run the restored process to completion on the destination. For
	// lazy jobs this is where injected post-copy faults surface.
	if runErr := dst.Node.K.Run(res.Proc); runErr != nil {
		if opts.Lazy && kernel.IsLazyFaultError(runErr) {
			// Mid-migration transport failure: roll back to the source.
			if rbErr := res.Rollback(); rbErr != nil {
				runErr = fmt.Errorf("%w (rollback: %v)", runErr, rbErr)
			}
			return m.rollbackToSource(src, proc, prog, fmt.Errorf("fleet: post-copy run on %s: %w", dst.Name, runErr))
		}
		// Not a transport failure — the source may already be reaped
		// (vanilla/precopy); fail terminally.
		if cerr := res.Close(); cerr != nil {
			runErr = fmt.Errorf("%w (close: %v)", runErr, cerr)
		}
		return fmt.Errorf("fleet: run restored process on %s: %w", dst.Name, runErr)
	}
	res.FinalizeLazyStats()
	srcOut := proc.ConsoleString()
	if err := res.Close(); err != nil {
		return fmt.Errorf("fleet: close migration: %w", err)
	}

	// End-to-end identity: source output up to the pause plus restored
	// output must equal the native run exactly.
	total := srcOut + res.Proc.ConsoleString()
	if total != refOut {
		m.reg.Counter("fleet.corrupt_outputs").Inc()
		return fmt.Errorf("fleet: corrupt migration: output %q != native %q", total, refOut)
	}

	bd := res.Breakdown
	m.mu.Lock()
	job.MigrationTime = bd.MigrationTime()
	job.Downtime = bd.Downtime
	job.ImageBytes = bd.ImageBytes
	job.WireBytes = bd.WireBytes
	job.Output = total
	m.mu.Unlock()
	m.reg.Counter("fleet.migrated_bytes").Add(bd.WireBytes)
	return nil
}

// migrateOpts builds the attempt's cluster.MigrateOpts from the job
// spec, with — on fault-plan attempts — the plan's fault spec.
func (m *Manager) migrateOpts(job *Job, attempt int, refCycles uint64) (cluster.MigrateOpts, error) {
	codec, err := ParseCodec(job.Spec.Opts.Codec)
	if err != nil {
		return cluster.MigrateOpts{}, err
	}
	opts := cluster.MigrateOpts{
		Codec:   codec,
		Delta:   job.Spec.Opts.Delta,
		Lazy:    job.Spec.Opts.Lazy,
		LazyTCP: job.Spec.Opts.Lazy,
		Obs:     m.reg,
	}
	if job.Spec.Opts.PreCopy {
		// Scale the between-round run budget to the program: the library
		// default (1Mi cycles) would run a short program to completion
		// before the final pause.
		opts.PreCopy = &cluster.PreCopyOpts{RoundBudget: refCycles/20 + 1}
	}
	if plan := job.Spec.Faults; plan.Active(attempt) {
		opts.Faults = plan.Faults
		// Fail fast and deterministically: no fetch retries, so the
		// first injected fault of an attempt surfaces immediately.
		opts.PageClient = &criu.PageClientOpts{
			MaxRetries:   -1,
			FetchTimeout: 250 * time.Millisecond,
			RetryBackoff: time.Millisecond,
		}
	}
	return opts, nil
}

// rollbackToSource resumes the job's paused source process so a later
// attempt can re-pause and re-dump it, and returns err as retryable. If
// the resume itself fails the job cannot continue from this process, and
// err is returned unmarked so the job fails terminally.
func (m *Manager) rollbackToSource(src *NodeState, proc *kernel.Process, prog *program, err error) error {
	m.reg.Counter("fleet.rollbacks").Inc()
	if rerr := monitor.New(src.Node.K, proc, prog.pair.Meta).ResumeLocal(); rerr != nil {
		m.reg.Counter("fleet.rollback_failures").Inc()
		return err
	}
	return retryable{err}
}
