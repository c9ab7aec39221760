package fleet

import (
	"fmt"
	"net"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
)

// The executor runs one migration attempt end to end:
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
//  4. On a retryable failure: roll back to the source — release the
//     transport, reap the dead restored process
//     (cluster.MigrationResult.Rollback), resume the paused source at
//     its equivalence points (monitor.ResumeLocal) — and requeue the job
//     with exponential backoff.
//  5. On success: run the restored process to completion and verify its
//     combined console output against the program's native reference —
//     the end-to-end corruption check.
//
// Node slots are held for the attempt's whole lifetime and released
// before the backoff sleep, so a retrying job never starves its nodes.

// maxPauses bounds the monitor's equivalence-point wait per attempt.
const maxPauses = 1 << 20

// runJob is the executor goroutine: one attempt, then state transition.
func (m *Manager) runJob(job *Job, src, dst *NodeState, attempt int) {
	defer m.wg.Done()
	//lint:ignore wallclock host busy-time for slot utilization accounting; feeds fleet.attempt_host_ns, never a modeled breakdown
	start := time.Now()
	err := m.attempt(job, src, dst, attempt)
	//lint:ignore wallclock host busy-time for slot utilization accounting; feeds fleet.attempt_host_ns, never a modeled breakdown
	busy := time.Since(start)
	src.release(busy)
	dst.release(busy)
	m.jobSlots.Release()
	m.reg.Histogram("fleet.attempt_host_ns").Observe(busy)
	m.settle(job, src, dst, err)
	m.kick()
}

// settle applies an attempt's outcome to the job under the manager lock
// and journals the transition.
func (m *Manager) settle(job *Job, src, dst *NodeState, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		job.State = Done
		job.Err = ""
		job.proc = nil
		src.done.Add(1)
		dst.done.Add(1)
		m.reg.Counter("fleet.jobs_done").Inc()
		m.reg.Histogram("fleet.migration_ns").Observe(job.MigrationTime)
		m.reg.Histogram("fleet.downtime_ns").Observe(job.Downtime)
		if jerr := m.journal.Append(Event{Type: "done", Job: job.ID, Retries: job.Retries}); jerr != nil {
			job.Err = jerr.Error()
		}
		return
	}
	src.failed.Add(1)
	dst.failed.Add(1)
	m.reg.Counter("fleet.attempts_failed").Inc()
	retryable := job.proc != nil // rollback preserved the source process
	if retryable && job.Attempts <= job.Spec.MaxRetries {
		job.State = Pending
		job.Retries++
		job.Err = err.Error()
		//lint:ignore wallclock retry backoff is host-side scheduling; the modeled migration clock never sees it
		job.notBefore = time.Now().Add(m.backoffFor(job.Attempts))
		m.reg.Counter("fleet.retries").Inc()
		if jerr := m.journal.Append(Event{Type: "retry", Job: job.ID, Err: err.Error()}); jerr != nil {
			job.State = Failed
			job.Err = jerr.Error()
		}
		return
	}
	job.State = Failed
	job.Err = err.Error()
	job.proc = nil
	m.reg.Counter("fleet.jobs_failed").Inc()
	if jerr := m.journal.Append(Event{Type: "failed", Job: job.ID, Err: err.Error(), Retries: job.Retries}); jerr != nil {
		job.Err = jerr.Error()
	}
}

// attempt runs one migration attempt. A nil error means the job is done
// (migrated, run to completion, output verified). On a retryable failure
// the source process is left alive and resumed, and job.proc stays set;
// on an unrecoverable failure job.proc is cleared so settle fails the
// job terminally regardless of retry budget.
func (m *Manager) attempt(job *Job, src, dst *NodeState, attempt int) error {
	m.mu.Lock()
	prog := m.programs[job.Spec.Program]
	m.mu.Unlock()
	if prog == nil {
		job.proc = nil
		return fmt.Errorf("fleet: program %q vanished", job.Spec.Program)
	}
	refCycles, refOut, err := prog.reference(src.Node.Spec)
	if err != nil {
		job.proc = nil
		return err
	}

	// First dispatch: materialize the source process at the migration
	// point.
	if job.proc == nil {
		proc, err := src.Node.Start(job.Spec.Program)
		if err != nil {
			job.proc = nil
			return fmt.Errorf("fleet: start %q on %s: %w", job.Spec.Program, src.Name, err)
		}
		alive, err := src.Node.K.RunBudget(proc, uint64(float64(refCycles)*job.Spec.RunFrac))
		if err != nil {
			job.proc = nil
			return fmt.Errorf("fleet: run to %.0f%%: %w", job.Spec.RunFrac*100, err)
		}
		if !alive {
			job.proc = nil
			return fmt.Errorf("fleet: %q finished before the %.0f%% migration point", job.Spec.Program, job.Spec.RunFrac*100)
		}
		job.proc = &srcProcess{node: src.Name, proc: proc}
	}
	proc := job.proc.proc

	opts, err := m.migrateOpts(job, attempt, refCycles)
	if err != nil {
		job.proc = nil
		return err
	}

	res, err := cluster.Migrate(src.Node, dst.Node, proc, prog.pair.Meta, opts)
	if err != nil {
		// The source is still paused at its equivalence points (or never
		// fully parked); resume it so the next attempt can re-pause.
		m.rollbackToSource(job, src, proc, prog)
		return fmt.Errorf("fleet: migrate %s->%s: %w", src.Name, dst.Name, err)
	}

	// Run the restored process to completion on the destination. For
	// lazy jobs this is where injected post-copy faults surface.
	if runErr := dst.Node.K.Run(res.Proc); runErr != nil {
		if opts.Lazy && kernel.IsLazyFaultError(runErr) {
			// Mid-migration transport failure: roll back to the source.
			if rbErr := res.Rollback(); rbErr != nil {
				runErr = fmt.Errorf("%w (rollback: %v)", runErr, rbErr)
			}
			m.rollbackToSource(job, src, proc, prog)
			return fmt.Errorf("fleet: post-copy run on %s: %w", dst.Name, runErr)
		}
		// Not a transport failure — the source may already be reaped
		// (vanilla/precopy); fail terminally.
		if cerr := res.Close(); cerr != nil {
			runErr = fmt.Errorf("%w (close: %v)", runErr, cerr)
		}
		job.proc = nil
		return fmt.Errorf("fleet: run restored process on %s: %w", dst.Name, runErr)
	}
	res.FinalizeLazyStats()
	srcOut := proc.ConsoleString()
	if err := res.Close(); err != nil {
		job.proc = nil
		return fmt.Errorf("fleet: close migration: %w", err)
	}

	// End-to-end identity: source output up to the pause plus restored
	// output must equal the native run exactly.
	total := srcOut + res.Proc.ConsoleString()
	if total != refOut {
		job.proc = nil
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
// spec, wiring in — on fault-plan attempts — the criu fault injectors.
func (m *Manager) migrateOpts(job *Job, attempt int, refCycles uint64) (cluster.MigrateOpts, error) {
	codec, err := job.Spec.Opts.MigrateCodec()
	if err != nil {
		return cluster.MigrateOpts{}, err
	}
	opts := cluster.MigrateOpts{
		Codec:     codec,
		Delta:     job.Spec.Opts.Delta,
		Lazy:      job.Spec.Opts.Lazy,
		LazyTCP:   job.Spec.Opts.Lazy,
		Obs:       m.reg,
		MaxPauses: maxPauses,
	}
	if job.Spec.Opts.PreCopy {
		// Scale the between-round run budget to the program: the library
		// default (1Mi cycles) would run a short program to completion
		// before the final pause.
		opts.PreCopy = &cluster.PreCopyOpts{RoundBudget: refCycles/20 + 1}
	}
	if plan := job.Spec.Faults; plan.Active(attempt) {
		if !opts.Lazy {
			return cluster.MigrateOpts{}, fmt.Errorf("fleet: fault plans require a lazy job (faults live in the page transport)")
		}
		if spec := plan.FlakySource; spec != nil {
			s := *spec
			opts.WrapPageSource = func(src criu.PageSource) criu.PageSource {
				return criu.NewFlakySource(src, s)
			}
		}
		if spec := plan.FlakyListener; spec != nil {
			s := *spec
			opts.WrapListener = func(ln net.Listener) net.Listener {
				return criu.NewFlakyListener(ln, s)
			}
		}
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
// attempt can re-pause and re-dump it. If the resume itself fails the
// job cannot continue from this process; it is cleared so the job fails
// terminally.
func (m *Manager) rollbackToSource(job *Job, src *NodeState, proc *kernel.Process, prog *program) {
	m.reg.Counter("fleet.rollbacks").Inc()
	if err := monitor.New(src.Node.K, proc, prog.pair.Meta).ResumeLocal(); err != nil {
		job.proc = nil
		m.reg.Counter("fleet.rollback_failures").Inc()
	}
}
