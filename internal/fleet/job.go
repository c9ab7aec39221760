package fleet

import (
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// JobState is one station of the job lifecycle state machine:
//
//	submit → Pending → Running → Done
//	            ↑         |
//	            └─ retry ──┴──→ Failed
//
// A Running job whose attempt fails retries (back to Pending with a
// backoff deadline) until its retry budget is spent, then lands in
// Failed. A daemon restart moves Running jobs back to Pending — the
// attempt's in-memory process state is gone, so the job re-runs from
// scratch, which the journal makes loss- and duplication-free.
type JobState string

// Job states, named as the jobs listing and the control socket print them.
const (
	Pending JobState = "pending"
	Running JobState = "running"
	Done    JobState = "done"
	Failed  JobState = "failed"
)

// JobOpts is the per-job migration configuration, the fleet-level mirror
// of cluster.MigrateOpts: the migration mode, the wire codec and XOR-delta
// rounds are selectable per job.
type JobOpts struct {
	// Codec names the wire codec: "none" (the default, also selected by
	// the empty string) or "flate" (compressed).
	Codec string `json:"codec,omitempty"`
	// Delta enables XOR-delta pre-copy rounds; requires PreCopy.
	Delta bool `json:"delta,omitempty"`
	// Lazy selects post-copy migration over a real TCP page server.
	Lazy bool `json:"lazy,omitempty"`
	// PreCopy selects iterative pre-copy migration.
	PreCopy bool `json:"precopy,omitempty"`
}

// ParseCodec maps a codec name ("", "none", "flate") to the wire codec
// it selects.
func ParseCodec(name string) (imgproto.Codec, error) {
	switch name {
	case "", "none":
		return imgproto.CodecNone, nil
	case "flate":
		return imgproto.CodecFlate, nil
	default:
		return imgproto.CodecNone, fmt.Errorf("fleet: unknown codec %q (want none or flate)", name)
	}
}

// FaultPlan injects deterministic transport faults into a job's early
// attempts, exercising the retry/rollback path end to end. Attempts
// 1..FailAttempts migrate with Faults (cluster.MigrateOpts.Faults);
// later attempts run clean, so a job with FailAttempts < retry budget is
// guaranteed to converge.
type FaultPlan struct {
	// FailAttempts is how many leading attempts get faults injected.
	FailAttempts int `json:"fail_attempts,omitempty"`
	// Faults is the page transport's fault spec on those attempts: fetch
	// failures and latency at the page source, mid-frame connection drops
	// at the page server's listener.
	Faults *criu.FaultSpec `json:"faults,omitempty"`
}

// Active reports whether attempt (1-based) has faults injected.
func (f *FaultPlan) Active(attempt int) bool {
	return f != nil && f.Faults != nil && attempt <= f.FailAttempts
}

// JobSpec describes one migration job: which program to run, where to
// interrupt it, how to migrate it, and how hard to retry. The spec is
// what the journal persists, so everything in it must survive a JSON
// round trip and be re-executable by a restarted daemon.
type JobSpec struct {
	// Program names a registered program (see Manager.RegisterWorkload /
	// RegisterProgram).
	Program string `json:"program"`
	// RunFrac is the fraction of the program's total cycles to execute
	// before migrating (0 selects the 0.5 default).
	RunFrac float64 `json:"run_frac,omitempty"`
	// SrcNode pins the source node by name; empty lets the scheduler
	// pick the least-loaded eligible node.
	SrcNode string `json:"src_node,omitempty"`
	// DstNode pins the destination; empty defers to the placement
	// policy.
	DstNode string `json:"dst_node,omitempty"`
	// TargetArch constrains placement to nodes of this ISA ("sx86" or
	// "sarm"); empty lets the policy choose freely.
	TargetArch string `json:"target_arch,omitempty"`
	// Opts is the migration configuration threaded into
	// cluster.MigrateOpts.
	Opts JobOpts `json:"opts"`
	// MaxRetries bounds retry attempts after the first (default
	// DefaultMaxRetries; negative means no retries).
	MaxRetries int `json:"max_retries,omitempty"`
	// Faults, if set, injects deterministic transport faults into the
	// leading attempts (tests and the smoke harness).
	Faults *FaultPlan `json:"faults,omitempty"`
	// Class scales the workload when Program names a registry workload.
	Class workloads.Class `json:"class,omitempty"`
	// Manifest turns the job into a clone job: instead of migrating a
	// live process, the executor restores this checkpoint manifest from
	// the manager's registry (Config.Registry) onto the placed node.
	Manifest string `json:"manifest,omitempty"`
	// Clone is the clone job's fan-out: how many copies to restore onto
	// the placed node (default 1). All clones share resident page
	// frames copy-on-write and must produce byte-identical output.
	Clone int `json:"clone,omitempty"`
}

// DefaultMaxRetries is the retry budget for jobs that do not set one.
const DefaultMaxRetries = 3

func (s *JobSpec) normalize() error {
	if s.Program == "" {
		return fmt.Errorf("fleet: job spec needs a program")
	}
	if s.RunFrac == 0 {
		s.RunFrac = 0.5
	}
	if s.RunFrac < 0 || s.RunFrac >= 1 {
		return fmt.Errorf("fleet: run fraction %v outside (0, 1)", s.RunFrac)
	}
	if s.Opts.Delta && !s.Opts.PreCopy {
		return fmt.Errorf("fleet: delta encoding requires precopy")
	}
	if s.Opts.Lazy && s.Opts.PreCopy {
		return fmt.Errorf("fleet: lazy and precopy are mutually exclusive")
	}
	if _, err := ParseCodec(s.Opts.Codec); err != nil {
		return err
	}
	if s.Faults != nil && s.Faults.Faults != nil && !s.Opts.Lazy {
		return fmt.Errorf("fleet: fault plans require a lazy job (faults live in the page transport)")
	}
	switch s.TargetArch {
	case "", "sx86", "sarm":
	default:
		return fmt.Errorf("fleet: unknown target arch %q (want sx86 or sarm)", s.TargetArch)
	}
	if s.MaxRetries == 0 {
		s.MaxRetries = DefaultMaxRetries
	}
	if s.MaxRetries < 0 {
		s.MaxRetries = 0
	}
	if s.Clone != 0 && s.Manifest == "" {
		return fmt.Errorf("fleet: clone count without a manifest")
	}
	if s.Manifest != "" {
		if s.Opts.Lazy || s.Opts.PreCopy || s.Opts.Delta || s.Opts.Codec != "" {
			return fmt.Errorf("fleet: clone jobs restore a stored checkpoint; lazy/precopy/delta/codec do not apply")
		}
		if s.SrcNode != "" {
			return fmt.Errorf("fleet: clone jobs have no source node")
		}
		if s.Clone <= 0 {
			s.Clone = 1
		}
	}
	return nil
}

// Job is the manager's record of one submitted migration, and its wire
// form on the control socket.
type Job struct {
	ID   int     `json:"id"`
	Spec JobSpec `json:"spec"`

	State    JobState `json:"state"`
	Attempts int      `json:"attempts"` // attempts started this daemon lifetime
	Retries  int      `json:"retries"`  // attempts beyond the first (including prior lifetimes)
	Resumed  bool     `json:"resumed,omitempty"`
	Err      string   `json:"err,omitempty"`

	// Src/Dst are the nodes of the latest attempt. Src is sticky after
	// the first dispatch: the paused source process lives there.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`

	// notBefore gates redispatch after a retry backoff.
	notBefore time.Time

	// proc is the job's source process on node Src (nil until first
	// dispatch, nil again once retire reaps it).
	proc *kernel.Process

	// Results of the final successful attempt.
	MigrationTime time.Duration `json:"migration_ns,omitempty"`
	Downtime      time.Duration `json:"downtime_ns,omitempty"`
	ImageBytes    uint64        `json:"image_bytes,omitempty"`
	WireBytes     uint64        `json:"wire_bytes,omitempty"`
	Output        string        `json:"-"`
}

// Mode names the job's kind for listings: clone, lazy, precopy or
// vanilla.
func (j *Job) Mode() string {
	switch {
	case j.Spec.Manifest != "":
		return "clone"
	case j.Spec.Opts.Lazy:
		return "lazy"
	case j.Spec.Opts.PreCopy:
		return "precopy"
	}
	return "vanilla"
}
