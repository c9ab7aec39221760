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
type JobState uint8

// Job states.
const (
	Pending JobState = iota + 1
	Running
	Done
	Failed
)

// String renders the state for reports and the jobs listing.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

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

// MigrateCodec resolves the codec name. Unknown names are an error so a
// typo fails the submit, not the migration.
func (o JobOpts) MigrateCodec() (imgproto.Codec, error) {
	return ParseCodec(o.Codec)
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
	if _, err := s.Opts.MigrateCodec(); err != nil {
		return err
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
		if s.Opts.Lazy || s.Opts.PreCopy || s.Opts.Delta {
			return fmt.Errorf("fleet: clone jobs restore a stored checkpoint; lazy/precopy/delta do not apply")
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

// Job is the manager's record of one submitted migration.
type Job struct {
	ID   int
	Spec JobSpec

	State    JobState
	Attempts int // attempts started this daemon lifetime
	Retries  int // attempts beyond the first (including prior lifetimes)
	Resumed  bool
	Err      string

	// Src/Dst are the nodes of the latest attempt. Src is sticky after
	// the first dispatch: the paused source process lives there.
	Src, Dst string

	// notBefore gates redispatch after a retry backoff.
	notBefore time.Time

	// proc is the job's source process on node Src (nil until first
	// dispatch, nil again once retire reaps it).
	proc *kernel.Process

	// Results of the final successful attempt.
	MigrationTime time.Duration
	Downtime      time.Duration
	ImageBytes    uint64
	WireBytes     uint64
	Output        string
}

// JobView is the externally visible snapshot of a Job, serialized over
// the control socket.
type JobView struct {
	ID         int           `json:"id"`
	Program    string        `json:"program"`
	State      string        `json:"state"`
	Attempts   int           `json:"attempts"`
	Retries    int           `json:"retries"`
	Resumed    bool          `json:"resumed,omitempty"`
	Src        string        `json:"src,omitempty"`
	Dst        string        `json:"dst,omitempty"`
	Err        string        `json:"err,omitempty"`
	Mode       string        `json:"mode"`
	Codec      string        `json:"codec,omitempty"`
	Delta      bool          `json:"delta,omitempty"`
	Migration  time.Duration `json:"migration_ns,omitempty"`
	Downtime   time.Duration `json:"downtime_ns,omitempty"`
	ImageBytes uint64        `json:"image_bytes,omitempty"`
	WireBytes  uint64        `json:"wire_bytes,omitempty"`
	Manifest   string        `json:"manifest,omitempty"`
	Clones     int           `json:"clones,omitempty"`
}

func (j *Job) view() JobView {
	mode := "vanilla"
	if j.Spec.Manifest != "" {
		mode = "clone"
	} else if j.Spec.Opts.Lazy {
		mode = "lazy"
	} else if j.Spec.Opts.PreCopy {
		mode = "precopy"
	}
	return JobView{
		ID:         j.ID,
		Program:    j.Spec.Program,
		State:      j.State.String(),
		Attempts:   j.Attempts,
		Retries:    j.Retries,
		Resumed:    j.Resumed,
		Src:        j.Src,
		Dst:        j.Dst,
		Err:        j.Err,
		Mode:       mode,
		Codec:      j.Spec.Opts.Codec,
		Delta:      j.Spec.Opts.Delta,
		Migration:  j.MigrationTime,
		Downtime:   j.Downtime,
		ImageBytes: j.ImageBytes,
		WireBytes:  j.WireBytes,
		Manifest:   j.Spec.Manifest,
		Clones:     j.Spec.Clone,
	}
}
