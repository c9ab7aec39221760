package fleet

import (
	jnl "github.com/dapper-sim/dapper/internal/journal"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// The journal is the daemon's durability story: an append-only JSONL
// file of job-lifecycle events (file mechanics: internal/journal). Every
// submitted job and every state transition is one line, written and
// fsynced before the transition takes effect anywhere else, so a daemon
// killed mid-queue can replay the file and resume exactly where it
// stopped:
//
//   - a job with a submit event and no terminal event is requeued as
//     Pending (its in-memory process died with the daemon, so the job
//     re-runs from scratch — at-most-once completion, no duplication:
//     a Done/Failed job is never re-dispatched);
//   - program registrations replay first, so requeued jobs can
//     recompile and reinstall their binaries;
//   - the next job ID continues above the highest journaled ID, so IDs
//     never collide across restarts.

// Event is one journal line.
type Event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // "program", "submit", "start", "retry", "done", "failed"
	Job  int    `json:"job,omitempty"`

	// program registration
	Name     string          `json:"name,omitempty"`
	Source   string          `json:"source,omitempty"`
	Workload string          `json:"workload,omitempty"`
	Class    workloads.Class `json:"class,omitempty"`

	// submit
	Spec *JobSpec `json:"spec,omitempty"`

	// start / retry / terminal detail
	Attempt int    `json:"attempt,omitempty"`
	Src     string `json:"src,omitempty"`
	Dst     string `json:"dst,omitempty"`
	Err     string `json:"err,omitempty"`
	Retries int    `json:"retries,omitempty"`
}

// journal is the job journal: the shared durable JSONL log carrying
// fleet Events. A nil journal (no path configured) accepts appends and
// drops them — the in-memory-only mode tests and the bench harness use.
type journal = jnl.Journal[Event]

// openJournal opens (creating if needed) the journal at path and returns
// it along with the replayed history. An empty path returns a nil
// journal and no history.
func openJournal(path string) (*journal, []Event, error) {
	if path == "" {
		return nil, nil, nil
	}
	return jnl.Open(path, func(ev *Event) *int64 { return &ev.Seq })
}

// replayState is the manager-facing digest of a journal: programs to
// re-register and jobs in their resumed states.
type replayState struct {
	programs []Event
	jobs     []*Job
	nextID   int
}

// digestEvents folds a journal history into the state a restarted
// manager starts from.
func digestEvents(events []Event) replayState {
	st := replayState{nextID: 1}
	byID := map[int]*Job{}
	for _, ev := range events {
		switch ev.Type {
		case "program":
			st.programs = append(st.programs, ev)
		case "submit":
			if ev.Spec == nil || ev.Job == 0 {
				continue
			}
			if _, dup := byID[ev.Job]; dup {
				continue // duplicate submit line: first one wins
			}
			j := &Job{ID: ev.Job, Spec: *ev.Spec, State: Pending}
			byID[ev.Job] = j
			st.jobs = append(st.jobs, j)
			if ev.Job >= st.nextID {
				st.nextID = ev.Job + 1
			}
		case "start":
			if j := byID[ev.Job]; j != nil && j.State != Done && j.State != Failed {
				j.State = Running
				j.Src, j.Dst = ev.Src, ev.Dst
			}
		case "retry":
			if j := byID[ev.Job]; j != nil && j.State != Done && j.State != Failed {
				j.State = Pending
				j.Retries++
			}
		case "done":
			if j := byID[ev.Job]; j != nil {
				j.State = Done
				j.Retries = ev.Retries
			}
		case "failed":
			if j := byID[ev.Job]; j != nil {
				j.State = Failed
				j.Err = ev.Err
				j.Retries = ev.Retries
			}
		}
	}
	// A job the dead daemon had in flight re-runs from scratch.
	for _, j := range st.jobs {
		if j.State == Running {
			j.State = Pending
		}
		if j.State == Pending {
			j.Resumed = true
			j.Src, j.Dst = "", ""
		}
	}
	return st
}
