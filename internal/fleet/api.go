package fleet

// The daemon's control protocol: one newline-delimited JSON request and
// one response per connection over a local (unix-domain) socket. The
// protocol is deliberately minimal — dapperctl performs exactly one
// operation per invocation, so connection reuse buys nothing, and
// one-shot connections make the server's lifecycle trivial to reason
// about (every accepted connection is served to completion and closed by
// a joined goroutine).

// Ops understood by the daemon.
const (
	OpPing   = "ping"
	OpSubmit = "submit"
	OpJobs   = "jobs"
	OpJob    = "job"
	OpStatus = "status"
	OpDrain  = "drain"
)

// Request is one client call.
type Request struct {
	Op string `json:"op"`
	// Spec accompanies OpSubmit.
	Spec *JobSpec `json:"spec,omitempty"`
	// JobID accompanies OpJob.
	JobID int `json:"job_id,omitempty"`
	// Node and Undrain accompany OpDrain.
	Node    string `json:"node,omitempty"`
	Undrain bool   `json:"undrain,omitempty"`
}

// Response is the daemon's answer.
type Response struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	JobID int   `json:"job_id,omitempty"`
	Job   *Job  `json:"job,omitempty"`
	Jobs  []Job `json:"jobs,omitempty"`
	// Status answers OpStatus: the whole fleet report, obs payload
	// included.
	Status *FleetReport `json:"status,omitempty"`
}
