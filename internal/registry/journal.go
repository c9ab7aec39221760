package registry

// The manifest journal shares the fleet job journal's file mechanics
// (internal/journal): one JSONL line per metadata mutation, written and
// fsynced before the mutation takes effect anywhere else; on replay
// only a torn final line — a store killed mid-append — is tolerated.

// event is one journal line.
type event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // "manifest", "ref", "unref", "sweep"

	// manifest registration
	Manifest *Manifest `json:"manifest,omitempty"`

	// ref / unref
	ID    string `json:"id,omitempty"`
	Owner string `json:"owner,omitempty"`

	// sweep: what a completed GC pass deleted
	Manifests []string `json:"manifests,omitempty"`
	Chunks    []string `json:"chunks,omitempty"`
}
