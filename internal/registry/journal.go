package registry

// The manifest journal shares the fleet job journal's file mechanics
// (internal/journal): one JSONL line per pushed manifest, written and
// fsynced before the manifest is visible anywhere else; on replay only a
// torn final line — a store killed mid-append — is tolerated.

// event is one journal line.
type event struct {
	Seq      int64     `json:"seq"`
	Type     string    `json:"type"` // "manifest"
	Manifest *Manifest `json:"manifest,omitempty"`
}
