package journal

import (
	"path/filepath"
	"testing"
)

type rec struct {
	Seq  int64  `json:"seq"`
	Note string `json:"note"`
}

func recSeq(r *rec) *int64 { return &r.Seq }

// TestAppendAfterClose: a closed journal refuses appends instead of
// acknowledging an event it cannot make durable.
func TestAppendAfterClose(t *testing.T) {
	j, _, err := Open(filepath.Join(t.TempDir(), "j.jsonl"), recSeq)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{}); err == nil {
		t.Fatal("append after Close reported success")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
