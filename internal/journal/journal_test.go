package journal

import (
	"os"
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

// TestOpenRepairsTail (ROADMAP 4c): an append after a torn tail — or
// after a final line missing only its newline — must survive the next
// replay. Open repairs the tail first; without that the new event is
// glued to the leftover bytes, and the following Open drops it (torn
// tail) or refuses the file.
func TestOpenRepairsTail(t *testing.T) {
	const first = `{"seq":1,"note":"first"}`
	for _, tc := range []struct {
		name, file string
		replayed   int // events Open must replay from file
	}{
		{"torn tail", first + "\n" + `{"seq":2,"no`, 1},
		{"torn tail with newline", first + "\n" + `{"seq":2,"no` + "\n", 1},
		{"torn only", `{"seq":1,"no`, 0},
		{"unterminated final line", first + "\n" + `{"seq":2,"note":"second"}`, 2},
		{"clean", first + "\n", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			j, events, err := Open(path, recSeq)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != tc.replayed {
				t.Fatalf("replayed %d events, want %d", len(events), tc.replayed)
			}
			if err := j.Append(rec{Note: "appended"}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j, events, err = Open(path, recSeq)
			if err != nil {
				t.Fatalf("reopen after append: %v", err)
			}
			defer func() { _ = j.Close() }() // teardown; assertions below carry the test
			if len(events) != tc.replayed+1 {
				t.Fatalf("reopen replayed %d events, want %d: the fsync-acked append was lost", len(events), tc.replayed+1)
			}
			if last := events[len(events)-1]; last.Note != "appended" || last.Seq != int64(tc.replayed+1) {
				t.Errorf("last replayed event = %+v, want the appended one with seq %d", last, tc.replayed+1)
			}
		})
	}
}
