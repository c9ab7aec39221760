package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// tailCases are journal files a crash can leave behind, with the number
// of events Open must replay from each.
var tailCases = []struct {
	name, file string
	replayed   int
}{
	{"torn tail", first + "\n" + `{"seq":2,"no`, 1},
	{"torn tail with newline", first + "\n" + `{"seq":2,"no` + "\n", 1},
	{"torn only", `{"seq":1,"no`, 0},
	{"unterminated final line", first + "\n" + `{"seq":2,"note":"second"}`, 2},
	{"clean", first + "\n", 1},
}

const first = `{"seq":1,"note":"first"}`

// TestOpenRepairsTail: an append after a torn tail — or
// after a final line missing only its newline — must survive the next
// replay. Open repairs the tail first; without that the new event is
// glued to the leftover bytes, and the following Open drops it (torn
// tail) or refuses the file.
func TestOpenRepairsTail(t *testing.T) {
	for _, tc := range tailCases {
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

// FuzzJournalReplay: from any file bytes, Open refuses by name or returns
// a history, and the history is every event line of the file in order,
// short only of a malformed final line (a torn append); a malformed line
// anywhere before it is a refusal. After one Append the next Open
// replays exactly that history plus the appended event.
func FuzzJournalReplay(f *testing.F) {
	for _, tc := range tailCases {
		f.Add([]byte(tc.file))
	}
	f.Add([]byte(first + "\n" + `{"seq":2,"no` + "\n" + first + "\n"))
	f.Add([]byte("\r\n" + first + "\r\n\n" + `null` + "\n  \n"))
	f.Fuzz(func(t *testing.T, file []byte) {
		// The oracle: split on newlines, skip blank lines, decode the rest.
		var want []rec
		malformed := -1 // index, among the non-blank lines, of the first that does not decode
		lines := 0
		for _, line := range bytes.Split(file, []byte("\n")) {
			if len(bytes.TrimRight(line, "\r")) == 0 {
				continue
			}
			var ev rec
			if err := json.Unmarshal(line, &ev); err != nil {
				if malformed < 0 {
					malformed = lines
				}
			} else if malformed < 0 {
				want = append(want, ev)
			}
			lines++
		}
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		j, events, err := Open(path, recSeq)
		if malformed >= 0 && malformed < lines-1 {
			if err == nil {
				_ = j.Close()
				t.Fatalf("line %d of %d is malformed, yet Open replayed %d events", malformed+1, lines, len(events))
			}
			if !strings.HasPrefix(err.Error(), "journal: ") {
				t.Fatalf("refusal not named: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open refused a file whose only malformed line is the last: %v", err)
		}
		if !slices.Equal(events, want) {
			_ = j.Close()
			t.Fatalf("replayed %+v, want %+v", events, want)
		}
		next := rec{Note: "appended", Seq: 1}
		if n := len(want); n > 0 {
			next.Seq = want[n-1].Seq + 1
		}
		if err := j.Append(rec{Note: next.Note}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, events, err = Open(path, recSeq)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer func() { _ = j.Close() }() // teardown; the assertion below carries the test
		if want = append(want, next); !slices.Equal(events, want) {
			t.Fatalf("reopen replayed %+v, want %+v", events, want)
		}
	})
}
