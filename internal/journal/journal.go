// Package journal is the durable event log under the control plane's
// persistent state: an append-only JSONL file, one event per line,
// written and fsynced before the event takes effect anywhere else, so a
// process killed at any point can replay the file and resume exactly
// where it stopped. internal/fleet journals job-lifecycle events with
// it, internal/registry manifest mutations; each keeps its own event
// struct and its own digest of the replayed history.
//
// On replay a torn final line — a process killed mid-append — is
// tolerated and dropped, and Open cuts it off the file before the next
// append; a torn line in the middle is an error, because everything
// after it is suspect.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// maxLine caps one replayed event line (a registry manifest lists every
// chunk of an image).
const maxLine = 64 << 20

// Journal appends events of type E to a JSONL file. A nil *Journal is
// the in-memory mode: it accepts appends and drops them.
type Journal[E any] struct {
	mu  sync.Mutex
	f   *os.File
	seq int64
	// seqOf locates E's sequence-number field, which Append stamps.
	seqOf func(*E) *int64
}

// Open opens (creating if needed) the journal at path and returns it
// along with the replayed history; sequence numbers continue above the
// last replayed event's. A torn tail is cut off, and a final line missing
// only its newline is terminated, before the file opens for append: the
// next event must start on a line of its own, or the following replay
// would read it glued to the leftover bytes and drop it with them. The
// directory is synced after the open, so a journal the open created keeps
// its name through a crash along with the first event appended to it.
func Open[E any](path string, seqOf func(*E) *int64) (*Journal[E], []E, error) {
	events, end, terminated, err := replay[E](path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open: %w", err)
	}
	st, err := f.Stat()
	if err == nil && (st.Size() != end || !terminated) {
		if err = f.Truncate(end); err == nil && !terminated {
			_, err = f.Write([]byte{'\n'})
		}
		if err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		_ = f.Close() // the repair error is the one to report
		return nil, nil, fmt.Errorf("journal: repair tail: %w", err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		_ = f.Close() // the sync error is the one to report
		return nil, nil, err
	}
	j := &Journal[E]{f: f, seqOf: seqOf}
	if n := len(events); n > 0 {
		j.seq = *seqOf(&events[n-1])
	}
	return j, events, nil
}

// SyncDir fsyncs a directory. Syncing a file makes its bytes durable,
// not the directory entry naming it: after creating or renaming a file
// whose existence a caller is about to acknowledge, sync its directory.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}

// scanLine is bufio.ScanLines keeping each line's terminator, so replay
// can tell how many bytes a line spans and whether the last one ended.
func scanLine(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// replay reads every well-formed event line of the journal at path,
// tolerating only a torn tail. It also returns where the well-formed
// history ends — the offset the next append belongs at — and whether the
// line ending there carries its newline. A missing file is an empty
// history.
func replay[E any](path string) (events []E, end int64, terminated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, true, nil
		}
		return nil, 0, false, fmt.Errorf("journal: replay: %w", err)
	}
	defer func() {
		// Read-only descriptor; the scanner has already surfaced errors.
		_ = f.Close()
	}()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	sc.Split(scanLine)
	torn := false
	terminated = true
	var off int64
	for sc.Scan() {
		line := sc.Bytes()
		off += int64(len(line))
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			continue
		}
		if torn {
			return nil, 0, false, fmt.Errorf("journal: %s: malformed event mid-file", path)
		}
		var ev E
		if err := json.Unmarshal(line, &ev); err != nil {
			// Possibly the torn tail of a crashed append: accept only if
			// nothing follows.
			torn = true
			continue
		}
		events = append(events, ev)
		end, terminated = off, line[len(line)-1] == '\n'
	}
	if err := sc.Err(); err != nil {
		return nil, 0, false, fmt.Errorf("journal: replay: %w", err)
	}
	return events, end, terminated, nil
}

// Append journals one event durably (write + fsync) and stamps its
// sequence number. Safe for concurrent use.
func (j *Journal[E]) Append(ev E) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	j.seq++
	*j.seqOf(&ev) = j.seq
	data, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	data = append(data, '\n')
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Close closes the journal file. It is idempotent.
func (j *Journal[E]) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}
