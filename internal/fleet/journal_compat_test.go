package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// replayJournal is what a restarting daemon reads back from the journal
// at path.
func replayJournal(path string) ([]Event, error) {
	j, events, err := openJournal(path)
	if err != nil {
		return nil, err
	}
	return events, j.Close()
}

// TestJournalRawCodecJob: "raw" is no longer a codec name, but an old
// journal may still hold it. Such a line must cost exactly its own job —
// failed with the unknown-codec error — never the daemon, and never the
// jobs queued around it.
func TestJournalRawCodecJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.journal")
	lines := `{"seq":1,"type":"submit","job":1,"spec":{"program":"counter","run_frac":0.5,"opts":{"codec":"raw"},"max_retries":-1}}` + "\n" +
		`{"seq":2,"type":"submit","job":2,"spec":{"program":"counter","run_frac":0.5,"opts":{"codec":"none"}}}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Journal = path
	m := mixedFleet(t, cfg, 1)
	defer stopManager(t, m)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Jobs() {
		switch v.ID {
		case 1:
			if v.State != "failed" || !strings.Contains(v.Err, `unknown codec "raw"`) {
				t.Errorf("job 1: state %s err %q, want failed with the unknown-codec error", v.State, v.Err)
			}
		case 2:
			if v.State != "done" {
				t.Errorf("job 2: state %s err %q, want done", v.State, v.Err)
			}
		}
	}
}
