package fleet

import (
	"encoding/json"
	"net"
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

// TestRetiredJobOptsIgnored: builds before the parallel pipeline, page
// dedup and the streamed restore were deleted journaled and submitted
// "workers", "dedup" and "stream" job options. A journal line carrying
// them must resume, and a submit carrying them must be accepted, as the
// same job without them. The second journal line is a record exactly as
// the last build with "stream" wrote it.
func TestRetiredJobOptsIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.journal")
	lines := `{"seq":1,"type":"submit","job":1,"spec":{"program":"counter","run_frac":0.5,"opts":{"workers":4,"dedup":true,"codec":"flate"}}}` + "\n" +
		`{"seq":2,"type":"submit","job":2,"spec":{"program":"counter","run_frac":0.5,"opts":{"stream":true},"max_retries":3}}` + "\n"
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
	socket := filepath.Join(dir, "d.sock")
	srv, err := Serve(m, socket)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()
	conn, err := net.Dial("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"submit","spec":{"program":"counter","opts":{"workers":4,"dedup":true,"stream":true}}}` + "\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil || !resp.OK {
		t.Fatalf("submit with retired options: resp %+v err %v", resp, err)
	}
	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	jobs := m.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("%d jobs, want the two journaled ones and the submitted one", len(jobs))
	}
	for _, v := range jobs {
		if v.State != "done" {
			t.Errorf("job %d: state %s err %q, want done", v.ID, v.State, v.Err)
		}
	}
	if v, _ := m.Job(1); v.Spec.Opts.Codec != "flate" || !v.Resumed {
		t.Errorf("journaled job resumed as %+v, want its flate codec kept", v)
	}
	if v, _ := m.Job(2); v.Mode() != "vanilla" || !v.Resumed {
		t.Errorf("journaled stream job resumed as %+v, want a plain vanilla job", v)
	}
}
