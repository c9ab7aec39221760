package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
)

func specPtr() *JobSpec {
	s := &JobSpec{Program: "counter"}
	if err := s.normalize(); err != nil {
		panic(err)
	}
	return s
}

// TestDigestEvents pins the replay semantics job by job: terminal states
// are final, a job in flight at the crash is requeued, retries carry
// over, and the next ID clears every journaled one.
func TestDigestEvents(t *testing.T) {
	events := []Event{
		{Type: "program", Name: "counter", Source: counter},
		{Type: "submit", Job: 1, Spec: specPtr()},
		{Type: "submit", Job: 2, Spec: specPtr()},
		{Type: "submit", Job: 3, Spec: specPtr()},
		{Type: "submit", Job: 4, Spec: specPtr()},
		{Type: "start", Job: 1, Attempt: 1, Src: "xeon0", Dst: "pi0"},
		{Type: "done", Job: 1},
		{Type: "start", Job: 2, Attempt: 1, Src: "xeon0", Dst: "pi0"},
		{Type: "retry", Job: 2, Err: "injected"},
		{Type: "start", Job: 2, Attempt: 2, Src: "xeon0", Dst: "pi1"},
		// Job 2 was mid-attempt at the crash; job 3 failed terminally;
		// job 4 never started.
		{Type: "failed", Job: 3, Err: "boom", Retries: 3},
	}
	st := digestEvents(events)
	if len(st.programs) != 1 || st.programs[0].Name != "counter" {
		t.Fatalf("programs: %+v", st.programs)
	}
	if st.nextID != 5 {
		t.Errorf("nextID %d, want 5", st.nextID)
	}
	byID := map[int]*Job{}
	for _, j := range st.jobs {
		byID[j.ID] = j
	}
	if len(byID) != 4 {
		t.Fatalf("%d jobs, want 4", len(byID))
	}
	if j := byID[1]; j.State != Done || j.Resumed {
		t.Errorf("job 1: %v resumed=%v, want done", j.State, j.Resumed)
	}
	if j := byID[2]; j.State != Pending || !j.Resumed || j.Retries != 1 || j.Src != "" {
		t.Errorf("job 2: %v resumed=%v retries=%d src=%q, want resumed pending with 1 retry and no src", j.State, j.Resumed, j.Retries, j.Src)
	}
	if j := byID[3]; j.State != Failed || j.Err != "boom" || j.Retries != 3 {
		t.Errorf("job 3: %v err=%q retries=%d, want terminal failure", j.State, j.Err, j.Retries)
	}
	if j := byID[4]; j.State != Pending || !j.Resumed {
		t.Errorf("job 4: %v resumed=%v, want resumed pending", j.State, j.Resumed)
	}
	// Duplicate submit lines: first one wins.
	dup := append(events, Event{Type: "submit", Job: 2, Spec: specPtr()})
	if got := len(digestEvents(dup).jobs); got != 4 {
		t.Errorf("duplicate submit created a job: %d jobs", got)
	}
}

// TestJournalRoundTrip appends through the real journal and replays it.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, history, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 0 {
		t.Fatalf("fresh journal has %d events", len(history))
	}
	for _, ev := range []Event{
		{Type: "submit", Job: 1, Spec: specPtr()},
		{Type: "start", Job: 1, Attempt: 1, Src: "a", Dst: "b"},
		{Type: "done", Job: 1},
	} {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, history, err = openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 3 {
		t.Fatalf("replayed %d events, want 3", len(history))
	}
	for i, ev := range history {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d: seq %d", i, ev.Seq)
		}
	}
}

// TestJournalTornTail verifies crash tolerance: a torn final line is
// dropped, but a malformed line mid-file poisons the replay.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	good := `{"seq":1,"type":"submit","job":1,"spec":{"program":"counter"}}` + "\n"
	if err := os.WriteFile(path, []byte(good+`{"seq":2,"type":"done","jo`), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := replayJournal(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("torn tail: %d events, want 1", len(events))
	}

	if err := os.WriteFile(path, []byte(good+"GARBAGE\n"+good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayJournal(path); err == nil || !strings.Contains(err.Error(), "mid-file") {
		t.Fatalf("mid-file corruption accepted: %v", err)
	}
}

// TestJournalAppendAfterTornTail (ROADMAP 4c): a daemon restarted over a
// torn tail keeps journaling, and the first event it appends must be
// there on the restart after that — not glued to the torn bytes.
func TestJournalAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	good := `{"seq":1,"type":"submit","job":1,"spec":{"program":"counter"}}` + "\n"
	if err := os.WriteFile(path, []byte(good+`{"seq":2,"type":"done","jo`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Event{Type: "done", Job: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay after append: %v", err)
	}
	if len(events) != 2 || events[1].Type != "done" || events[1].Seq != 2 {
		t.Fatalf("replayed %+v, want the submit and the appended done event", events)
	}
}

// TestNilJournal pins the in-memory mode: appends and close are no-ops.
func TestNilJournal(t *testing.T) {
	var j *journal
	if err := j.Append(Event{Type: "submit"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayMatchesJobs: replaying a finished fleet's journal
// rebuilds its job table — every job's spec, state, retry count and
// error — over a queue that covers each mode, a retried fault plan, an
// exhausted retry budget and a job allowed no retries.
func TestJournalReplayMatchesJobs(t *testing.T) {
	cfg := fastConfig()
	cfg.Journal = filepath.Join(t.TempDir(), "fleet.journal")
	m := mixedFleet(t, cfg, 2)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	fail := func(attempts int) *FaultPlan {
		return &FaultPlan{FailAttempts: attempts, Faults: &criu.FaultSpec{Seed: 7, FailRate: 1.0}}
	}
	lazy := JobOpts{Lazy: true}
	for _, spec := range []JobSpec{
		{Program: "counter"},
		{Program: "counter", Opts: lazy},
		{Program: "counter", Opts: JobOpts{PreCopy: true, Delta: true, Codec: "flate"}},
		{Program: "counter", Opts: lazy, Faults: fail(1)},
		{Program: "counter", Opts: lazy, Faults: fail(99), MaxRetries: 2},
		{Program: "counter", Opts: lazy, Faults: fail(1), MaxRetries: -1},
		{Program: "counter", MaxRetries: -1},
	} {
		if _, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	live := m.Jobs()
	events, err := replayJournal(cfg.Journal)
	if err != nil {
		t.Fatal(err)
	}
	replayed := digestEvents(events).jobs
	if len(replayed) != len(live) {
		t.Fatalf("replay has %d jobs, the fleet ran %d", len(replayed), len(live))
	}
	key := func(j Job) Job {
		return Job{ID: j.ID, Spec: j.Spec, State: j.State, Retries: j.Retries, Err: j.Err}
	}
	states := map[JobState]int{}
	for i, j := range live {
		if got, want := key(*replayed[i]), key(j); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d replays as %+v, ran as %+v", j.ID, got, want)
		}
		states[j.State]++
	}
	if states[Done] != 5 || states[Failed] != 2 {
		t.Errorf("states %v, want 5 done and 2 failed", states)
	}
}
