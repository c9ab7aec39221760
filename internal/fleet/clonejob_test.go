package fleet

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/registry"
)

// pushCheckpoint materializes a mid-run checkpoint of the counter
// program into the store and returns its manifest ID.
func pushCheckpoint(t *testing.T, store *registry.Store) string {
	t.Helper()
	pair, err := compiler.Compile(counter)
	if err != nil {
		t.Fatal(err)
	}
	ref := cluster.NewNode(cluster.PiSpec)
	ref.Install("counter", pair)
	rp, err := ref.Start("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.K.Run(rp); err != nil {
		t.Fatal(err)
	}

	// What `dapperctl clone` does: pause mid-run on a node of the clones'
	// architecture, dump, push.
	src := cluster.NewNode(cluster.PiSpec)
	src.Install("counter", pair)
	p, err := src.Start("counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.K.RunBudget(p, rp.VCycles/2); err != nil {
		t.Fatal(err)
	}
	if err := monitor.New(src.K, p, pair.Meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := store.Push(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m.ID
}

// TestCloneJobSurvivesRestart: a clone job journaled as pending replays
// as pending and completes on the restarted manager, and one whose "done"
// event reached the journal — forged here, as if the process died right
// after the append — replays as done and never runs again.
func TestCloneJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t)
	manifest := pushCheckpoint(t, store)

	cfg := fastConfig()
	cfg.Journal = filepath.Join(dir, "fleet.jsonl")
	cfg.Registry = store

	// Lifetime 1: two clone jobs submitted. The manager is never
	// started, so both sit Pending.
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddNode("pi0", cluster.PiSpec, 2); err != nil {
		t.Fatal(err)
	}
	if err := m1.RegisterProgram("counter", counter); err != nil {
		t.Fatal(err)
	}
	idA, err := m1.Submit(JobSpec{Program: "counter", Manifest: manifest, Clone: 2, DstNode: "pi0"})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := m1.Submit(JobSpec{Program: "counter", Manifest: manifest, DstNode: "pi0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.journal.Append(Event{Type: "done", Job: idB}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Stop(); err != nil {
		t.Fatal(err)
	}

	// Lifetime 2: replay, then run what is still pending.
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(t, m2)
	if v, _ := m2.Job(idB); v.State != "done" {
		t.Fatalf("job B after replay: %s, want done", v.State)
	}
	if v, _ := m2.Job(idA); v.State != "pending" {
		t.Fatalf("job A after replay: %s, want pending", v.State)
	}
	if err := m2.AddNode("pi0", cluster.PiSpec, 2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m2.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	if v, _ := m2.Job(idA); v.State != "done" {
		t.Fatalf("job A after restart: state %s (err %q)", v.State, v.Err)
	}
	if v, _ := m2.Job(idB); v.Attempts != 0 {
		t.Fatalf("job B ran %d attempts after it replayed as done", v.Attempts)
	}
}

// TestReplayedCloneJobNeedsRegistry: a journal holding a pending clone job
// opens only with a registry that holds the job's manifest, and the
// refusal names the job. Replaying it anyway would hand the scheduler a
// job with nothing to restore from.
func TestReplayedCloneJobNeedsRegistry(t *testing.T) {
	store := openStore(t)
	cfg := fastConfig()
	cfg.Journal = filepath.Join(t.TempDir(), "fleet.jsonl")
	cfg.Registry = store
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddNode("pi0", cluster.PiSpec, 1); err != nil {
		t.Fatal(err)
	}
	if err := m1.RegisterProgram("counter", counter); err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(JobSpec{Program: "counter", Manifest: pushCheckpoint(t, store), DstNode: "pi0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Stop(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		store *registry.Store
	}{
		{"no registry", nil},
		{"manifest missing", openStore(t)},
	} {
		cfg.Registry = tc.store
		m2, err := NewManager(cfg)
		if err == nil {
			stopManager(t, m2)
			t.Fatalf("%s: the journal replayed", tc.name)
		}
		if want := fmt.Sprintf("job %d", id); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: refusal %q does not name %s", tc.name, err, want)
		}
	}
}

// TestCloneJobRefusals: a clone job restores a stored checkpoint, so a
// fault plan (which acts on a page transport it has none of) and a wire
// codec (it sends nothing over a wire) are refused at submit, with the
// rule named. The registry holds the manifest, so nothing else refuses
// them.
func TestCloneJobRefusals(t *testing.T) {
	store := openStore(t)
	cfg := fastConfig()
	cfg.Registry = store
	m := mixedFleet(t, cfg, 1)
	defer stopManager(t, m)
	manifest := pushCheckpoint(t, store)
	faults := &FaultPlan{FailAttempts: 1, Faults: &criu.FaultSpec{FailRate: 1}}
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"fault plan", JobSpec{Program: "counter", Manifest: manifest, Faults: faults}, "fault plans require a lazy job"},
		{"codec", JobSpec{Program: "counter", Manifest: manifest, Opts: JobOpts{Codec: "flate"}}, "codec do not apply"},
	} {
		_, err := m.Submit(tc.spec)
		if err == nil {
			t.Errorf("%s: clone job accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refusal %q does not say %q", tc.name, err, tc.want)
		}
	}
	if _, err := m.Submit(JobSpec{Program: "counter", Manifest: manifest}); err != nil {
		t.Errorf("plain clone job refused: %v", err)
	}
}
