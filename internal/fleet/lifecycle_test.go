package fleet

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/registry"
)

// openStore opens a checkpoint registry in a temporary directory, closed
// when the test ends.
func openStore(t *testing.T) *registry.Store {
	t.Helper()
	store, err := registry.Open(filepath.Join(t.TempDir(), "registry"), registry.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() }) // plain teardown
	return store
}

// TestJobsLeaveNoProcesses pins that a finished job leaves nothing in
// any node's kernel: not the restored process once its output is read,
// not the clones once compared, and not a source process that rollback
// resumed for a retry the job never got. Before the fix every finished
// migration left one process behind and a three-way clone job three.
func TestJobsLeaveNoProcesses(t *testing.T) {
	alwaysFail := func(attempts int) *FaultPlan {
		return &FaultPlan{FailAttempts: attempts, Faults: &criu.FaultSpec{Seed: 7, FailRate: 1.0}}
	}
	cases := []struct {
		name  string
		spec  JobSpec
		want  JobState
		clone bool
	}{
		{name: "vanilla", spec: JobSpec{Program: "counter"}, want: "done"},
		{name: "lazy", spec: JobSpec{Program: "counter", Opts: JobOpts{Lazy: true}}, want: "done"},
		{name: "precopy", spec: JobSpec{Program: "counter", Opts: JobOpts{PreCopy: true}}, want: "done"},
		{name: "retried", spec: JobSpec{Program: "counter", Opts: JobOpts{Lazy: true}, Faults: alwaysFail(1)}, want: "done"},
		{name: "exhausted", spec: JobSpec{Program: "counter", MaxRetries: 2, Opts: JobOpts{Lazy: true}, Faults: alwaysFail(99)}, want: "failed"},
		{name: "clone", spec: JobSpec{Program: "counter", Clone: 3, DstNode: "pi0"}, want: "done", clone: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig()
			spec := tc.spec
			if tc.clone {
				cfg.Registry = openStore(t)
				spec.Manifest = pushCheckpoint(t, cfg.Registry)
			}
			m := mixedFleet(t, cfg, 2)
			defer stopManager(t, m)
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			id, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.WaitIdle(time.Minute); err != nil {
				t.Fatal(err)
			}
			if v, _ := m.Job(id); v.State != tc.want {
				t.Fatalf("state %s (err %q), want %s", v.State, v.Err, tc.want)
			}
			live := 0
			for _, r := range m.Report().Nodes {
				n, _ := m.NodeByName(r.Name)
				live += n.Node.K.Live()
			}
			if live != 0 {
				t.Errorf("%d processes left in node kernels after the job ended", live)
			}
		})
	}
}

// TestCloneJobRetries drives a clone job's retry path to exhaustion. The
// fleet registers its program as "other" while the manifest is a
// checkpoint of "counter", so no node has the binary and every restore
// fails; a clone job retries every failure, so it must spend its whole
// budget and end failed.
func TestCloneJobRetries(t *testing.T) {
	store := openStore(t)
	manifest := pushCheckpoint(t, store)
	cfg := fastConfig()
	cfg.Registry = store
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(t, m)
	if err := m.AddNode("pi0", cluster.PiSpec, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterProgram("other", counter); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(JobSpec{Program: "other", Manifest: manifest, DstNode: "pi0", MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Job(id)
	if v.State != "failed" || v.Attempts != 3 {
		t.Fatalf("state %s after %d attempts (err %q), want failed after 3", v.State, v.Attempts, v.Err)
	}
	if got := m.Report().Retries; got != 2 {
		t.Errorf("fleet.retries = %d, want 2", got)
	}
}
