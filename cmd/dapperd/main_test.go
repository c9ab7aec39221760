package main

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/fleet"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/registry"
)

const counterSrc = `
var data[4096] int;
var acc int;
func fill() {
	var i int;
	for i = 0; i < 4096; i = i + 1 {
		data[i] = (i % 251) + 1;
	}
}
func bump(i int) {
	acc = acc + data[(i * 7) % 4096];
}
func main() {
	var i int;
	fill();
	for i = 0; i < 6000; i = i + 1 {
		bump(i);
	}
	printi(acc);
}`

// pushCheckpoint stores a mid-run checkpoint of counterSrc (installed as
// "counter") into the store and returns the manifest ID.
func pushCheckpoint(t *testing.T, store *registry.Store) string {
	t.Helper()
	pair, err := compiler.Compile(counterSrc)
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

// TestDaemonRegistryCloneJob is the daemon-level end-to-end path of the
// registry clone feature: dapperd flags open the store, the manager gets
// it via Config.Registry, and a clone job submitted over the control
// socket (what dapperctl submit -manifest -clone sends) restores the
// stored checkpoint and completes.
func TestDaemonRegistryCloneJob(t *testing.T) {
	dir := t.TempDir()
	o, err := parseFlags([]string{
		"-socket", filepath.Join(dir, "d.sock"),
		"-journal", filepath.Join(dir, "d.journal"),
		"-registry", filepath.Join(dir, "reg"),
		"-xeons", "1", "-pis", "1", "-cap", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, store, err := buildManager(o)
	if err != nil {
		t.Fatal(err)
	}
	if store == nil {
		t.Fatal("buildManager with -registry returned a nil store")
	}
	defer func() { _ = store.Close() }() // plain teardown
	if err := m.RegisterProgram("counter", counterSrc); err != nil {
		t.Fatal(err)
	}
	manifest := pushCheckpoint(t, store)

	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := m.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	srv, err := fleet.Serve(m, o.socket)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }() // plain teardown

	resp, err := fleet.Call(o.socket, fleet.Request{Op: fleet.OpSubmit, Spec: &fleet.JobSpec{
		Program: "counter", Manifest: manifest, Clone: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	jobs, err := fleet.Call(o.socket, fleet.Request{Op: fleet.OpJobs})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, j := range jobs.Jobs {
		if j.ID != resp.JobID {
			continue
		}
		found = true
		if j.State != "done" {
			t.Fatalf("clone job state %s (err %q), want done", j.State, j.Err)
		}
		if j.Mode() != "clone" || j.Spec.Clone != 3 || j.Spec.Manifest != manifest {
			t.Fatalf("clone job: mode=%s clones=%d manifest=%.12s", j.Mode(), j.Spec.Clone, j.Spec.Manifest)
		}
	}
	if !found {
		t.Fatalf("job %d missing from jobs listing", resp.JobID)
	}
}
