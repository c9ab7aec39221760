package fleet

import (
	"path/filepath"
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
	m, _, err := store.Push(dir, registry.PushOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return m.ID
}

// TestCloneJobPinsManifestAcrossReplay is the crash-window proof for the
// two-journal design: job states live in the fleet journal, manifest
// pins in the registry journal, and a crash can land exactly between
// the fsync of a job-completion event and the matching refcount update.
// The test forges that crash — a "done" event durably journaled, the
// Unref never issued — restarts the manager, and proves that (a) replay
// reconciliation releases the leaked pin, (b) no chunk is GC'd while a
// replayed pending job still references the manifest, and (c) the
// pending job then executes from those chunks and its own release makes
// the checkpoint collectable.
func TestCloneJobPinsManifestAcrossReplay(t *testing.T) {
	dir := t.TempDir()
	store, err := registry.Open(filepath.Join(dir, "registry"), registry.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store.Close() }() // plain teardown
	manifest := pushCheckpoint(t, store)

	cfg := fastConfig()
	cfg.Journal = filepath.Join(dir, "fleet.jsonl")
	cfg.Registry = store

	// Lifetime 1: two clone jobs submitted, both pinning the manifest.
	// The manager is never started, so both sit Pending.
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
	if got := store.Manifest(manifest).Refs(); got != 2 {
		t.Fatalf("manifest refs after two submits: %d, want 2", got)
	}
	// The crash: job B's completion event reaches the fleet journal
	// (fsync'd by Append) but the process dies before the registry Unref.
	if err := m1.journal.Append(Event{Type: "done", Job: idB}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Stop(); err != nil {
		t.Fatal(err)
	}

	// Lifetime 2: replay. Reconciliation must release B's leaked pin and
	// keep A's.
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(t, m2)
	if got := store.Manifest(manifest).Refs(); got != 1 {
		t.Fatalf("manifest refs after replay: %d, want 1 (job A pending, job B done)", got)
	}
	if v, _ := m2.Job(idB); v.State != "done" {
		t.Fatalf("job B after replay: %s, want done", v.State)
	}

	// GC with the replayed pending job's pin live must sweep nothing.
	gst, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gst.SweptManifests != 0 || gst.SweptChunks != 0 {
		t.Fatalf("GC swept %d manifests / %d chunks under a replayed pending job's pin",
			gst.SweptManifests, gst.SweptChunks)
	}

	// The pending job executes from the surviving chunks.
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
	if got := store.Manifest(manifest).Refs(); got != 0 {
		t.Fatalf("manifest refs after job A completed: %d, want 0", got)
	}
	// Nothing pins the checkpoint now; GC reclaims it fully.
	gst, err = store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gst.SweptManifests == 0 || gst.SweptChunks == 0 {
		t.Fatalf("final GC swept %d manifests / %d chunks, want both nonzero",
			gst.SweptManifests, gst.SweptChunks)
	}
	if st := store.Stat(); st.Chunks != 0 || st.Manifests != 0 {
		t.Fatalf("store not empty after final GC: %+v", st)
	}
}
