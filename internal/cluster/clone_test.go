package cluster_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/registry"
)

// TestCloneFanOut restores one stored checkpoint onto N nodes at once:
// every clone must finish with byte-identical output, and the clones
// must share resident page frames until their first writes.
func TestCloneFanOut(t *testing.T) {
	_, pi, pair := setup(t)
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("work", pair)
	want := nativeOut(t, ref)

	store, err := registry.Open(t.TempDir(), registry.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store.Close() }() // read-side close; nothing to flush

	// Produce a checkpoint manifest the way `dapperctl clone` does: pause
	// mid-run on a node of the clones' architecture, dump, push.
	p, err := pi.Start("work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pi.K.RunBudget(p, 200_000); err != nil {
		t.Fatal(err)
	}
	if err := monitor.New(pi.K, p, pair.Meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	manifest, _, err := store.Push(dir)
	if err != nil {
		t.Fatal(err)
	}
	prefix := p.ConsoleString()

	const n = 4
	targets := make([]*cluster.Node, n)
	for i := range targets {
		node := cluster.NewNode(cluster.PiSpec)
		node.Install("work", pair)
		targets[i] = node
	}
	reg := obs.New()
	cres, err := cluster.CloneFromRegistry(store, manifest.ID, targets, cluster.CloneOpts{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Procs) != n {
		t.Fatalf("clone produced %d procs, want %d", len(cres.Procs), n)
	}
	if cres.SharedPages != criu.DumpedPages(dir) {
		t.Fatalf("clones adopted %d pages, want the checkpoint's %d", cres.SharedPages, criu.DumpedPages(dir))
	}
	if got := reg.Counter("clone.shared_frames").Value(); got != uint64(cres.SharedPages) {
		t.Errorf("clone.shared_frames = %d, want %d", got, cres.SharedPages)
	}
	// Before running, each clone holds shared copy-on-write pages (the
	// restore itself breaks at most a couple: the DAPPER flag clear and
	// any page it shares).
	for i, cp := range cres.Procs {
		if cp.AS.SharedResidentPages() == 0 {
			t.Fatalf("clone %d shares no resident pages before first write", i)
		}
	}
	for i, cp := range cres.Procs {
		if err := targets[i].K.Run(cp); err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
		if got := prefix + cp.ConsoleString(); got != want {
			t.Errorf("clone %d output %q, want %q", i, got, want)
		}
		if cp.AS.CowBreaks() == 0 {
			t.Errorf("clone %d ran to completion without a single cow break", i)
		}
	}
	if got := reg.Counter("clone.count").Value(); got != n {
		t.Errorf("clone.count = %d, want %d", got, n)
	}
}

// TestCloneRefusesDamagedChain: the store checks nothing about an image,
// so a pulled one is verified before any target restores it. The last link
// of the corpus's skipped-in_parent chain is sound as a link, but alone it
// defers pages to a parent no one will supply; the clone is refused by
// invariant name before any target adopts a process.
func TestCloneRefusesDamagedChain(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "imgcheck", "testdata", "skipped_in_parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(data, &docs); err != nil {
		t.Fatal(err)
	}
	store, err := registry.Open(t.TempDir(), registry.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store.Close() }() // read-side close; nothing to flush
	link, err := criu.EncodeJSON(docs[len(docs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := imgcheck.VerifyLink(link); err != nil {
		t.Fatalf("the last link is not sound on its own: %v", err)
	}
	manifest, _, err := store.Push(link)
	if err != nil {
		t.Fatal(err)
	}
	targets := []*cluster.Node{cluster.NewNode(cluster.XeonSpec), cluster.NewNode(cluster.XeonSpec)}
	_, err = cluster.CloneFromRegistry(store, manifest.ID, targets, cluster.CloneOpts{})
	if err == nil || !strings.Contains(err.Error(), imgcheck.InvInParent) {
		t.Fatalf("clone of the lone incremental link: err %v, want a refusal naming %s", err, imgcheck.InvInParent)
	}
	for i, node := range targets {
		if n := node.K.Live(); n != 0 {
			t.Errorf("target %d adopted %d processes", i, n)
		}
	}
}
