package core_test

import (
	"bytes"
	"testing"

	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/mem"
)

// TestRewriteNeverWritesBorrowedStackPages: RewriteThread reads the old
// stack out of page slices it borrows from the page set — no copy — while
// it writes the new layout over the same addresses. That is sound only
// because every stack write lands on a page the set allocates afresh.
// Pinned two ways on a four-thread dump: the pages.img a view was opened
// on is never written by any policy, and when the shuffle runs in the same
// view as the cross-ISA pass — whose freshly built stack pages the set
// owns, and would write in place — those pages survive it byte for byte.
// The one-view chain must also commit exactly what two views do.
func TestRewriteNeverWritesBorrowedStackPages(t *testing.T) {
	chain := []core.Policy{core.CrossISAPolicy{}, core.StackShufflePolicy{Seed: 7}}

	dir, bins := pausedDump(t, "streamcluster")
	loaded, _ := dir.Payload() // the dump's own pages: the source's frames
	pristine := make([][]byte, loaded.Len()/mem.PageSize)
	for i := range pristine {
		pristine[i] = bytes.Clone(loaded.Page(i))
	}
	ctx := &core.Context{Binaries: bins}

	v := image.Open(dir)
	if err := core.Apply(v, ctx, chain[0]); err != nil {
		t.Fatal(err)
	}
	ps, err := v.PageSet()
	if err != nil {
		t.Fatal(err)
	}
	type held struct{ page, was []byte }
	var stacks []held
	for _, c := range v.Cores {
		for a := c.StackLow; a < c.StackHigh; a += mem.PageSize {
			if pg := ps.Pages[a]; pg != nil {
				stacks = append(stacks, held{pg, bytes.Clone(pg)})
			}
		}
	}
	if len(stacks) < len(v.Cores) {
		t.Fatalf("%d stack pages over %d threads: the cross-ISA pass built no stacks to borrow", len(stacks), len(v.Cores))
	}
	if err := core.Apply(v, ctx, chain[1]); err != nil {
		t.Fatal(err)
	}
	for i, h := range stacks {
		if !bytes.Equal(h.page, h.was) {
			t.Fatalf("the shuffle wrote through borrowed stack page %d of the cross-ISA pass", i)
		}
	}
	v.Commit()
	for i, was := range pristine {
		if !bytes.Equal(loaded.Page(i), was) {
			t.Fatalf("a rewrite wrote into page %d of the pages.img its view was opened on", i)
		}
	}

	// Shuffling registered the instrumented binary over the destination
	// one; a second, separately committed run starts from fresh binaries.
	twice, bins2 := pausedDump(t, "streamcluster")
	for _, pol := range chain {
		if err := pol.Rewrite(twice, &core.Context{Binaries: bins2}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(dir.Marshal(), twice.Marshal()) {
		t.Error("two policies over one view commit different bytes than over two")
	}
}
