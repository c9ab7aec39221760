package criu_test

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
)

// TestChainLinksNeverWritten: FlattenChain and AdvanceBase load every
// link without copying it and hand pages from set to set by reference.
// Over a three-link delta chain, neither they nor any write through the
// sets they return may change a byte of any link's pages.img.
func TestChainLinksNeverWritten(t *testing.T) {
	k, p, pair := goldenProc(t, "rediska")
	mon := monitor.New(k, p, pair.Meta)
	var chain []*criu.ImageDir
	var snaps [][]byte
	var base *criu.PageSet
	unchanged := func(when string) {
		t.Helper()
		for i, dir := range chain[:len(snaps)] {
			if got, _ := dir.Get("pages.img"); !bytes.Equal(got, snaps[i]) {
				t.Fatalf("%s: chain link %d's pages.img changed", when, i)
			}
		}
	}
	for round := 0; round < 3; round++ {
		if round > 0 {
			if err := mon.ResumeLocal(); err != nil {
				t.Fatal(err)
			}
			goldenAdvance(t, k, p, "rediska", round)
		}
		if err := mon.Pause(1 << 20); err != nil {
			t.Fatal(err)
		}
		opts := criu.DumpOpts{TrackMem: true}
		if round > 0 {
			opts.Parent, opts.DeltaBase = chain[round-1], base
		}
		dir, err := criu.Dump(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if round > 0 && criu.DumpedPages(dir) == 0 {
			t.Fatalf("round %d dumped no page; the chain would not exercise the merge", round)
		}
		chain = append(chain, dir)
		pages, _ := dir.Get("pages.img")
		snaps = append(snaps, bytes.Clone(pages))
		if base, err = criu.AdvanceBase(base, dir); err != nil {
			t.Fatal(err)
		}
		unchanged("AdvanceBase")
	}

	flat, err := criu.FlattenChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	unchanged("FlattenChain")
	want := flat.Marshal()
	// scribble writes one word into every data page of the chain's resolved
	// content, which is what the base holds. The addresses come from the
	// flattened directory, not from storing the base: a Store would end the
	// base's ownership of its pages before the writes test it.
	scribble := func(ps *criu.PageSet) {
		t.Helper()
		for _, addr := range pagesByClass(t, flat)[image.PageData] {
			if err := ps.WriteU64(addr+8, 0xfeedfacefeedface); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The base borrows pages from all three links: writing every page of
	// it must copy each first.
	scribble(base)
	unchanged("writes through the AdvanceBase base")
	// A page the base privatised and a later round replaces is borrowed
	// again, whatever the base owned at that address before.
	if base, err = criu.AdvanceBase(base, chain[2]); err != nil {
		t.Fatal(err)
	}
	scribble(base)
	unchanged("writes through a re-advanced base")

	for i, dir := range chain {
		ps, err := criu.LoadPageSet(dir)
		if err != nil {
			t.Fatal(err)
		}
		// A delta page refuses word writes by design.
		for _, addr := range pagesByClass(t, dir)[image.PageData] {
			if err := ps.WriteU64(addr, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	unchanged("writes through each link's own PageSet")
	again, err := criu.FlattenChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Marshal(), want) {
		t.Fatal("the chain flattens differently after writes through sets loaded from it")
	}
}

// TestRestoreNeverWritesItsDirectory: a restore adopts pages.img in place,
// so the directory's bytes are the restored process's frames until it
// writes them, and every restore of the directory reads the same bytes.
// Of two processes restored from one directory, the first writes a data
// page, the flag page and a text page it adopted; neither the directory
// nor anything the second reads may change.
func TestRestoreNeverWritesItsDirectory(t *testing.T) {
	src, pair := pausedDupPair(t)
	dir, err := criu.Dump(src, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	prov := criu.MapProvider{"/bin/dup.sx86": pair.X86}
	sum := sha256.Sum256(dir.Marshal())
	var procs [2]*kernel.Process
	for i := range procs {
		if procs[i], err = criu.Restore(kernel.New(kernel.Config{Cores: 2}), dir, prov); err != nil {
			t.Fatal(err)
		}
	}
	first, second := procs[0].AS, procs[1].AS
	seen := asSnapshot(second)

	writes := map[string]uint64{"flag": isa.FlagAddr}
	first.MappedPages(func(v mem.VMA, idx uint64, _ []byte) bool {
		name := map[mem.VMAKind]string{mem.VMAText: "text", mem.VMAData: "data"}[v.Kind]
		if _, taken := writes[name]; name != "" && !taken && idx != isa.FlagAddr/mem.PageSize {
			writes[name] = idx * mem.PageSize
		}
		return false
	})
	if len(writes) != 3 {
		t.Fatalf("want a text page, a data page and the flag page to write, found %v", writes)
	}
	breaks := first.CowBreaks()
	for name, addr := range writes {
		if err := first.WriteU64(addr+8, 0xfeedfacefeedface); err != nil {
			t.Fatalf("%s page: %v", name, err)
		}
	}
	if got := first.CowBreaks() - breaks; got != 2 {
		t.Errorf("writing the text and data pages broke %d shares, want 2 (restore broke the flag page's)", got)
	}
	if sha256.Sum256(dir.Marshal()) != sum {
		t.Error("writes in a restored process reached the directory it was restored from")
	}
	if !bytes.Equal(asSnapshot(second), seen) {
		t.Error("writes in one restored process reached another restored from the same directory")
	}
}
