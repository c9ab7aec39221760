//go:build ignore

// gen_fixtures regenerates the broken-image-set corpus in this directory:
//
//	go run internal/imgcheck/testdata/gen_fixtures.go internal/imgcheck/testdata
//
// Each fixture is a JSON array of CRIT documents forming a checkpoint
// chain ordered oldest to newest (single-element arrays are lone image
// sets). Every file except ok_minimal.json deliberately violates exactly
// one invariant; imgcheck_test asserts the named invariant appears in the
// verifier's error. Keeping the corpus as CRIT JSON keeps it reviewable —
// the test encodes each document back to a binary image directory with
// criu.EncodeJSON before verifying.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/isa"
)

const (
	textLo  = 0x0040_0000
	textHi  = 0x0040_1000
	dataLo  = 0x1000_0000
	dataHi  = 0x1000_1000
	tlsLo   = 0x6000_0000
	tlsHi   = 0x6000_1000
	stackLo = 0x6FFF_0000
	stackHi = 0x7000_0000
	page    = 0x1000
)

// baseDoc returns a minimal self-contained image set that passes Verify:
// one sx86 thread parked in text, one data page with bytes, one zero
// stack page.
func baseDoc() *criu.CritDoc {
	core := &image.CoreImage{
		TID: 1, Arch: isa.SX86,
		StackLow: stackLo, StackHigh: stackHi, TLSBlock: tlsLo,
	}
	core.Regs.PC = textLo
	core.Regs.TLS = tlsLo
	return &criu.CritDoc{
		Inventory: &image.InventoryImage{Arch: isa.SX86, TIDs: []int{1}},
		MM: &image.MMImage{Brk: 0x2000_0000, VMAs: []image.VMAEntry{
			{Start: textLo, End: textHi, Kind: 1, Prot: 5},
			{Start: dataLo, End: dataHi, Kind: 2, Prot: 3},
			{Start: tlsLo, End: tlsHi, Kind: 5, Prot: 3},
			{Start: stackLo, End: stackHi, Kind: 4, Prot: 3},
		}},
		Files: &image.FilesImage{ExePath: "/bin/fixture.sx86"},
		Cores: []*image.CoreImage{core},
		Pagemap: &image.PagemapImage{Entries: []image.PagemapEntry{
			{Vaddr: dataLo, NrPages: 1},
			{Vaddr: stackHi - page, NrPages: 1, Zero: true},
		}},
		Pages: bytes.Repeat([]byte{0x41}, page),
	}
}

// emptyPages gives a doc a present-but-empty pages.img. CritDoc.Pages is
// omitempty, so a nil/empty Pages field would drop the file entirely and
// trip missing-image rather than the invariant the fixture targets; an
// Extra entry survives the JSON round-trip as a zero-length blob.
func emptyPages(d *criu.CritDoc) {
	d.Pages = nil
	d.Extra = map[string][]byte{"pages.img": {}}
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: gen_fixtures OUTDIR")
		os.Exit(1)
	}
	outDir := os.Args[1]

	fixtures := map[string][]*criu.CritDoc{}

	// Accepted by Verify: the corpus sanity anchor.
	fixtures["ok_minimal.json"] = []*criu.CritDoc{baseDoc()}

	// pagemap-order: second entry overlaps the first run.
	d := baseDoc()
	d.Pagemap.Entries = []image.PagemapEntry{
		{Vaddr: dataLo, NrPages: 1},
		{Vaddr: dataLo, NrPages: 1, Zero: true},
	}
	fixtures["pagemap_overlap.json"] = []*criu.CritDoc{d}

	// pagemap-order: entries shuffled out of address order.
	d = baseDoc()
	d.Pagemap.Entries = []image.PagemapEntry{
		{Vaddr: stackHi - page, NrPages: 1, Zero: true},
		{Vaddr: dataLo, NrPages: 1},
	}
	fixtures["pagemap_unsorted.json"] = []*criu.CritDoc{d}

	// pagemap-flags: one entry claims both zero and in_parent.
	d = baseDoc()
	d.Pagemap.Entries[1] = image.PagemapEntry{Vaddr: stackHi - page, NrPages: 1, Zero: true, InParent: true}
	fixtures["pagemap_flags.json"] = []*criu.CritDoc{d}

	// pagemap-mapped: the data page lies outside every VMA, where restore
	// has no slot to keep it in.
	d = baseDoc()
	d.Pagemap.Entries[0].Vaddr = 0x5000_0000
	fixtures["pagemap_unmapped.json"] = []*criu.CritDoc{d}

	// pages-bytes: a zero-flagged entry must carry no bytes, but pages.img
	// still holds a full page for it.
	d = baseDoc()
	d.Pagemap.Entries = []image.PagemapEntry{{Vaddr: stackHi - page, NrPages: 1, Zero: true}}
	fixtures["zero_with_bytes.json"] = []*criu.CritDoc{d}

	// pages-bytes: pagemap describes two data pages, pages.img holds one.
	d = baseDoc()
	d.Pagemap.Entries = []image.PagemapEntry{{Vaddr: dataLo, NrPages: 2}}
	d.MM.VMAs[1].End = dataLo + 2*page
	fixtures["truncated_pages.json"] = []*criu.CritDoc{d}

	// inparent-chain: the ROOT of a chain marks a page in_parent — the
	// reference can never terminate (a cycle squashed into a chain).
	root := baseDoc()
	root.Pagemap.Entries = []image.PagemapEntry{
		{Vaddr: dataLo, NrPages: 1, InParent: true},
		{Vaddr: stackHi - page, NrPages: 1, Zero: true},
	}
	emptyPages(root)
	delta := baseDoc()
	delta.Pagemap.Entries = []image.PagemapEntry{
		{Vaddr: dataLo, NrPages: 1, InParent: true},
		{Vaddr: stackHi - page, NrPages: 1, Zero: true},
	}
	emptyPages(delta)
	fixtures["cyclic_in_parent.json"] = []*criu.CritDoc{root, delta}

	// inparent-chain: a delta's in_parent page that no older link carries.
	root = baseDoc()
	delta = baseDoc()
	delta.Pagemap.Entries = []image.PagemapEntry{
		{Vaddr: dataLo + 0x10*page, NrPages: 1, InParent: true},
	}
	delta.MM.VMAs[1].End = dataLo + 0x11*page
	emptyPages(delta)
	fixtures["orphan_in_parent.json"] = []*criu.CritDoc{root, delta}

	// inparent-chain: link 2 marks in_parent a page that link 0 carries and
	// link 1 does not mention. The chain as of link 1 — what a full dump at
	// that checkpoint holds — has no such page, so there is nothing to
	// resolve it against; every link on its own passes VerifyLink.
	root = baseDoc()
	skip := baseDoc()
	skip.Pagemap.Entries = []image.PagemapEntry{{Vaddr: stackHi - page, NrPages: 1, Zero: true}}
	emptyPages(skip)
	delta = baseDoc()
	delta.Pagemap.Entries = []image.PagemapEntry{
		{Vaddr: dataLo, NrPages: 1, InParent: true},
		{Vaddr: stackHi - page, NrPages: 1, Zero: true},
	}
	emptyPages(delta)
	fixtures["skipped_in_parent.json"] = []*criu.CritDoc{root, skip, delta}

	// image-decode: core-1.img truncated mid-field (a varint header with
	// no value), as a partially-written checkpoint would leave it.
	d = baseDoc()
	d.Cores = nil
	d.Extra = map[string][]byte{"core-1.img": {0x08}}
	fixtures["truncated_core.json"] = []*criu.CritDoc{d}

	// missing-image: the inventory lists tid 2 but no core-2.img exists.
	d = baseDoc()
	d.Inventory.TIDs = []int{1, 2}
	fixtures["missing_core.json"] = []*criu.CritDoc{d}

	// exited-tid: tid 1 is listed live, with its core, and exited too.
	d = baseDoc()
	d.Inventory.Exited = []int{1}
	fixtures["exited_live.json"] = []*criu.CritDoc{d}

	// exited-tid: exited tid 2 carries a core image, which only a live
	// thread has.
	d = baseDoc()
	d.Inventory.Exited = []int{2}
	core2 := *d.Cores[0]
	core2.TID = 2
	d.Cores = append(d.Cores, &core2)
	fixtures["exited_core.json"] = []*criu.CritDoc{d}

	// core-pc: the thread's PC points outside every VMA.
	d = baseDoc()
	d.Cores[0].Regs.PC = 0xDEAD_0000
	fixtures["pc_unmapped.json"] = []*criu.CritDoc{d}

	// core-regs: an sx86 core with a live value beyond its 8-register file.
	d = baseDoc()
	d.Cores[0].Regs.R[12] = 7
	fixtures["sx86_highregs.json"] = []*criu.CritDoc{d}

	// core-stack: stack bounds inverted.
	d = baseDoc()
	d.Cores[0].StackLow, d.Cores[0].StackHigh = stackHi, stackLo
	fixtures["stack_inverted.json"] = []*criu.CritDoc{d}

	// vma-order: overlapping VMAs in mm.img.
	d = baseDoc()
	d.MM.VMAs[1].End = tlsLo + page
	fixtures["vma_overlap.json"] = []*criu.CritDoc{d}

	// vma-order: a VMA past the address-space layout, spanning 2^52 pages.
	d = baseDoc()
	d.MM.VMAs = append(d.MM.VMAs, image.VMAEntry{Start: stackHi, End: 0xFFFF_FFFF_FFFF_F000, Kind: 3, Prot: 3})
	fixtures["vma_huge.json"] = []*criu.CritDoc{d}

	// image-decode: the image a build with the retired within-dump page
	// dedup wrote — well-formed then: the second data page is a backwards
	// reference to the first (pagemap fields 6 and 7) and carries no
	// bytes. The typed pagemap can no longer say that, so it rides as the
	// raw file that build marshaled.
	d = baseDoc()
	d.MM.VMAs[1].End = dataLo + 2*page
	d.Pagemap = nil
	var pm imgproto.Encoder
	pmEntry := func(vaddr uint64, zero bool, dedupSrc uint64) {
		pm.Message(1, func(n *imgproto.Encoder) {
			n.Fixed64(1, vaddr)
			n.Uint64(2, 1)
			n.Bool(3, false)
			n.Bool(4, false)
			n.Bool(5, zero)
			if dedupSrc != 0 {
				n.Bool(6, true)
				n.Fixed64(7, dedupSrc)
			}
		})
	}
	pmEntry(dataLo, false, 0)
	pmEntry(dataLo+page, false, dataLo)
	pmEntry(stackHi-page, true, 0)
	d.Extra = map[string][]byte{"pagemap.img": pm.Bytes()}
	fixtures["dedup_retired.json"] = []*criu.CritDoc{d}

	for name, docs := range fixtures {
		out, err := json.MarshalIndent(docs, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
			os.Exit(1)
		}
		if err := os.WriteFile(filepath.Join(outDir, name), append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("wrote %d fixtures to %s\n", len(fixtures), outDir)
}
