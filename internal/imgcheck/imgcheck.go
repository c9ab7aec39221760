// Package imgcheck statically verifies dumped checkpoint image sets
// before they are restored, migrated, or flattened — the image-level
// counterpart of the source-level analyzers in internal/analysis.
//
// Every check encodes an invariant the restore path otherwise assumes
// silently: pagemap entries sorted and non-overlapping, pages.img sized
// exactly to its data entries (a zero/lazy/in_parent entry carries no
// bytes), in_parent chains resolvable and acyclic, core images decodable
// and register files within each ISA's width, thread PCs and stacks
// inside mapped VMAs, and cross-ISA symbol addresses aligned. A corrupt
// or truncated image set fails fast with the *named* invariant instead
// of a mid-restore panic.
//
// Entry points, cheapest first:
//
//   - VerifyLink: structural checks on one directory, permitting lazy and
//     in_parent entries — the pre-flight criu.Restore and the pre-copy
//     receive path run on every directory they touch.
//   - Verify: VerifyLink plus self-containedness (no in_parent orphans)
//     and address-space checks — what `dapper-crit verify` runs.
//   - VerifyChain: Verify semantics over an incremental chain ordered
//     oldest to newest, proving every in_parent page resolves through
//     older links and the root terminates the chain (acyclicity).
//   - VerifyMeta: cross-ISA stack-map alignment of a binary's metadata.
package imgcheck

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// Named invariants. Error messages are prefixed with these so a failing
// caller (and its tests) can identify exactly which property broke.
const (
	InvMissingImage  = "missing-image"  // required image file absent
	InvImageDecode   = "image-decode"   // an image fails to decode (truncation/corruption)
	InvVMAOrder      = "vma-order"      // mm VMAs unsorted, overlapping, inverted, or unaligned
	InvPagemapOrder  = "pagemap-order"  // pagemap entries unsorted, overlapping, or empty
	InvPagemapFlags  = "pagemap-flags"  // entry claims more than one of lazy/in_parent/zero
	InvPagemapMapped = "pagemap-mapped" // pagemap page outside every VMA
	InvPagesBytes    = "pages-bytes"    // pages.img size != data pages × page size
	InvInParent      = "inparent-chain" // in_parent page unresolvable (orphan, cycle, truncated chain)
	InvCoreRegs      = "core-regs"      // register file exceeds the core's ISA width
	InvCoreStack     = "core-stack"     // thread stack range inverted or unmapped
	InvCorePC        = "core-pc"        // thread PC outside every VMA
	InvCoreTID       = "core-tid"       // core images and inventory TIDs disagree
	InvSymbolAlign   = "symbol-align"   // per-ISA site PCs fall outside their function's unified address range
	InvDeltaChain    = "delta-chain"    // delta page with no in-chain content to apply the XOR to
)

// Violation is one broken invariant.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) Error() string {
	return fmt.Sprintf("imgcheck: %s: %s", v.Invariant, v.Detail)
}

// Report accumulates violations across checks.
type Report struct {
	Violations []Violation
}

func (r *Report) add(inv, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// Err returns nil for a clean report, the single Violation when there is
// exactly one, and an aggregate error naming every invariant otherwise.
func (r *Report) Err() error {
	switch len(r.Violations) {
	case 0:
		return nil
	case 1:
		return r.Violations[0]
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.Error()
	}
	return fmt.Errorf("%d image invariants violated: %s", len(r.Violations), strings.Join(msgs, "; "))
}

// decoded is the typed view of one directory, built once per verification.
type decoded struct {
	inv      *image.InventoryImage
	mm       *image.MMImage
	pm       *image.PagemapImage
	pagesLen int // size of pages.img; its bytes are never read here
	cores    map[int]*image.CoreImage
}

// decode unmarshals the required images, reporting InvMissingImage /
// InvImageDecode, and returns nil if the directory is too broken to check
// further.
func decode(dir *image.ImageDir, r *Report) *decoded {
	d := &decoded{cores: make(map[int]*image.CoreImage)}
	ok := true
	req := func(name string) []byte {
		raw, has := dir.Get(name)
		if !has {
			r.add(InvMissingImage, "%s absent", name)
			ok = false
		}
		return raw
	}
	if raw := req("inventory.img"); raw != nil {
		v, err := image.UnmarshalInventory(raw)
		if err != nil {
			r.add(InvImageDecode, "inventory.img: %v", err)
			ok = false
		} else {
			d.inv = v
		}
	}
	if raw := req("mm.img"); raw != nil {
		v, err := image.UnmarshalMM(raw)
		if err != nil {
			r.add(InvImageDecode, "mm.img: %v", err)
			ok = false
		} else {
			d.mm = v
		}
	}
	if raw := req("pagemap.img"); raw != nil {
		v, err := image.UnmarshalPagemap(raw)
		if err != nil {
			r.add(InvImageDecode, "pagemap.img: %v", err)
			ok = false
		} else {
			d.pm = v
		}
	}
	if raw := req("files.img"); raw != nil {
		if _, err := image.UnmarshalFiles(raw); err != nil {
			r.add(InvImageDecode, "files.img: %v", err)
		}
	}
	// pages.img may legitimately be empty, but must be present.
	pages, has := dir.Payload()
	if !has {
		r.add(InvMissingImage, "pages.img absent")
	}
	d.pagesLen = pages.Len()
	if d.inv != nil {
		seen := make(map[int]bool)
		for _, tid := range d.inv.TIDs {
			if seen[tid] {
				r.add(InvCoreTID, "inventory lists tid %d twice", tid)
				continue
			}
			seen[tid] = true
			name := fmt.Sprintf("core-%d.img", tid)
			raw, has := dir.Get(name)
			if !has {
				r.add(InvMissingImage, "%s absent (tid %d in inventory)", name, tid)
				continue
			}
			core, err := image.UnmarshalCore(raw)
			if err != nil {
				r.add(InvImageDecode, "%s: %v", name, err)
				continue
			}
			if core.TID != tid {
				r.add(InvCoreTID, "%s carries tid %d", name, core.TID)
				continue
			}
			d.cores[tid] = core
		}
		for _, name := range dir.Names() {
			var tid int
			if n, _ := fmt.Sscanf(name, "core-%d.img", &tid); n == 1 && !seen[tid] {
				r.add(InvCoreTID, "%s has no inventory entry", name)
			}
		}
	}
	if !ok {
		return nil
	}
	return d
}

// checkStructure runs the per-directory structural invariants shared by
// VerifyLink and Verify: VMA ordering, pagemap ordering and flags, and the
// exact pages.img byte count.
func checkStructure(d *decoded, r *Report) {
	for i, v := range d.mm.VMAs {
		if v.Start >= v.End || v.Start%mem.PageSize != 0 || v.End%mem.PageSize != 0 {
			r.add(InvVMAOrder, "vma %d [0x%x,0x%x) inverted or unaligned", i, v.Start, v.End)
		}
		if i > 0 && v.Start < d.mm.VMAs[i-1].End {
			r.add(InvVMAOrder, "vma %d [0x%x,0x%x) overlaps or precedes [0x%x,0x%x)",
				i, v.Start, v.End, d.mm.VMAs[i-1].Start, d.mm.VMAs[i-1].End)
		}
	}
	for i, en := range d.pm.Entries {
		if en.NrPages == 0 {
			r.add(InvPagemapOrder, "entry %d at 0x%x spans zero pages", i, en.Vaddr)
			continue
		}
		if en.Vaddr%mem.PageSize != 0 {
			r.add(InvPagemapOrder, "entry %d at 0x%x not page-aligned", i, en.Vaddr)
		}
		if i > 0 {
			prev := d.pm.Entries[i-1]
			prevEnd := prev.Vaddr + uint64(prev.NrPages)*mem.PageSize
			if en.Vaddr < prevEnd {
				r.add(InvPagemapOrder, "entry %d at 0x%x overlaps or precedes run ending 0x%x",
					i, en.Vaddr, prevEnd)
			}
		}
		flags := 0
		for _, f := range []bool{en.Lazy, en.InParent, en.Zero, en.Delta} {
			if f {
				flags++
			}
		}
		if flags > 1 {
			r.add(InvPagemapFlags, "entry %d at 0x%x sets %d of lazy/in_parent/zero/dedup/delta", i, en.Vaddr, flags)
		}
	}
	// The pages.img byte accounting. Delta entries carry bytes (the XOR
	// payload is a full page), so they count exactly like plain data
	// entries.
	dataPages := 0
	for _, en := range d.pm.Entries {
		if !en.Lazy && !en.InParent && !en.Zero {
			dataPages += int(en.NrPages)
		}
	}
	if want := dataPages * mem.PageSize; d.pagesLen != want {
		r.add(InvPagesBytes, "pages.img carries %d bytes, pagemap describes %d data+delta pages (%d bytes) — byte-free flags must carry no bytes",
			d.pagesLen, dataPages, want)
	}
}

// vmaCover reports whether [lo, hi) is covered by the union of VMAs — a
// coalesced pagemap run may legitimately span several contiguous VMAs
// (e.g. adjacent per-thread TLS blocks). hi<=lo checks the single
// address lo.
func vmaCover(mm *image.MMImage, lo, hi uint64) bool {
	if hi <= lo {
		hi = lo + 1
	}
	cursor := lo
	for cursor < hi {
		advanced := false
		for _, v := range mm.VMAs {
			if cursor >= v.Start && cursor < v.End {
				cursor = v.End
				advanced = true
				break
			}
		}
		if !advanced {
			return false
		}
	}
	return true
}

// checkAddressSpace runs the self-contained address-space invariants:
// every pagemap page inside a VMA, thread PCs mapped, stacks mapped and
// upright, and register files within the core's ISA width.
func checkAddressSpace(d *decoded, r *Report) {
	for i, en := range d.pm.Entries {
		end := en.Vaddr + uint64(en.NrPages)*mem.PageSize
		if !vmaCover(d.mm, en.Vaddr, end) {
			r.add(InvPagemapMapped, "entry %d [0x%x,0x%x) outside the mapped vmas", i, en.Vaddr, end)
		}
	}
	for _, tid := range sortedTIDs(d.cores) {
		checkCore(d, tid, d.cores[tid], r)
	}
}

// checkCore verifies one thread's core image against the inventory and
// address space.
func checkCore(d *decoded, tid int, core *image.CoreImage, r *Report) {
	if core.Arch != d.inv.Arch {
		r.add(InvCoreRegs, "core-%d.img is %v but inventory is %v", tid, core.Arch, d.inv.Arch)
	}
	if core.Arch == isa.SX86 {
		// SX86 has 8 architectural registers; a live value recorded
		// beyond them cannot be covered by any stack-map location.
		for ri := 8; ri < isa.NumRegs; ri++ {
			if core.Regs.R[ri] != 0 {
				r.add(InvCoreRegs, "core-%d.img: sx86 register r%d holds 0x%x beyond the 8-register file",
					tid, ri, core.Regs.R[ri])
				break
			}
		}
	}
	if !vmaCover(d.mm, core.Regs.PC, 0) {
		r.add(InvCorePC, "core-%d.img: pc 0x%x outside every vma", tid, core.Regs.PC)
	}
	if core.StackLow >= core.StackHigh {
		r.add(InvCoreStack, "core-%d.img: stack [0x%x,0x%x) inverted", tid, core.StackLow, core.StackHigh)
	} else if !vmaCover(d.mm, core.StackLow, core.StackHigh) {
		r.add(InvCoreStack, "core-%d.img: stack [0x%x,0x%x) not covered by a vma",
			tid, core.StackLow, core.StackHigh)
	}
}

func sortedTIDs(cores map[int]*image.CoreImage) []int {
	out := make([]int, 0, len(cores))
	for tid := range cores {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}

// pagesOf expands a pagemap into per-class page address sets: in_parent
// references, delta pages (XOR payloads needing older content), lazy
// markers, and content pages (data, zero — anything an older link's
// delta could be applied to).
func pagesOf(pm *image.PagemapImage) (inParent, delta, lazy, content map[uint64]bool) {
	inParent = make(map[uint64]bool)
	delta = make(map[uint64]bool)
	lazy = make(map[uint64]bool)
	content = make(map[uint64]bool)
	for _, en := range pm.Entries {
		for i := uint32(0); i < en.NrPages; i++ {
			addr := en.Vaddr + uint64(i)*mem.PageSize
			switch {
			case en.InParent:
				inParent[addr] = true
			case en.Delta:
				delta[addr] = true
			case en.Lazy:
				lazy[addr] = true
			default:
				content[addr] = true
			}
		}
	}
	return inParent, delta, lazy, content
}

// Opts is empty: nothing about a verification is configurable. It and the
// three *With forwards below exist only because bench/ spells them.
type Opts struct{}

// VerifyLink checks one directory's structural invariants, permitting
// lazy and in_parent entries — the right check for a chain member or a
// directory about to be flattened/restored, where in_parent resolution is
// someone else's job. This is the cheap pre-flight criu.Restore and the
// migration receive paths run.
func VerifyLink(dir *image.ImageDir) error {
	var r Report
	d := decode(dir, &r)
	if d != nil {
		checkStructure(d, &r)
	}
	return r.Err()
}

// VerifyLinkWith is VerifyLink.
func VerifyLinkWith(dir *image.ImageDir, _ Opts) error { return VerifyLink(dir) }

// Verify checks a self-contained directory: VerifyLink plus the
// address-space invariants and the requirement that no page claims to
// live in a parent checkpoint (a lone directory has none).
func Verify(dir *image.ImageDir) error {
	var r Report
	d := decode(dir, &r)
	if d != nil {
		checkStructure(d, &r)
		checkAddressSpace(d, &r)
		inParent, delta, _, _ := pagesOf(d.pm)
		if len(inParent) > 0 {
			r.add(InvInParent, "%d in_parent pages with no parent directory to resolve them (verify the full chain, or flatten first)",
				len(inParent))
		}
		if len(delta) > 0 {
			r.add(InvDeltaChain, "%d delta pages with no parent chain to apply them to (verify the full chain, or flatten first)",
				len(delta))
		}
	}
	return r.Err()
}

// VerifyWith is Verify.
func VerifyWith(dir *image.ImageDir, _ Opts) error { return Verify(dir) }

// VerifyChain checks an incremental checkpoint chain ordered oldest
// (root) to newest (final delta): every link passes its structural
// checks, the newest link passes the address-space checks, the root has
// no in_parent or delta entries (either at the root would never
// terminate — the cyclic/truncated-chain case), every in_parent page in
// link i resolves to a non-in_parent entry in some older link, and every
// delta page resolves to actual *content* — data, zero, or an older
// delta — never to a lazy marker, which has no bytes to XOR against.
func VerifyChain(chain []*image.ImageDir) error {
	var r Report
	if len(chain) == 0 {
		r.add(InvInParent, "empty chain")
		return r.Err()
	}
	decs := make([]*decoded, len(chain))
	for i, dir := range chain {
		d := decode(dir, &r)
		if d == nil {
			r.add(InvImageDecode, "chain link %d undecodable; chain checks skipped", i)
			return r.Err()
		}
		decs[i] = d
		checkStructure(d, &r)
	}
	checkAddressSpace(decs[len(decs)-1], &r)
	// Two monotone resolution sets: resolvedAny is every page some older
	// link mentions with bytes-or-marker (content, delta, lazy) — what an
	// in_parent reference needs; resolvedContent excludes lazy — what a
	// delta's XOR needs, since a lazy page has no bytes to apply it to.
	resolvedAny := make(map[uint64]bool)
	resolvedContent := make(map[uint64]bool)
	for i, d := range decs {
		inParent, delta, lazy, content := pagesOf(d.pm)
		if i == 0 {
			if len(inParent) > 0 {
				r.add(InvInParent, "root link has %d in_parent pages — the chain never terminates (cyclic or truncated)",
					len(inParent))
			}
			if len(delta) > 0 {
				r.add(InvDeltaChain, "root link has %d delta pages — nothing older to apply the XOR to",
					len(delta))
			}
		} else {
			for _, addr := range sortedAddrs(inParent) {
				if !resolvedAny[addr] {
					r.add(InvInParent, "link %d: page 0x%x marked in_parent but absent from every older link", i, addr)
				}
			}
			for _, addr := range sortedAddrs(delta) {
				if !resolvedContent[addr] {
					r.add(InvDeltaChain, "link %d: delta page 0x%x has no content in any older link to apply the XOR to", i, addr)
				}
			}
		}
		for addr := range content {
			resolvedAny[addr] = true
			resolvedContent[addr] = true
		}
		for addr := range delta {
			// A (valid) delta resolves to content, so it pins content for
			// the links above it.
			resolvedAny[addr] = true
			resolvedContent[addr] = true
		}
		for addr := range lazy {
			resolvedAny[addr] = true
		}
	}
	return r.Err()
}

// VerifyChainWith is VerifyChain.
func VerifyChainWith(chain []*image.ImageDir, _ Opts) error { return VerifyChain(chain) }

func sortedAddrs(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VerifyMeta checks a binary's stack-map metadata for cross-ISA symbol
// alignment: function address ranges are shared by construction (the
// unified address space), so every per-ISA trap/resume/return PC must
// fall inside its own function's range on BOTH architectures — a site
// whose PCs diverge across ISAs would rewrite register state into the
// wrong frame.
func VerifyMeta(meta *stackmap.Metadata) error {
	var r Report
	for _, f := range meta.Funcs {
		if f.Size == 0 {
			r.add(InvSymbolAlign, "func %s at 0x%x has zero size", f.Name, f.Addr)
			continue
		}
		check := func(s *stackmap.Site, what string) {
			if s == nil {
				return
			}
			for ai := 0; ai < 2; ai++ {
				for _, pc := range []uint64{s.PCs[ai].TrapPC, s.PCs[ai].ResumePC, s.PCs[ai].RetAddr} {
					if pc == 0 {
						continue
					}
					if pc < f.Addr || pc >= f.Addr+f.Size {
						r.add(InvSymbolAlign, "func %s [0x%x,0x%x): %s site %d arch %d pc 0x%x outside unified range",
							f.Name, f.Addr, f.Addr+f.Size, what, s.ID, ai, pc)
					}
				}
			}
		}
		check(f.EntrySite, "entry")
		for _, s := range f.CallSites {
			check(s, "call")
		}
	}
	return r.Err()
}
