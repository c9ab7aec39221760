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
//     oldest to newest, proving every in_parent and delta page resolves
//     in the chain as of the link before it (chain.go; the root has none).
//   - VerifyMeta: cross-ISA stack-map alignment of a binary's metadata.
package imgcheck

import (
	"errors"
	"fmt"
	"slices"
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
	InvVMAOrder      = "vma-order"      // mm VMAs unsorted, overlapping, inverted, unaligned, or above the stack top
	InvPagemapOrder  = "pagemap-order"  // pagemap entries unsorted, overlapping, or empty
	InvPagemapFlags  = "pagemap-flags"  // entry claims more than one of lazy/in_parent/zero/delta
	InvPagemapMapped = "pagemap-mapped" // pagemap page outside every VMA
	InvPagesBytes    = "pages-bytes"    // pages.img size != data pages × page size
	InvInParent      = "inparent-chain" // in_parent page unresolvable (orphan, cycle, truncated chain)
	InvCoreRegs      = "core-regs"      // register file exceeds the core's ISA width
	InvCoreStack     = "core-stack"     // thread stack range inverted or unmapped
	InvCorePC        = "core-pc"        // thread PC outside every VMA
	InvCoreTID       = "core-tid"       // core images and inventory TIDs disagree
	InvExitedTID     = "exited-tid"     // an exited tid is also live, listed twice, or has a core image
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
// exactly one, and an aggregate error quoting the first sixteen otherwise.
func (r *Report) Err() error {
	switch len(r.Violations) {
	case 0:
		return nil
	case 1:
		return r.Violations[0]
	}
	// A truncated chain refuses every page of its root: quote the first few.
	msgs := make([]string, min(len(r.Violations), 16))
	for i := range msgs {
		msgs[i] = r.Violations[i].Error()
	}
	return fmt.Errorf("%d image invariants violated, the first %d: %s", len(r.Violations), len(msgs), strings.Join(msgs, "; "))
}

// decode names every file the view could not read — InvMissingImage,
// InvImageDecode — and the inventory/core disagreements, and reports
// whether the directory is whole enough to check further.
func decode(v *image.View, r *Report) (ok bool) {
	// readable reports the named file's fault, if any, under its invariant.
	readable := func(name, what string) bool {
		switch err := v.Fault(name); {
		case err == nil:
			return true
		case errors.Is(err, image.ErrMissing):
			r.add(InvMissingImage, "%s absent%s", name, what)
		default:
			r.add(InvImageDecode, "%s: %v", name, err)
		}
		return false
	}
	ok = true
	for _, name := range []string{image.InventoryName, image.MMName, image.PagemapName} {
		ok = readable(name, "") && ok
	}
	// files.img must decode, pages.img (which may be empty) must be there;
	// no check below reads either.
	readable(image.FilesName, "")
	readable(image.PagesName, "")
	if v.Inventory == nil {
		return false
	}
	seen := make(map[int]bool)
	for _, tid := range v.Inventory.TIDs {
		if seen[tid] {
			r.add(InvCoreTID, "inventory lists tid %d twice", tid)
			continue
		}
		seen[tid] = true
		name := image.CoreName(tid)
		if !readable(name, fmt.Sprintf(" (tid %d in inventory)", tid)) {
			continue
		}
		if core, _ := v.Core(tid); core.TID != tid {
			r.add(InvCoreTID, "%s carries tid %d", name, core.TID)
		}
	}
	exited := v.Inventory.Exited
	for i, tid := range exited {
		switch {
		case seen[tid]:
			r.add(InvExitedTID, "tid %d is both live and exited", tid)
		case slices.Contains(exited[:i], tid):
			r.add(InvExitedTID, "inventory lists exited tid %d twice", tid)
		}
	}
	for _, name := range v.Names() {
		var tid int
		if n, _ := fmt.Sscanf(name, "core-%d.img", &tid); n == 1 && !seen[tid] {
			if slices.Contains(exited, tid) {
				r.add(InvExitedTID, "%s belongs to exited tid %d", name, tid)
			} else {
				r.add(InvCoreTID, "%s has no inventory entry", name)
			}
		}
	}
	return ok
}

// checkStructure runs the per-directory structural invariants shared by
// VerifyLink and Verify: VMA ordering, pagemap ordering and flags, every
// pagemap page inside a VMA (restore keeps no page outside them), and the
// exact pages.img byte count.
func checkStructure(v *image.View, r *Report) {
	mm, pm := v.MM, v.Pagemap
	for i, v := range mm.VMAs {
		if v.Start >= v.End || v.Start%mem.PageSize != 0 || v.End%mem.PageSize != 0 || v.End > isa.StackTop {
			r.add(InvVMAOrder, "vma %d [0x%x,0x%x) inverted, unaligned or above the stack top", i, v.Start, v.End)
		}
		if i > 0 && v.Start < mm.VMAs[i-1].End {
			r.add(InvVMAOrder, "vma %d [0x%x,0x%x) overlaps or precedes [0x%x,0x%x)",
				i, v.Start, v.End, mm.VMAs[i-1].Start, mm.VMAs[i-1].End)
		}
	}
	for i, en := range pm.Entries {
		if en.NrPages == 0 {
			r.add(InvPagemapOrder, "entry %d at 0x%x spans zero pages", i, en.Vaddr)
			continue
		}
		if en.Vaddr%mem.PageSize != 0 {
			r.add(InvPagemapOrder, "entry %d at 0x%x not page-aligned", i, en.Vaddr)
		}
		if i > 0 {
			prev := pm.Entries[i-1]
			prevEnd := prev.Vaddr + uint64(prev.NrPages)*mem.PageSize
			if en.Vaddr < prevEnd {
				r.add(InvPagemapOrder, "entry %d at 0x%x overlaps or precedes run ending 0x%x",
					i, en.Vaddr, prevEnd)
			}
		}
		// The one place outside internal/image that reads the flag fields:
		// everything else acts on PagemapEntry.Class, which is only
		// well-defined once no entry sets two of them.
		flags := 0
		for _, f := range []bool{en.Lazy, en.InParent, en.Zero, en.Delta} {
			if f {
				flags++
			}
		}
		if flags > 1 {
			r.add(InvPagemapFlags, "entry %d at 0x%x sets %d of lazy/in_parent/zero/delta", i, en.Vaddr, flags)
		}
		if end := en.Vaddr + uint64(en.NrPages)*mem.PageSize; !vmaCover(mm, en.Vaddr, end) {
			r.add(InvPagemapMapped, "entry %d [0x%x,0x%x) outside the mapped vmas", i, en.Vaddr, end)
		}
	}
	// The pages.img byte accounting. Delta entries carry bytes (the XOR
	// payload is a full page), so they count exactly like plain data
	// entries.
	n := pm.Counts()
	dataPages := n[image.PageData] + n[image.PageDelta]
	if want := dataPages * mem.PageSize; v.Pages.Len() != want {
		r.add(InvPagesBytes, "pages.img carries %d bytes, pagemap describes %d data+delta pages (%d bytes) — byte-free flags must carry no bytes",
			v.Pages.Len(), dataPages, want)
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
// for each core the inventory vouches for (decode named the others)
// thread PC mapped, stack mapped and upright, and register file within
// the core's ISA width.
func checkAddressSpace(v *image.View, r *Report) {
	for _, tid := range v.Inventory.TIDs {
		if core, err := v.Core(tid); err == nil && core.TID == tid {
			checkCore(v, core, r)
		}
	}
}

// checkCore verifies one thread's core image against the inventory and
// address space.
func checkCore(v *image.View, core *image.CoreImage, r *Report) {
	tid := core.TID
	if core.Arch != v.Inventory.Arch {
		r.add(InvCoreRegs, "core-%d.img is %v but inventory is %v", tid, core.Arch, v.Inventory.Arch)
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
	if !vmaCover(v.MM, core.Regs.PC, 0) {
		r.add(InvCorePC, "core-%d.img: pc 0x%x outside every vma", tid, core.Regs.PC)
	}
	if core.StackLow >= core.StackHigh {
		r.add(InvCoreStack, "core-%d.img: stack [0x%x,0x%x) inverted", tid, core.StackLow, core.StackHigh)
	} else if !vmaCover(v.MM, core.StackLow, core.StackHigh) {
		r.add(InvCoreStack, "core-%d.img: stack [0x%x,0x%x) not covered by a vma",
			tid, core.StackLow, core.StackHigh)
	}
}

// Opts is empty: nothing about a verification is configurable. It and the
// three *With forwards below exist only because bench/ spells them.
type Opts struct{}

// VerifyLink checks one directory's structural invariants, permitting
// lazy and in_parent entries — the right check for a chain member or a
// directory about to be flattened/restored, where in_parent resolution is
// someone else's job. This is the cheap pre-flight criu.Restore and the
// migration receive paths run.
func VerifyLink(dir *image.ImageDir) error { return CheckLink(image.Open(dir)).Err() }

// CheckLink is VerifyLink over a view the caller already opened — and goes
// on to use — returning the full report.
func CheckLink(v *image.View) *Report {
	r := &Report{}
	if decode(v, r) {
		checkStructure(v, r)
	}
	return r
}

// VerifyLinkWith is VerifyLink.
func VerifyLinkWith(dir *image.ImageDir, _ Opts) error { return VerifyLink(dir) }

// Verify checks a self-contained directory: VerifyLink plus the
// address-space invariants and the requirement that no page claims to
// live in a parent checkpoint (a lone directory has none).
func Verify(dir *image.ImageDir) error { return Check(image.Open(dir)).Err() }

// Check is Verify over a view the caller already opened — and goes on to
// use — returning the full report.
func Check(v *image.View) *Report {
	r := &Report{}
	if decode(v, r) {
		checkStructure(v, r)
		checkAddressSpace(v, r)
		n := v.Pagemap.Counts()
		if n[image.PageParent] > 0 {
			r.add(InvInParent, "%d in_parent pages with no parent directory to resolve them (verify the full chain, or flatten first)",
				n[image.PageParent])
		}
		if n[image.PageDelta] > 0 {
			r.add(InvDeltaChain, "%d delta pages with no parent chain to apply them to (verify the full chain, or flatten first)",
				n[image.PageDelta])
		}
	}
	return r
}

// VerifyWith is Verify.
func VerifyWith(dir *image.ImageDir, _ Opts) error { return Verify(dir) }

// VerifyChainWith is VerifyChain.
func VerifyChainWith(chain []*image.ImageDir, _ Opts) error { return VerifyChain(chain) }

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
