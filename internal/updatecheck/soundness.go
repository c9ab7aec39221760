package updatecheck

import (
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// VerifyBinary runs the stack-map soundness pass (pass 1) over one
// binary and returns nil or an error naming every violated invariant.
// A binary without metadata (hand-assembled test programs) has nothing
// to verify and passes vacuously.
func VerifyBinary(b *Binary) error {
	return CheckBinary(b).Err()
}

// CheckBinary is VerifyBinary returning the full position-sorted report.
func CheckBinary(b *Binary) *Report {
	r := &Report{}
	if b.Meta == nil {
		return r
	}
	ai := stackmap.ArchIdx(b.Arch)
	abi := isa.ABIFor(b.Arch)

	// Function entry addresses, for CALL target validation. Functions are
	// kept sorted by address (stackmap.Index), so overlap is a pairwise
	// check against the successor.
	entries := make(map[uint64]bool, len(b.Meta.Funcs))
	for _, f := range b.Meta.Funcs {
		entries[f.Addr] = true
	}
	for i, f := range b.Meta.Funcs {
		if i+1 < len(b.Meta.Funcs) {
			if next := b.Meta.Funcs[i+1]; f.Addr+f.Size > next.Addr {
				r.add(InvTextRange, "func %s [0x%x,0x%x) overlaps func %s at 0x%x",
					f.Name, f.Addr, f.Addr+f.Size, next.Name, next.Addr)
			}
		}
	}

	for _, f := range b.Meta.Funcs {
		fc := decodeFunc(b, f, r)
		if fc == nil {
			continue
		}
		checkBranches(b, fc, entries, r)
		checkEntrySite(fc, ai, abi, r)
		checkCallSites(fc, ai, r)
		checkSlots(fc, ai, r)
		checkSlotAccess(fc, ai, abi, r)
		checkPtrAgreement(fc, r)
		checkQuiescence(fc, r)
	}
	return r
}

// checkBranches validates every control transfer in the body: branches
// must land on an instruction boundary of the same function, and CALL
// targets must be known function entries.
func checkBranches(b *Binary, fc *funcCode, entries map[uint64]bool, r *Report) {
	f := fc.f
	for i, in := range fc.insts {
		switch in.Op {
		case isa.OpJmp, isa.OpJz, isa.OpJnz:
			t := uint64(in.Imm)
			if t < f.Addr || t >= f.Addr+f.Size {
				r.add(InvBranchRange, "func %s: %s at 0x%x targets 0x%x outside [0x%x,0x%x)",
					f.Name, in.Op, fc.pcs[i], t, f.Addr, f.Addr+f.Size)
			} else if !fc.boundary(t) {
				r.add(InvBranchRange, "func %s: %s at 0x%x targets 0x%x off an instruction boundary",
					f.Name, in.Op, fc.pcs[i], t)
			}
		case isa.OpCall:
			if !entries[uint64(in.Imm)] {
				r.add(InvCallTarget, "func %s: call at 0x%x targets 0x%x, not a known function entry",
					f.Name, fc.pcs[i], uint64(in.Imm))
			}
		}
	}
}

// checkEntrySite validates the function's entry equivalence point: the
// trap PC decodes to TRAP inside the function, the resume PC is the
// function entry (the checker is the first thing emitted), and the
// region between them contains the checker pattern — a load of the
// global flag, a TLS load of the checker-disable depth, and two
// conditional branches that skip the trap.
func checkEntrySite(fc *funcCode, ai int, abi *isa.ABI, r *Report) {
	f := fc.f
	s := f.EntrySite
	if s == nil {
		r.add(InvEntryChecker, "func %s has no entry equivalence point", f.Name)
		return
	}
	pcs := s.PCs[ai]
	if pcs.TrapPC < f.Addr || pcs.TrapPC >= f.Addr+f.Size {
		r.add(InvSiteRange, "func %s: entry site %d trap pc 0x%x outside [0x%x,0x%x)",
			f.Name, s.ID, pcs.TrapPC, f.Addr, f.Addr+f.Size)
		return
	}
	in := fc.at(pcs.TrapPC)
	switch {
	case in == nil:
		r.add(InvTrapOp, "func %s: entry site %d trap pc 0x%x off an instruction boundary",
			f.Name, s.ID, pcs.TrapPC)
		return
	case in.Op != isa.OpTrap:
		r.add(InvTrapOp, "func %s: entry site %d trap pc 0x%x decodes to %s, want trap",
			f.Name, s.ID, pcs.TrapPC, in.Op)
		return
	}
	if pcs.ResumePC != f.Addr {
		r.add(InvEntryChecker, "func %s: entry site %d resume pc 0x%x is not the function entry 0x%x",
			f.Name, s.ID, pcs.ResumePC, f.Addr)
		return
	}
	// The checker region [ResumePC, TrapPC): both conditional branches
	// must skip to the instruction after the trap, and the region must
	// read the flag word and the TLS lock depth.
	skip := pcs.TrapPC + uint64(abi.TrapLen)
	var sawLoad, sawTls, sawJz, sawJnz bool
	for i := fc.idx[pcs.ResumePC]; i < fc.idx[pcs.TrapPC]; i++ {
		switch in := fc.insts[i]; in.Op {
		case isa.OpLoad:
			sawLoad = true
		case isa.OpTlsLoad:
			sawTls = true
		case isa.OpJz:
			sawJz = sawJz || uint64(in.Imm) == skip
		case isa.OpJnz:
			sawJnz = sawJnz || uint64(in.Imm) == skip
		}
	}
	if !sawLoad || !sawTls || !sawJz || !sawJnz {
		r.add(InvEntryChecker,
			"func %s: checker region [0x%x,0x%x) incomplete (flag load %v, tls load %v, jz-to-skip %v, jnz-to-skip %v)",
			f.Name, pcs.ResumePC, pcs.TrapPC, sawLoad, sawTls, sawJz, sawJnz)
	}
	checkEntryLive(fc, s, ai, abi, r)
	if reach := fc.reachable(); !reach[fc.idx[pcs.TrapPC]] {
		r.add(InvSiteReach, "func %s: entry site %d trap at 0x%x unreachable from entry",
			f.Name, s.ID, pcs.TrapPC)
	}
}

// checkEntryLive validates the entry live set against the declared
// parameters: exactly one record per parameter, in slot-id order, each
// locating the value in a valid machine register (or a frame slot whose
// offset agrees with the slot table).
func checkEntryLive(fc *funcCode, s *stackmap.Site, ai int, abi *isa.ABI, r *Report) {
	f := fc.f
	if len(s.Live) != f.NumParams {
		r.add(InvEntryLive, "func %s: entry site has %d live records for %d parameters",
			f.Name, len(s.Live), f.NumParams)
		return
	}
	for i, lv := range s.Live {
		if lv.SlotID != i {
			r.add(InvEntryLive, "func %s: entry live record %d names slot %d, want parameter slot %d",
				f.Name, i, lv.SlotID, i)
			continue
		}
		slot, ok := f.SlotByID(lv.SlotID)
		if !ok {
			r.add(InvEntryLive, "func %s: entry live record %d names unknown slot %d",
				f.Name, i, lv.SlotID)
			continue
		}
		loc := lv.Loc[ai]
		if loc.InReg {
			if reg := abi.RegFromDwarf(loc.DwarfReg); int(reg) >= abi.NumRegs || loc.DwarfReg < abi.DwarfBase {
				r.add(InvEntryLive, "func %s: entry live slot %d in dwarf reg %d, outside the %s register file",
					f.Name, lv.SlotID, loc.DwarfReg, abi.Arch)
			}
		} else if loc.FrameOff != slot.Off[ai] {
			r.add(InvEntryLive, "func %s: entry live slot %d at fp-%d, slot table says fp-%d",
				f.Name, lv.SlotID, loc.FrameOff, slot.Off[ai])
		}
	}
}

// checkCallSites validates each call-site record: the return address is
// an instruction boundary inside the function immediately preceded by a
// CALL, and the call instruction is reachable from entry.
func checkCallSites(fc *funcCode, ai int, r *Report) {
	f := fc.f
	var reach []bool
	for _, s := range f.CallSites {
		ra := s.PCs[ai].RetAddr
		if ra <= f.Addr || ra >= f.Addr+f.Size {
			r.add(InvSiteRange, "func %s: call site %d return address 0x%x outside (0x%x,0x%x)",
				f.Name, s.ID, ra, f.Addr, f.Addr+f.Size)
			continue
		}
		i, ok := fc.idx[ra]
		if !ok {
			r.add(InvRetSite, "func %s: call site %d return address 0x%x off an instruction boundary",
				f.Name, s.ID, ra)
			continue
		}
		if i == 0 || fc.insts[i-1].Op != isa.OpCall {
			r.add(InvRetSite, "func %s: call site %d return address 0x%x not immediately after a call",
				f.Name, s.ID, ra)
			continue
		}
		if reach == nil {
			reach = fc.reachable()
		}
		if !reach[i-1] {
			r.add(InvSiteReach, "func %s: call site %d at 0x%x unreachable from entry",
				f.Name, s.ID, fc.pcs[i-1])
		}
	}
}

// checkSlots validates the frame layout: every slot lies inside the
// locals area below the frame pointer, and no two slots overlap.
func checkSlots(fc *funcCode, ai int, r *Report) {
	f := fc.f
	for i := range f.Slots {
		s := &f.Slots[i]
		if s.Size <= 0 || s.Off[ai] < s.Size || s.Off[ai] > f.FrameLocal[ai] {
			r.add(InvSlotRange, "func %s: slot %d (%s) [fp-%d, fp-%d+%d) outside the %d-byte locals area",
				f.Name, s.ID, s.Name, s.Off[ai], s.Off[ai], s.Size, f.FrameLocal[ai])
			continue
		}
		for j := range f.Slots[:i] {
			o := &f.Slots[j]
			// Slot k occupies [FP-Off, FP-Off+Size).
			if s.Off[ai] > o.Off[ai]-o.Size && o.Off[ai] > s.Off[ai]-s.Size {
				r.add(InvSlotRange, "func %s: slot %d (%s) overlaps slot %d (%s)",
					f.Name, s.ID, s.Name, o.ID, o.Name)
			}
		}
	}
}

// checkSlotAccess cross-checks the metadata's frame story against the
// instructions: every direct frame-pointer-relative access must land
// inside a declared slot, every call-site live record's frame offset
// must agree with the slot table, and — when the function never
// computes a frame address into a register (which would let it reach
// slots indirectly) — every slot recorded live at a call site must
// actually be touched by some instruction.
func checkSlotAccess(fc *funcCode, ai int, abi *isa.ABI, r *Report) {
	f := fc.f
	// covers returns the slot containing [FP-off, FP-off+size).
	covers := func(off, size int64) *stackmap.Slot {
		for i := range f.Slots {
			s := &f.Slots[i]
			if off <= s.Off[ai] && off-size >= s.Off[ai]-s.Size {
				return s
			}
		}
		return nil
	}
	touched := make(map[int]bool)
	indirect := false
	for i, in := range fc.insts {
		var off, size int64
		switch in.Op {
		case isa.OpLoad, isa.OpStore:
			if in.Rn != abi.FP || in.Imm >= 0 {
				continue
			}
			off, size = -in.Imm, 8
		case isa.OpLoadPair, isa.OpStorePair:
			if in.Rn != abi.FP || in.Imm >= 0 {
				continue
			}
			// A pair instruction is two adjacent word accesses, typically
			// spanning two neighbouring slots; validate each half on its
			// own.
			for _, half := range [2]int64{-in.Imm, -in.Imm - 8} {
				if s := covers(half, 8); s == nil {
					r.add(InvSlotAccess, "func %s: %s at 0x%x touches fp-%d, inside no declared slot",
						f.Name, in.Op, fc.pcs[i], half)
				} else {
					touched[s.ID] = true
				}
			}
			continue
		case isa.OpLea, isa.OpAddImm:
			if in.Rn != abi.FP || in.Imm >= 0 || in.Rd == abi.SP {
				continue
			}
			// Taking a slot's address: anything reachable from here is
			// accessed indirectly; require only that the address lands in
			// a slot.
			indirect = true
			off, size = -in.Imm, 1
		case isa.OpAdd, isa.OpSub:
			if in.Rn == abi.FP || in.Rm == abi.FP {
				// A computed frame address (the compiler's big-offset
				// addressing): accesses through it cannot be attributed
				// statically.
				indirect = true
			}
			continue
		default:
			continue
		}
		s := covers(off, size)
		if s == nil {
			r.add(InvSlotAccess, "func %s: %s at 0x%x touches fp-%d (%d bytes), inside no declared slot",
				f.Name, in.Op, fc.pcs[i], off, size)
			continue
		}
		touched[s.ID] = true
	}
	for _, site := range f.CallSites {
		for _, lv := range site.Live {
			slot, ok := f.SlotByID(lv.SlotID)
			if !ok {
				r.add(InvSlotAccess, "func %s: call site %d live record names unknown slot %d",
					f.Name, site.ID, lv.SlotID)
				continue
			}
			loc := lv.Loc[ai]
			if loc.InReg {
				r.add(InvSlotAccess, "func %s: call site %d records slot %d in a register, but no value survives a call in registers",
					f.Name, site.ID, lv.SlotID)
				continue
			}
			if loc.FrameOff != slot.Off[ai] {
				r.add(InvSlotAccess, "func %s: call site %d locates slot %d at fp-%d, slot table says fp-%d",
					f.Name, site.ID, lv.SlotID, loc.FrameOff, slot.Off[ai])
				continue
			}
			if !indirect && !touched[slot.ID] {
				r.add(InvSlotAccess, "func %s: call site %d records slot %d (%s) live, but no instruction touches fp-%d",
					f.Name, site.ID, lv.SlotID, slot.Name, slot.Off[ai])
			}
		}
	}
}

// checkPtrAgreement verifies that every live record's pointer flag
// matches its slot's: a pointer mislabeled as scalar would survive a
// cross-ISA rewrite un-remapped and dangle.
func checkPtrAgreement(fc *funcCode, r *Report) {
	f := fc.f
	sites := f.CallSites
	if f.EntrySite != nil {
		sites = append([]*stackmap.Site{f.EntrySite}, sites...)
	}
	for _, s := range sites {
		for _, lv := range s.Live {
			if slot, ok := f.SlotByID(lv.SlotID); ok && slot.Ptr != lv.Ptr {
				r.add(InvPtrAgree, "func %s: site %d live slot %d (%s) ptr=%v, slot table says ptr=%v",
					f.Name, s.ID, lv.SlotID, slot.Name, lv.Ptr, slot.Ptr)
			}
		}
	}
}

// checkQuiescence reports functions that can execute forever without
// crossing an equivalence point: an entry-reachable instruction from
// which no TRAP, CALL, SYSCALL, or RET is reachable can only belong to
// a site-free infinite loop, which would stall a live update
// indefinitely.
func checkQuiescence(fc *funcCode, r *Report) {
	reach := fc.reachable()
	prog := fc.reachesProgress()
	for i := range fc.insts {
		if reach[i] && !prog[i] {
			r.add(InvQuiescence, "func %s: instruction at 0x%x can spin without reaching an equivalence point",
				fc.f.Name, fc.pcs[i])
			return // one report per function
		}
	}
}
