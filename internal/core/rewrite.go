// Package core implements the DAPPER process rewriter: it transforms a
// CRIU image directory — registers, call stacks, TLS, code pages, and the
// executable reference — according to a transformation policy, entirely
// outside the target process.
//
// The central engine, RewriteThread, unwinds a thread's source stack using
// the stack-map metadata and rebuilds it under a destination layout:
//
//   - registers holding live values at the entry equivalence point are
//     translated via the per-ISA DWARF locations (paper Fig. 4);
//   - each suspended caller frame is located by its return address, its
//     live slots copied to the destination frame offsets, and the frame
//     header (saved FP + return address) re-created per the destination
//     ABI (return address on the stack for SX86, in LR for SARM);
//   - pointers into the source stack are remapped to the allocation's
//     destination address;
//   - the TLS register is rebased to the destination libc's bias.
//
// The same engine performs cross-ISA transformation (source and
// destination differ in architecture) and stack shuffling (same
// architecture, permuted slot offsets).
package core

import (
	"encoding/binary"
	"fmt"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// Side describes one side (source or destination) of a rewrite: an
// architecture plus the metadata describing frame layouts on it.
type Side struct {
	Arch isa.Arch
	Meta *stackmap.Metadata
}

// frame is one unwound stack frame. Source-side metadata comes from the
// unwind; destination-side metadata (dstFn/dstSite) drives the rebuild —
// they are the same content for cross-ISA rewrites (shared metadata,
// different arch index) but differ for stack shuffling (permuted offsets,
// same arch).
type frame struct {
	stackmap.Frame // Func, Site and FP on the source side
	dstFn          *stackmap.Func
	dstSite        *stackmap.Site
	// fpDst is assigned during rebuild (frames[0] has none).
	fpDst uint64
	// calleeEntrySP is the destination SP at the entry of this frame's
	// callee.
	calleeEntrySP uint64
}

// resolveDst fills the destination-side fields of a frame.
func (fr *frame) resolveDst(dst Side) error {
	dstFn, ok := dst.Meta.FuncByName(fr.Func.Name)
	if !ok {
		return fmt.Errorf("core: destination metadata missing %q", fr.Func.Name)
	}
	fr.dstFn = dstFn
	if fr.Site.Kind == stackmap.SiteEntry {
		fr.dstSite = dstFn.EntrySite
		return nil
	}
	for _, cs := range dstFn.CallSites {
		if cs.ID == fr.Site.ID {
			fr.dstSite = cs
			return nil
		}
	}
	return fmt.Errorf("core: destination metadata missing site %d in %q", fr.Site.ID, fr.Func.Name)
}

// RewriteThread transforms one thread's state from src to dst layout. It
// rewrites the thread's stack pages inside ps and returns the new core
// image. The thread must be parked at an entry equivalence point.
func RewriteThread(core *criu.CoreImage, ps *criu.PageSet, src, dst Side) (*criu.CoreImage, error) {
	if core.Arch != src.Arch {
		return nil, fmt.Errorf("core: thread %d dumped as %v, rewrite source is %v", core.TID, core.Arch, src.Arch)
	}
	srcABI, dstABI := isa.ABIFor(src.Arch), isa.ABIFor(dst.Arch)
	si, di := stackmap.ArchIdx(src.Arch), stackmap.ArchIdx(dst.Arch)
	regs := core.Regs

	// old holds the source stack's pages while the destination layout is
	// written over their addresses. It borrows them from the page set and
	// copies nothing: the rebuild drops the stack range from the set before
	// its first write, so every write lands on a page the set allocates
	// afresh and none reaches a page held here.
	old := make(map[uint64][]byte)
	for a := core.StackLow; a < core.StackHigh; a += mem.PageSize {
		if pg := ps.Pages[a]; pg != nil {
			old[a] = pg
		}
	}
	read := func(addr uint64) (uint64, error) {
		if !stackmap.WordIn(addr, core.StackLow, core.StackHigh) {
			return 0, fmt.Errorf("core: stack read at 0x%x, not a word of [0x%x, 0x%x)", addr, core.StackLow, core.StackHigh)
		}
		pg, ok := old[addr/mem.PageSize*mem.PageSize]
		if !ok {
			return 0, nil // demand-zero page
		}
		return binary.LittleEndian.Uint64(pg[addr%mem.PageSize:]), nil
	}

	// --- Unwind (the verifier's walk: updatecheck pass 3 runs the same) ---
	unwound, bottom, err := src.Meta.Unwind(src.Arch, &regs, core.StackLow, core.StackHigh, read)
	if err != nil {
		return nil, err
	}
	frames := make([]*frame, len(unwound))
	for i, uf := range unwound {
		frames[i] = &frame{Frame: uf}
	}
	threadExitFn, _ := src.Meta.FuncByName("__thread_exit") // Unwind refuses metadata without it

	for _, fr := range frames {
		if err := fr.resolveDst(dst); err != nil {
			return nil, err
		}
	}

	// --- Compute destination frame pointers, outermost first ---
	outer := len(frames) - 1
	entrySP := core.StackHigh
	if bottom == stackmap.BottomThreadExit && dstABI.RetAddrOnStack && len(frames) > 1 {
		// The spawn trampoline return address occupies one slot on
		// architectures that keep return addresses on the stack.
		entrySP -= 8
	}
	for i := outer; i >= 1; i-- {
		fr := frames[i]
		if dstABI.RetAddrOnStack {
			fr.fpDst = entrySP - 8
			spAfter := fr.fpDst - uint64(fr.dstFn.FrameLocal[di])
			fr.calleeEntrySP = spAfter - 8 // CALL pushes the return address
		} else {
			spAfter := entrySP - uint64(fr.dstFn.FrameLocal[di]) - 16
			fr.fpDst = spAfter + uint64(fr.dstFn.FrameLocal[di])
			fr.calleeEntrySP = spAfter
		}
		entrySP = fr.calleeEntrySP
	}

	// remap translates a source-stack pointer to its destination address.
	// Containment is checked strictly first; a one-past-the-end pointer
	// (the C idiom &a[n]) is only attributed to a slot when no slot
	// strictly contains the address — otherwise a pointer at the boundary
	// of two adjacent slots would be remapped with the wrong base.
	remap := func(val uint64) (uint64, error) {
		if val < core.StackLow || val >= core.StackHigh {
			return val, nil // heap/global/code pointers stay valid (aligned layout)
		}
		lookup := func(inclusiveEnd bool) (uint64, bool, error) {
			for i := 1; i < len(frames); i++ {
				fr := frames[i]
				for si2 := range fr.Func.Slots {
					s := &fr.Func.Slots[si2]
					start := fr.FP - uint64(s.Off[si])
					end := start + uint64(s.Size)
					if val >= start && (val < end || (inclusiveEnd && val == end)) {
						ds, ok := fr.dstFn.SlotByID(s.ID)
						if !ok {
							return 0, false, fmt.Errorf("core: destination missing slot %d in %q", s.ID, fr.Func.Name)
						}
						return fr.fpDst - uint64(ds.Off[di]) + (val - start), true, nil
					}
				}
			}
			return 0, false, nil
		}
		if dest, ok, err := lookup(false); err != nil || ok {
			return dest, err
		}
		if dest, ok, err := lookup(true); err != nil || ok {
			return dest, err
		}
		return 0, fmt.Errorf("core: stack pointer 0x%x matches no live allocation", val)
	}

	// --- Rebuild the destination stack ---
	ps.DropRange(core.StackLow, core.StackHigh)
	write := func(addr, v uint64) error {
		if !stackmap.WordIn(addr, core.StackLow, core.StackHigh) {
			return fmt.Errorf("core: stack write at 0x%x outside stack", addr)
		}
		return ps.WriteU64(addr, v)
	}
	for i := outer; i >= 1; i-- {
		fr := frames[i]
		// Frame header: saved FP and this frame's own return address.
		callerFP := uint64(0)
		ownRet := uint64(0)
		if i+1 <= outer {
			callerFP = frames[i+1].fpDst
			ownRet = frames[i+1].dstSite.PCs[di].RetAddr
		} else if bottom == stackmap.BottomThreadExit {
			ownRet = threadExitFn.Addr
		}
		if err := write(fr.fpDst, callerFP); err != nil {
			return nil, err
		}
		if fr.fpDst+16 <= core.StackHigh {
			if err := write(fr.fpDst+8, ownRet); err != nil {
				return nil, err
			}
		}
		// Live values at this frame's call site. Destination locations
		// come from the destination site record (they differ under a
		// shuffled layout).
		dstLoc := make(map[int]stackmap.Location, len(fr.dstSite.Live))
		for _, dlv := range fr.dstSite.Live {
			dstLoc[dlv.SlotID] = dlv.Loc[di]
		}
		for _, lv := range fr.Site.Live {
			slot, ok := fr.Func.SlotByID(lv.SlotID)
			if !ok {
				return nil, fmt.Errorf("core: %s: no slot %d", fr.Func.Name, lv.SlotID)
			}
			dloc, ok := dstLoc[lv.SlotID]
			if !ok {
				return nil, fmt.Errorf("core: %s: destination site missing slot %d", fr.Func.Name, lv.SlotID)
			}
			srcBase := fr.FP - uint64(lv.Loc[si].FrameOff)
			dstBase := fr.fpDst - uint64(dloc.FrameOff)
			for off := int64(0); off < slot.Size; off += 8 {
				val, err := read(srcBase + uint64(off))
				if err != nil {
					return nil, err
				}
				if lv.Ptr {
					val, err = remap(val)
					if err != nil {
						return nil, fmt.Errorf("core: %s slot %s: %w", fr.Func.Name, slot.Name, err)
					}
				}
				if err := write(dstBase+uint64(off), val); err != nil {
					return nil, err
				}
			}
		}
	}

	// --- Innermost frame: entry register state ---
	var newRegs isa.RegFile
	entryDstLoc := make(map[int]stackmap.Location, len(frames[0].dstSite.Live))
	for _, dlv := range frames[0].dstSite.Live {
		entryDstLoc[dlv.SlotID] = dlv.Loc[di]
	}
	for _, lv := range frames[0].Site.Live {
		val := regs.R[srcABI.RegFromDwarf(lv.Loc[si].DwarfReg)]
		if lv.Ptr {
			var err error
			val, err = remap(val)
			if err != nil {
				return nil, fmt.Errorf("core: %s param %d: %w", frames[0].Func.Name, lv.SlotID, err)
			}
		}
		dloc, ok := entryDstLoc[lv.SlotID]
		if !ok {
			return nil, fmt.Errorf("core: %s: destination entry site missing param %d", frames[0].Func.Name, lv.SlotID)
		}
		newRegs.R[dstABI.RegFromDwarf(dloc.DwarfReg)] = val
	}
	spDst := entrySP
	if len(frames) == 1 {
		// No caller frames: reconstruct the thread-start state.
		switch {
		case frames[0].Func.Name == "__thread_exit":
			// The trampoline return address was consumed by RET.
			spDst = core.StackHigh
			if !dstABI.RetAddrOnStack {
				newRegs.R[dstABI.LR] = threadExitFn.Addr
			}
		case bottom == stackmap.BottomThreadExit:
			// A spawned function at its entry: the trampoline address is
			// pending.
			if dstABI.RetAddrOnStack {
				spDst = core.StackHigh - 8
				if err := write(spDst, threadExitFn.Addr); err != nil {
					return nil, err
				}
			} else {
				spDst = core.StackHigh
				newRegs.R[dstABI.LR] = threadExitFn.Addr
			}
		default:
			// _start at its entry: empty stack, no return address.
			spDst = core.StackHigh
		}
	} else {
		innerRet := frames[1].dstSite.PCs[di].RetAddr
		if dstABI.RetAddrOnStack {
			// spDst already accounts for the slot the CALL pushed.
			if err := write(spDst, innerRet); err != nil {
				return nil, err
			}
		} else {
			newRegs.R[dstABI.LR] = innerRet
		}
		newRegs.R[dstABI.FP] = frames[1].fpDst
	}
	newRegs.R[dstABI.SP] = spDst
	newRegs.PC = frames[0].dstFn.EntrySite.PCs[di].TrapPC
	newRegs.TLS = dstABI.TLSRegValue(srcABI.TLSBlockStart(regs.TLS))

	out := *core
	out.Arch = dst.Arch
	out.Regs = newRegs
	return &out, nil
}
