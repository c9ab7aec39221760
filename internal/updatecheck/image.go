package updatecheck

import (
	"errors"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// CheckImage runs the image-vs-binary consistency pass (pass 3) over an
// open view: every thread PC and every stack return address in the
// checkpoint must resolve against the *target* binary's metadata,
// catching version skew (an image dumped against one binary, restored
// into an incompatible one) before any state is rebuilt.
//
// The pass is deliberately layered under imgcheck: structural breakage
// (missing or undecodable images) is imgcheck's jurisdiction and is not
// re-reported here, and a stack word the local page set cannot produce
// (lazy, in-parent, or delta pages) ends that thread's walk without a
// verdict rather than guessing. Threads not parked at an equivalence
// point (plain mid-run dumps) get only the cheap PC checks; a full walk
// needs the frame discipline that parking guarantees.
func CheckImage(v *image.View, b *Binary) *Report {
	r := &Report{}
	if b.Meta == nil || v.Inventory == nil {
		return r
	}
	if v.Inventory.Arch != b.Arch {
		r.add(InvImageArch, "image dumped as %v, target binary is %v", v.Inventory.Arch, b.Arch)
		return r
	}
	ps, err := v.PageSet()
	if err != nil {
		return r
	}
	// Each function of the target binary is decoded at most once, for the
	// instruction-boundary checks; nil when the text is unavailable or
	// broken (pass 1's jurisdiction).
	decoded := make(map[string]*funcCode)
	decode := func(f *stackmap.Func) *funcCode {
		fc, ok := decoded[f.Name]
		if !ok && len(b.Text) > 0 {
			fc = decodeFunc(b, f, &Report{})
		}
		decoded[f.Name] = fc
		return fc
	}
	for _, tid := range v.Inventory.TIDs {
		core, err := v.Core(tid)
		if err != nil {
			continue
		}
		if core.Arch != b.Arch {
			r.add(InvImageArch, "thread %d dumped as %v, target binary is %v", tid, core.Arch, b.Arch)
			continue
		}
		checkThread(core, ps, b, decode, r)
	}
	return r
}

// errNoVerdict ends a stack walk at a word whose content is not in the
// image at hand.
var errNoVerdict = errors.New("stack word not locally available")

// checkThread validates one thread: its PC must resolve in the target
// binary, and — when it is parked at an entry equivalence point — its
// whole stack must unwind through known call sites. The walk is
// stackmap.Unwind, the one core.RewriteThread runs, so what this pass
// accepts the rewriter unwinds.
func checkThread(core *image.CoreImage, ps *image.PageSet, b *Binary, decode func(*stackmap.Func) *funcCode, r *Report) {
	meta, ai := b.Meta, stackmap.ArchIdx(b.Arch)
	regs := core.Regs
	if _, parked := meta.SiteByTrapPC(b.Arch, regs.PC); !parked {
		// Restore nudges trapped threads forward to the checker start, so
		// accept a resume PC as parked too.
		for _, f := range meta.Funcs {
			if f.EntrySite != nil && f.EntrySite.PCs[ai].ResumePC == regs.PC {
				regs.PC, parked = f.EntrySite.PCs[ai].TrapPC, true
				break
			}
		}
		if !parked {
			f, ok := meta.FuncByPC(regs.PC)
			if !ok {
				r.add(InvImagePC, "thread %d: pc 0x%x inside no function of the target binary", core.TID, regs.PC)
			} else if fc := decode(f); fc != nil && !fc.boundary(regs.PC) {
				r.add(InvImagePC, "thread %d: pc 0x%x off an instruction boundary of %s in the target binary",
					core.TID, regs.PC, f.Name)
			}
			// Not parked at an equivalence point: frames may be mid-call, so
			// the strict walk does not apply.
			return
		}
	}

	// A word the local page set cannot produce ends the walk without a
	// verdict; a stack page the image does not mention is demand-zero.
	read := func(addr uint64) (uint64, error) {
		if ps.Class(addr/mem.PageSize*mem.PageSize) == image.PageAbsent {
			return 0, nil
		}
		v, err := ps.ReadU64(addr)
		if err != nil {
			err = errNoVerdict
		}
		return v, err
	}
	_, _, err := meta.Unwind(b.Arch, &regs, core.StackLow, core.StackHigh, read)
	var refusal *stackmap.Refusal
	if errors.As(err, &refusal) { // never unwind-pc: regs.PC is a trap PC by now
		r.add(InvImageStack, "thread %d: %s in the target binary (%s)", core.TID, refusal.Detail, refusal.Name)
	}
}
