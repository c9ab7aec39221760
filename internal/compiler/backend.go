// Package compiler contains DAPPER's two code generators, the
// cross-ISA-aligned linker, and the DELF binary format. It plays the role
// of the paper's modified LLVM 9 + GNU gold toolchain:
//
//   - every function entry is instrumented with an equivalence-point
//     checker (flag test, lock-depth test, TRAP);
//   - stack-map records are emitted for the entry site and every call
//     site, with per-ISA value locations;
//   - both binaries are laid out with identical symbol addresses by
//     padding every function to a common size with NOPs (the unified
//     virtual address space).
package compiler

import (
	"fmt"
	"math"

	"github.com/dapper-sim/dapper/internal/asm"
	"github.com/dapper-sim/dapper/internal/ir"
	"github.com/dapper-sim/dapper/internal/isa"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// siteLabels track the fragment labels whose addresses become stack-map
// PCs after assembly.
type siteLabels struct {
	siteID int
	// Entry sites use checkerStart and trap; call sites use retAddr.
	checkerStart asm.Label
	trap         asm.Label
	retAddr      asm.Label
	kind         ir.Op // zero for entry, OpCall for call sites
	liveSlots    []int
}

// funcOut is the per-architecture result of generating one function.
type funcOut struct {
	frag *asm.Fragment
	// slotOff maps slot id -> frame offset (slot at FP-off).
	slotOff map[int]int64
	// frameLocal is the locals-area size (without the FP/LR header).
	frameLocal int64
	entry      siteLabels
	callSites  []siteLabels
	// pairSlots are slots accessed with LDP/STP pair instructions.
	pairSlots map[int]bool
}

// gen is the per-function, per-architecture code generator.
type gen struct {
	f     *ir.Func
	abi   *isa.ABI
	coder isa.Coder
	frag  *asm.Fragment
	out   *funcOut
	// blockLabels[i] is the label of block i.
	blockLabels []asm.Label
}

// genFunc generates one function for one architecture.
func genFunc(f *ir.Func, abi *isa.ABI, coder isa.Coder) (*funcOut, error) {
	g := &gen{
		f: f, abi: abi, coder: coder,
		frag: asm.New(coder),
		out: &funcOut{
			slotOff:   make(map[int]int64),
			pairSlots: make(map[int]bool),
		},
	}
	g.out.frag = g.frag
	g.layoutFrame()
	if err := g.emitChecker(); err != nil {
		return nil, err
	}
	g.emitPrologue()
	g.blockLabels = make([]asm.Label, len(f.Blocks))
	for i := range f.Blocks {
		g.blockLabels[i] = g.frag.NewLabel()
	}
	for i, b := range f.Blocks {
		g.frag.Define(g.blockLabels[i])
		for _, in := range b.Instrs {
			if err := g.emitInstr(in); err != nil {
				return nil, fmt.Errorf("%s (%s): %w", f.Name, g.abi.Arch, err)
			}
		}
	}
	return g.out, nil
}

// layoutFrame assigns slot offsets. SX86 assigns them in declaration
// order, SARM in reverse — a deliberate ABI difference that forces the
// rewriter to relocate every slot when switching architectures.
func (g *gen) layoutFrame() {
	var cum int64
	assign := func(s ir.SlotDef) {
		cum += s.Size
		g.out.slotOff[s.ID] = cum
	}
	if g.abi.Arch == isa.SX86 {
		for _, s := range g.f.Slots {
			assign(s)
		}
	} else {
		for i := len(g.f.Slots) - 1; i >= 0; i-- {
			assign(g.f.Slots[i])
		}
	}
	align := int64(g.abi.StackAlign)
	g.out.frameLocal = (cum + align - 1) / align * align
}

// emitChecker emits the equivalence-point checker: if the DAPPER flag is
// set and the thread holds no locks, raise SIGTRAP. Only the reserved
// checker register is touched, so argument registers survive to the
// prologue — the entry stack map describes them.
func (g *gen) emitChecker() error {
	ck := g.abi.CheckerReg
	skip := g.frag.NewLabel()
	g.out.entry = siteLabels{siteID: g.f.EntrySiteID}
	g.out.entry.checkerStart = g.frag.Here()
	g.frag.Emit(isa.Inst{Op: isa.OpMovImm, Rd: ck, Imm: int64(isa.FlagAddr)})
	g.frag.Emit(isa.Inst{Op: isa.OpLoad, Rd: ck, Rn: ck, Imm: 0})
	g.frag.EmitBranch(isa.Inst{Op: isa.OpJz, Rd: ck}, skip)
	g.frag.Emit(isa.Inst{Op: isa.OpTlsLoad, Rd: ck, Imm: isa.TLSSlotLockDepth - int64(g.abi.TLSRegBias)})
	g.frag.EmitBranch(isa.Inst{Op: isa.OpJnz, Rd: ck}, skip)
	g.out.entry.trap = g.frag.Here()
	g.frag.Emit(isa.Inst{Op: isa.OpTrap})
	g.frag.Define(skip)
	return nil
}

// emitPrologue sets up the frame and stores parameters to their slots.
func (g *gen) emitPrologue() {
	abi := g.abi
	frame := g.out.frameLocal
	if abi.RetAddrOnStack {
		// SX86: push fp; mov fp, sp; sub sp, frame.
		g.frag.Emit(isa.Inst{Op: isa.OpPush, Rd: abi.FP})
		g.frag.Emit(isa.Inst{Op: isa.OpMov, Rd: abi.FP, Rn: abi.SP})
		if frame != 0 {
			g.frag.Emit(isa.Inst{Op: isa.OpAddImm, Rd: abi.SP, Rn: abi.SP, Imm: -frame})
		}
		for i := 0; i < g.f.NumParams; i++ {
			g.frag.Emit(isa.Inst{Op: isa.OpStore, Rd: abi.ArgRegs[i], Rn: abi.FP, Imm: -g.out.slotOff[i]})
		}
		return
	}
	// SARM: sub sp, frame+16; stp fp, lr, [sp, frame]; add fp, sp, frame.
	total := frame + 16
	g.subSPImm(total)
	if frame <= 2047 {
		g.frag.Emit(isa.Inst{Op: isa.OpStorePair, Rd: abi.FP, Rm: abi.LR, Rn: abi.SP, Imm: frame})
	} else {
		g.addrInCK(abi.SP, frame)
		g.frag.Emit(isa.Inst{Op: isa.OpStorePair, Rd: abi.FP, Rm: abi.LR, Rn: abi.CheckerReg, Imm: 0})
	}
	g.addImmTo(abi.FP, abi.SP, frame)
	// Store parameters, pairing adjacent ones with STP (these slots are
	// then pair-accessed — excluded from stack shuffling, reproducing the
	// paper's lower aarch64 entropy).
	i := 0
	for i+1 < g.f.NumParams {
		off0 := g.out.slotOff[i]
		off1 := g.out.slotOff[i+1]
		if off0 == off1+8 && -off0 >= -2048 && -off0 <= 2047 {
			g.frag.Emit(isa.Inst{Op: isa.OpStorePair, Rd: abi.ArgRegs[i], Rm: abi.ArgRegs[i+1], Rn: abi.FP, Imm: -off0})
			g.out.pairSlots[i] = true
			g.out.pairSlots[i+1] = true
			i += 2
			continue
		}
		break
	}
	for ; i < g.f.NumParams; i++ {
		g.storeToSlotFrom(abi.ArgRegs[i], i)
	}
}

// subSPImm emits sp -= v, materializing large constants.
func (g *gen) subSPImm(v int64) {
	if v == 0 {
		return
	}
	if g.abi.Arch == isa.SX86 || (v <= 2047) {
		g.frag.Emit(isa.Inst{Op: isa.OpAddImm, Rd: g.abi.SP, Rn: g.abi.SP, Imm: -v})
		return
	}
	ck := g.abi.CheckerReg
	g.frag.Emit(isa.Inst{Op: isa.OpMovImm, Rd: ck, Imm: v})
	g.frag.Emit(isa.Inst{Op: isa.OpSub, Rd: g.abi.SP, Rn: g.abi.SP, Rm: ck})
}

// addImmTo emits dst = src + v, materializing large constants.
func (g *gen) addImmTo(dst, src isa.Reg, v int64) {
	if g.abi.Arch == isa.SX86 {
		if dst == src {
			g.frag.Emit(isa.Inst{Op: isa.OpAddImm, Rd: dst, Rn: dst, Imm: v})
		} else {
			g.frag.Emit(isa.Inst{Op: isa.OpLea, Rd: dst, Rn: src, Imm: v})
		}
		return
	}
	if v >= -2048 && v <= 2047 {
		g.frag.Emit(isa.Inst{Op: isa.OpAddImm, Rd: dst, Rn: src, Imm: v})
		return
	}
	ck := g.abi.CheckerReg
	g.frag.Emit(isa.Inst{Op: isa.OpMovImm, Rd: ck, Imm: v})
	g.frag.Emit(isa.Inst{Op: isa.OpAdd, Rd: dst, Rn: src, Rm: ck})
}

// addrInCK computes base+off into the checker register (SARM big-offset
// path).
func (g *gen) addrInCK(base isa.Reg, off int64) {
	ck := g.abi.CheckerReg
	g.frag.Emit(isa.Inst{Op: isa.OpMovImm, Rd: ck, Imm: off})
	g.frag.Emit(isa.Inst{Op: isa.OpAdd, Rd: ck, Rn: base, Rm: ck})
}

// phys maps a vreg to its physical register via the depth discipline.
func (g *gen) phys(v ir.VReg) isa.Reg {
	d := int(g.f.VRegDepth[v])
	if d < len(g.abi.Scratch) && d <= ir.MaxDepth+1 {
		return g.abi.Scratch[d]
	}
	return g.abi.CheckerReg
}

// fitsNarrow reports whether a frame displacement fits the architecture's
// load/store immediate.
func (g *gen) fitsNarrow(off int64) bool {
	if g.abi.Arch == isa.SX86 {
		return true // disp32
	}
	return off >= -2048 && off <= 2047
}

func (g *gen) loadFromSlot(dst isa.Reg, slot int) error {
	off := -g.out.slotOff[slot]
	if g.fitsNarrow(off) {
		g.frag.Emit(isa.Inst{Op: isa.OpLoad, Rd: dst, Rn: g.abi.FP, Imm: off})
		return nil
	}
	if dst == g.abi.CheckerReg {
		return fmt.Errorf("slot %d: large-offset load into checker register", slot)
	}
	g.addrInCK(g.abi.FP, off)
	g.frag.Emit(isa.Inst{Op: isa.OpLoad, Rd: dst, Rn: g.abi.CheckerReg, Imm: 0})
	return nil
}

func (g *gen) storeToSlotFrom(src isa.Reg, slot int) {
	off := -g.out.slotOff[slot]
	if g.fitsNarrow(off) {
		g.frag.Emit(isa.Inst{Op: isa.OpStore, Rd: src, Rn: g.abi.FP, Imm: off})
		return
	}
	g.addrInCK(g.abi.FP, off)
	g.frag.Emit(isa.Inst{Op: isa.OpStore, Rd: src, Rn: g.abi.CheckerReg, Imm: 0})
}

func (g *gen) emitEpilogue() {
	abi := g.abi
	if abi.RetAddrOnStack {
		g.frag.Emit(isa.Inst{Op: isa.OpMov, Rd: abi.SP, Rn: abi.FP})
		g.frag.Emit(isa.Inst{Op: isa.OpPop, Rd: abi.FP})
		g.frag.Emit(isa.Inst{Op: isa.OpRet})
		return
	}
	g.frag.Emit(isa.Inst{Op: isa.OpAddImm, Rd: abi.SP, Rn: abi.FP, Imm: 16})
	g.frag.Emit(isa.Inst{Op: isa.OpLoadPair, Rd: abi.FP, Rm: abi.LR, Rn: abi.FP, Imm: 0})
	g.frag.Emit(isa.Inst{Op: isa.OpRet})
}

var irALU = map[ir.Op]isa.Op{
	ir.OpIAdd: isa.OpAdd, ir.OpISub: isa.OpSub, ir.OpIMul: isa.OpMul,
	ir.OpIDiv: isa.OpDiv, ir.OpIMod: isa.OpMod, ir.OpIAnd: isa.OpAnd,
	ir.OpIOr: isa.OpOr, ir.OpIXor: isa.OpXor, ir.OpIShl: isa.OpShl,
	ir.OpIShr:   isa.OpShr,
	ir.OpICmpEq: isa.OpCmpEq, ir.OpICmpNe: isa.OpCmpNe,
	ir.OpICmpLt: isa.OpCmpLt, ir.OpICmpLe: isa.OpCmpLe,
	ir.OpICmpGt: isa.OpCmpGt, ir.OpICmpGe: isa.OpCmpGe,
	ir.OpFAdd: isa.OpFAdd, ir.OpFSub: isa.OpFSub, ir.OpFMul: isa.OpFMul,
	ir.OpFDiv: isa.OpFDiv, ir.OpFCmpEq: isa.OpFCmpEq,
	ir.OpFCmpLt: isa.OpFCmpLt, ir.OpFCmpLe: isa.OpFCmpLe,
}

func (g *gen) emitInstr(in ir.Instr) error {
	abi := g.abi
	switch in.Op {
	case ir.OpConstInt:
		g.frag.Emit(isa.Inst{Op: isa.OpMovImm, Rd: g.phys(in.Dst), Imm: in.Imm})
	case ir.OpConstFloat:
		g.frag.Emit(isa.Inst{Op: isa.OpMovImm, Rd: g.phys(in.Dst), Imm: int64(floatBits(in.F))})
	case ir.OpItoF:
		g.frag.Emit(isa.Inst{Op: isa.OpItoF, Rd: g.phys(in.Dst), Rn: g.phys(in.A)})
	case ir.OpFtoI:
		g.frag.Emit(isa.Inst{Op: isa.OpFtoI, Rd: g.phys(in.Dst), Rn: g.phys(in.A)})
	case ir.OpLoadSlot:
		return g.loadFromSlot(g.phys(in.Dst), in.Slot)
	case ir.OpStoreSlot:
		g.storeToSlotFrom(g.phys(in.A), in.Slot)
	case ir.OpSlotAddr:
		g.addImmTo(g.phys(in.Dst), abi.FP, -g.out.slotOff[in.Slot])
	case ir.OpGlobalAddr:
		g.frag.EmitSym(isa.Inst{Op: isa.OpMovImm, Rd: g.phys(in.Dst)}, in.Sym, in.Imm)
	case ir.OpFuncAddr:
		g.frag.EmitSym(isa.Inst{Op: isa.OpMovImm, Rd: g.phys(in.Dst)}, in.Sym, 0)
	case ir.OpLoad:
		g.frag.Emit(isa.Inst{Op: isa.OpLoad, Rd: g.phys(in.Dst), Rn: g.phys(in.A), Imm: 0})
	case ir.OpStore:
		g.frag.Emit(isa.Inst{Op: isa.OpStore, Rd: g.phys(in.B), Rn: g.phys(in.A), Imm: 0})
	case ir.OpTlsLoad:
		g.frag.Emit(isa.Inst{Op: isa.OpTlsLoad, Rd: g.phys(in.Dst), Imm: in.Imm - int64(abi.TLSRegBias)})
	case ir.OpTlsStore:
		g.frag.Emit(isa.Inst{Op: isa.OpTlsStore, Rd: g.phys(in.A), Imm: in.Imm - int64(abi.TLSRegBias)})
	case ir.OpCall:
		for i, slot := range in.ArgSlots {
			if i >= len(abi.ArgRegs) {
				return fmt.Errorf("call %s: too many arguments", in.Sym)
			}
			if err := g.loadFromSlot(abi.ArgRegs[i], slot); err != nil {
				return err
			}
		}
		g.frag.EmitSym(isa.Inst{Op: isa.OpCall}, in.Sym, 0)
		site := siteLabels{siteID: in.Site, kind: ir.OpCall, retAddr: g.frag.Here(), liveSlots: in.LiveSlots}
		g.out.callSites = append(g.out.callSites, site)
		if in.Dst != ir.NoVReg && g.phys(in.Dst) != abi.RetReg {
			g.frag.Emit(isa.Inst{Op: isa.OpMov, Rd: g.phys(in.Dst), Rn: abi.RetReg})
		}
	case ir.OpSyscall:
		// Move args highest-first: syscall arg registers are the scratch
		// registers shifted by one, so reverse order avoids clobbering.
		for i := len(in.Args) - 1; i >= 0; i-- {
			src := g.phys(in.Args[i])
			dst := abi.SyscallArgRegs[i]
			if src != dst {
				g.frag.Emit(isa.Inst{Op: isa.OpMov, Rd: dst, Rn: src})
			}
		}
		g.frag.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallNumReg, Imm: in.Imm})
		g.frag.Emit(isa.Inst{Op: isa.OpSyscall})
		if in.Dst != ir.NoVReg && g.phys(in.Dst) != abi.RetReg {
			g.frag.Emit(isa.Inst{Op: isa.OpMov, Rd: g.phys(in.Dst), Rn: abi.RetReg})
		}
	case ir.OpJmp:
		g.frag.EmitBranch(isa.Inst{Op: isa.OpJmp}, g.blockLabels[in.T1])
	case ir.OpBr:
		g.frag.EmitBranch(isa.Inst{Op: isa.OpJnz, Rd: g.phys(in.A)}, g.blockLabels[in.T1])
		g.frag.EmitBranch(isa.Inst{Op: isa.OpJmp}, g.blockLabels[in.T2])
	case ir.OpRet:
		if in.A != ir.NoVReg && g.phys(in.A) != abi.RetReg {
			g.frag.Emit(isa.Inst{Op: isa.OpMov, Rd: abi.RetReg, Rn: g.phys(in.A)})
		}
		g.emitEpilogue()
	default:
		op, ok := irALU[in.Op]
		if !ok {
			return fmt.Errorf("cannot generate IR op %v", in.Op)
		}
		g.frag.EmitALU3(op, g.phys(in.Dst), g.phys(in.A), g.phys(in.B), abi.CheckerReg)
	}
	return nil
}
