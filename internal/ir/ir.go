// Package ir is DAPPER's architecture-independent intermediate
// representation. One lowering of the DapC AST feeds both backends, which
// guarantees the property the paper's cross-ISA rewriting depends on: live
// values, frame slots, and equivalence-point site IDs are *identical*
// across the two generated binaries — only their locations differ.
//
// Invariants established here and relied on by the rewriter:
//
//   - No virtual register is live across a call: the lowering spills the
//     evaluation stack to temp slots around every call, so at a call-site
//     equivalence point every live value is in a frame slot.
//   - At a function-entry equivalence point the only live values are the
//     parameters, still in their (per-ISA) argument registers.
//   - Virtual registers are block-local and carry an evaluation-stack
//     depth, so both backends map them to physical scratch registers the
//     same way.
package ir

import (
	"fmt"
	"strings"
)

// VReg is a virtual register (block-local). -1 means "no register".
type VReg int

// NoVReg marks an absent register operand.
const NoVReg VReg = -1

// MaxDepth is the highest normal evaluation-stack depth. Depth
// MaxDepth+1 is the reserved emergency depth used to reload a spilled
// operand (backends map it to the checker-reserved register).
const MaxDepth = 3

// Op is an IR operation.
type Op uint8

// IR operations.
const (
	_            Op = iota // the zero Op is invalid
	OpConstInt             // Dst = Imm
	OpConstFloat           // Dst = F

	OpIAdd // Dst = A op B
	OpISub
	OpIMul
	OpIDiv
	OpIMod
	OpIAnd
	OpIOr
	OpIXor
	OpIShl
	OpIShr
	OpICmpEq
	OpICmpNe
	OpICmpLt
	OpICmpLe
	OpICmpGt
	OpICmpGe

	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFCmpEq
	OpFCmpLt
	OpFCmpLe

	OpItoF
	OpFtoI

	OpLoadSlot   // Dst = slot[Slot]
	OpStoreSlot  // slot[Slot] = A
	OpSlotAddr   // Dst = &slot[Slot]
	OpGlobalAddr // Dst = &global(Sym) + Imm
	OpFuncAddr   // Dst = &func(Sym)

	OpLoad  // Dst = mem64[A]
	OpStore // mem64[A] = B

	OpCall     // [Dst =] call Sym(ArgSlots...); equivalence point Site
	OpSyscall  // [Dst =] syscall Imm(Args... vregs)  — runtime wrappers only
	OpTlsLoad  // Dst = tls[Imm]   (block offset)    — runtime wrappers only
	OpTlsStore // tls[Imm] = A                        — runtime wrappers only

	OpJmp // goto block T1
	OpBr  // if A != 0 goto T1 else T2
	OpRet // return [A]
)

var opNames = map[Op]string{
	OpConstInt: "const", OpConstFloat: "fconst",
	OpIAdd: "add", OpISub: "sub", OpIMul: "mul", OpIDiv: "div", OpIMod: "mod",
	OpIAnd: "and", OpIOr: "or", OpIXor: "xor", OpIShl: "shl", OpIShr: "shr",
	OpICmpEq: "eq", OpICmpNe: "ne", OpICmpLt: "lt", OpICmpLe: "le",
	OpICmpGt: "gt", OpICmpGe: "ge",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFCmpEq: "feq", OpFCmpLt: "flt", OpFCmpLe: "fle",
	OpItoF: "itof", OpFtoI: "ftoi",
	OpLoadSlot: "ldslot", OpStoreSlot: "stslot", OpSlotAddr: "slotaddr",
	OpGlobalAddr: "gaddr", OpFuncAddr: "faddr",
	OpLoad: "load", OpStore: "store",
	OpCall: "call", OpSyscall: "syscall",
	OpTlsLoad: "tlsld", OpTlsStore: "tlsst",
	OpJmp: "jmp", OpBr: "br", OpRet: "ret",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Instr is one IR instruction.
type Instr struct {
	Op   Op
	Dst  VReg
	A, B VReg
	Imm  int64
	F    float64
	Slot int
	Sym  string
	// ArgSlots are the temp slots holding call arguments (OpCall), or the
	// vregs for OpSyscall are in Args.
	ArgSlots []int
	Args     []VReg
	// Site is the equivalence-point site id of an OpCall.
	Site int
	// LiveSlots is filled by ComputeLiveness for OpCall: the slots whose
	// values have downstream uses after the call returns (the stack-map
	// live-value record for this site).
	LiveSlots []int
	// T1, T2 are block indices for OpJmp/OpBr.
	T1, T2 int
}

// SlotKind classifies function slots (mirrors stackmap.SlotKind).
type SlotKind uint8

// Slot kinds.
const (
	SlotParam SlotKind = iota + 1
	SlotLocal
	SlotArray
	SlotTemp
)

// SlotDef is one frame slot of a function.
type SlotDef struct {
	ID       int
	Name     string
	Kind     SlotKind
	Size     int64 // bytes
	Ptr      bool
	ArrayLen int64
}

// Block is a basic block.
type Block struct {
	Instrs []Instr
}

// Terminated reports whether the block already ends in a terminator.
func (b *Block) Terminated() bool {
	if len(b.Instrs) == 0 {
		return false
	}
	switch b.Instrs[len(b.Instrs)-1].Op {
	case OpJmp, OpBr, OpRet:
		return true
	}
	return false
}

// Func is one IR function.
type Func struct {
	Name      string
	NumParams int
	// ParamPtr marks pointer-typed parameters.
	ParamPtr []bool
	// HasRet reports a non-void return type.
	HasRet bool
	// RetPtr marks a pointer-typed return value.
	RetPtr bool
	Slots  []SlotDef
	Blocks []*Block
	// VRegDepth maps each vreg to its evaluation-stack depth (the
	// backends' register assignment).
	VRegDepth []uint8
	// EntrySiteID is the function-entry equivalence point.
	EntrySiteID int
	// Blocking marks blocking-syscall wrappers (rollback targets).
	Blocking bool
	// Wrapper marks compiler-emitted runtime functions.
	Wrapper bool
}

// NewVReg allocates a virtual register at the given depth.
func (f *Func) NewVReg(depth int) VReg {
	f.VRegDepth = append(f.VRegDepth, uint8(depth))
	return VReg(len(f.VRegDepth) - 1)
}

// NewBlock appends an empty block, returning its index.
func (f *Func) NewBlock() int {
	f.Blocks = append(f.Blocks, &Block{})
	return len(f.Blocks) - 1
}

// StrLit is a pooled string literal placed in the data section.
type StrLit struct {
	Sym  string
	Data string
}

// GlobalDef is a program global.
type GlobalDef struct {
	Name string
	Size int64 // bytes
	Ptr  bool
}

// Program is a lowered program: user functions plus the runtime wrappers,
// ready for both backends.
type Program struct {
	Funcs   []*Func
	Globals []GlobalDef
	Strings []StrLit
	// NextSiteID is the site-id counter (site 0 is unused).
	NextSiteID int
}

// NewSite allocates a fresh equivalence-point site id.
func (p *Program) NewSite() int {
	p.NextSiteID++
	return p.NextSiteID
}

// Dump renders the program for debugging and golden tests.
func (p *Program) Dump() string {
	var sb strings.Builder
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "func %s (params=%d, slots=%d, entrysite=%d)\n", f.Name, f.NumParams, len(f.Slots), f.EntrySiteID)
		for bi, b := range f.Blocks {
			fmt.Fprintf(&sb, " b%d:\n", bi)
			for _, in := range b.Instrs {
				fmt.Fprintf(&sb, "   %s\n", instrString(in))
			}
		}
	}
	return sb.String()
}

func instrString(in Instr) string {
	switch in.Op {
	case OpConstInt:
		return fmt.Sprintf("v%d = const %d", in.Dst, in.Imm)
	case OpConstFloat:
		return fmt.Sprintf("v%d = fconst %g", in.Dst, in.F)
	case OpLoadSlot:
		return fmt.Sprintf("v%d = ldslot s%d", in.Dst, in.Slot)
	case OpStoreSlot:
		return fmt.Sprintf("stslot s%d = v%d", in.Slot, in.A)
	case OpSlotAddr:
		return fmt.Sprintf("v%d = &s%d", in.Dst, in.Slot)
	case OpGlobalAddr:
		return fmt.Sprintf("v%d = &%s+%d", in.Dst, in.Sym, in.Imm)
	case OpFuncAddr:
		return fmt.Sprintf("v%d = &func %s", in.Dst, in.Sym)
	case OpLoad:
		return fmt.Sprintf("v%d = load [v%d]", in.Dst, in.A)
	case OpStore:
		return fmt.Sprintf("store [v%d] = v%d", in.A, in.B)
	case OpCall:
		return fmt.Sprintf("v%d = call %s%v site=%d", in.Dst, in.Sym, in.ArgSlots, in.Site)
	case OpSyscall:
		return fmt.Sprintf("v%d = syscall %d %v", in.Dst, in.Imm, in.Args)
	case OpTlsLoad:
		return fmt.Sprintf("v%d = tls[%d]", in.Dst, in.Imm)
	case OpTlsStore:
		return fmt.Sprintf("tls[%d] = v%d", in.Imm, in.A)
	case OpJmp:
		return fmt.Sprintf("jmp b%d", in.T1)
	case OpBr:
		return fmt.Sprintf("br v%d ? b%d : b%d", in.A, in.T1, in.T2)
	case OpRet:
		if in.A == NoVReg {
			return "ret"
		}
		return fmt.Sprintf("ret v%d", in.A)
	case OpItoF, OpFtoI:
		return fmt.Sprintf("v%d = %s v%d", in.Dst, in.Op, in.A)
	default:
		return fmt.Sprintf("v%d = %s v%d, v%d", in.Dst, in.Op, in.A, in.B)
	}
}
