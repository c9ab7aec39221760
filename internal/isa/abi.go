package isa

// Address-space layout shared by both architectures. The linker lays out
// both binaries identically (DAPPER's "unified global virtual address
// space"), so any pointer to code, globals, heap, or TLS remains valid
// after a cross-ISA rewrite; only stack-internal pointers must be remapped
// because frame layouts differ per ABI.
const (
	PageSize = 4096

	TextBase  uint64 = 0x0040_0000 // .text of both binaries
	DataBase  uint64 = 0x1000_0000 // globals; offset 0 is the DAPPER flag
	HeapBase  uint64 = 0x2000_0000 // sbrk arena
	TLSBase   uint64 = 0x6000_0000 // per-thread TLS blocks
	TLSStride uint64 = 0x1000      // one page of TLS per thread
	StackTop  uint64 = 0x7000_0000 // main thread stack grows down from here
	StackSize uint64 = 0x4_0000    // 256 KiB per thread
	StackGap  uint64 = 0x1_0000    // guard gap between thread stacks
)

// FlagAddr is the address of the global transformation flag the DAPPER
// runtime monitor pokes to request a pause. The compiler reserves the first
// data word for it in every binary.
const FlagAddr = DataBase

// TLS block layout (word offsets from the block start). The layout is
// identical across ISAs, but the TLS *register* points at a per-ISA bias
// into the block — mirroring the libc difference between the FS base on
// x86-64 and TPIDR on aarch64 that DAPPER must correct when rewriting.
const (
	TLSSlotTID       = 0 // byte offset of the thread id slot
	TLSSlotLockDepth = 8 // byte offset of the checker-disable lock depth
)

// ABI describes the calling convention and frame conventions of one
// architecture. The DAPPER rewriter consults both ABIs when translating a
// stack from one architecture to the other.
type ABI struct {
	Arch Arch

	NumRegs int
	SP      Reg // stack pointer
	FP      Reg // frame pointer (chains caller frames)
	LR      Reg // link register; NoReg if return addresses live on the stack

	// ArgRegs receive the leading integer/float arguments; RetReg returns
	// the result. Scratch is the set the code generator may clobber freely
	// (no value is ever live in a register across a call). CheckerReg is
	// reserved for the equivalence-point checker so it can run at function
	// entry without disturbing argument registers.
	ArgRegs    []Reg
	RetReg     Reg
	Scratch    []Reg
	CheckerReg Reg

	// SyscallNumReg holds the syscall number; SyscallArgRegs its arguments;
	// the result is written to RetReg.
	SyscallNumReg  Reg
	SyscallArgRegs []Reg

	// RetAddrOnStack is true when CALL pushes the return address (SX86);
	// false when it is placed in LR (SARM).
	RetAddrOnStack bool

	// StackAlign is the required SP alignment at function entry.
	StackAlign uint64

	// TLSRegBias is the displacement the TLS register carries relative to
	// the start of the thread's TLS block ("libc" convention, per-ISA).
	TLSRegBias uint64

	// TrapLen is the encoded size of the TRAP instruction, and MinInstLen
	// the decode granularity (1 for variable-length SX86, 4 for SARM).
	TrapLen    int
	MinInstLen int

	// DwarfBase maps register numbers into a per-ISA DWARF numbering space
	// (register r encodes as DwarfBase+r in stack map records, mirroring
	// the paper's Fig. 4 where the same variable has different DWARF
	// register numbers per ISA).
	DwarfBase int
}

// DwarfReg returns the DWARF encoding of register r under this ABI.
func (a *ABI) DwarfReg(r Reg) int { return a.DwarfBase + int(r) }

// RegFromDwarf inverts DwarfReg.
func (a *ABI) RegFromDwarf(n int) Reg { return Reg(n - a.DwarfBase) }

// TLSBlockStart computes the start of the TLS block from the architectural
// TLS register value.
func (a *ABI) TLSBlockStart(tlsReg uint64) uint64 { return tlsReg - a.TLSRegBias }

// TLSRegValue computes the architectural TLS register value for a block.
func (a *ABI) TLSRegValue(blockStart uint64) uint64 { return blockStart + a.TLSRegBias }

// ABISX86 is the CISC-like calling convention: 8 registers, return address
// pushed by CALL, frame pointer chain through R6.
var ABISX86 = &ABI{
	Arch:           SX86,
	NumRegs:        8,
	SP:             7,
	FP:             6,
	LR:             NoReg,
	ArgRegs:        []Reg{0, 1, 2},
	RetReg:         0,
	Scratch:        []Reg{0, 1, 2, 3, 4},
	CheckerReg:     5,
	SyscallNumReg:  0,
	SyscallArgRegs: []Reg{1, 2, 3, 4},
	RetAddrOnStack: true,
	StackAlign:     8,
	TLSRegBias:     0,
	TrapLen:        1,
	MinInstLen:     1,
	DwarfBase:      16,
}

// ABISARM is the RISC-like calling convention: 16 registers, link register
// R15, frame pointer R12, 16-byte stack alignment.
var ABISARM = &ABI{
	Arch:           SARM,
	NumRegs:        16,
	SP:             14,
	FP:             12,
	LR:             15,
	ArgRegs:        []Reg{0, 1, 2, 3, 4, 5},
	RetReg:         0,
	Scratch:        []Reg{0, 1, 2, 3, 4, 5, 7, 8, 9},
	CheckerReg:     6,
	SyscallNumReg:  0,
	SyscallArgRegs: []Reg{1, 2, 3, 4, 5},
	RetAddrOnStack: false,
	StackAlign:     16,
	TLSRegBias:     16,
	TrapLen:        4,
	MinInstLen:     4,
	DwarfBase:      64,
}

// ABIFor returns the ABI for an architecture.
func ABIFor(a Arch) *ABI {
	if a == SX86 {
		return ABISX86
	}
	return ABISARM
}

// Coder is implemented by each architecture package: it encodes and decodes
// between semantic instructions and machine bytes at a given PC (decoders
// resolve PC-relative branch forms to absolute targets, encoders the
// reverse).
type Coder interface {
	Arch() Arch
	// Size returns the encoded length of inst in bytes.
	Size(inst Inst) int
	// Encode appends the encoding of inst at address pc to dst.
	Encode(dst []byte, inst Inst, pc uint64) ([]byte, error)
	// Decode decodes one instruction at address pc. The returned Inst has
	// Len set to the number of bytes consumed.
	Decode(b []byte, pc uint64) (Inst, error)
}
