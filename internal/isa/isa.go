// Package isa defines the architecture model shared by DAPPER's two
// simulated instruction sets.
//
// The reproduction substitutes x86-64 and aarch64 with two synthetic ISAs
// that preserve every property the DAPPER rewriter cares about:
//
//   - SX86 is CISC-like: 8 general-purpose registers, variable-length byte
//     encoding, two-operand ALU forms, PUSH/POP, and a CALL instruction that
//     pushes the return address on the stack.
//   - SARM is RISC-like: 16 general-purpose registers, fixed 32-bit words,
//     three-operand ALU forms, MOVZ/MOVK immediate construction, LDP/STP
//     pair instructions, and a BL instruction that places the return address
//     in a link register.
//
// Both ISAs decode into a common semantic instruction (Inst) executed by a
// single interpreter (internal/vm); only the byte encodings, register
// files, and ABIs differ, which is exactly the state DAPPER must translate
// when rewriting a process image across architectures.
package isa

import "fmt"

// Arch identifies one of the two simulated architectures.
type Arch uint8

// Supported architectures.
const (
	SX86 Arch = iota + 1 // CISC-like, variable-length encoding
	SARM                 // RISC-like, fixed 32-bit words
)

func (a Arch) String() string {
	switch a {
	case SX86:
		return "sx86"
	case SARM:
		return "sarm"
	default:
		return fmt.Sprintf("Arch(%d)", uint8(a))
	}
}

// Other returns the opposite architecture, used when selecting the
// destination of a cross-ISA transformation.
func (a Arch) Other() Arch {
	if a == SX86 {
		return SARM
	}
	return SX86
}

// Reg names a general-purpose register. SX86 uses R0..R7, SARM R0..R15.
type Reg uint8

// NoReg marks an unused register operand.
const NoReg Reg = 0xff

// NumRegs is the size of the architecture-independent register file. SX86
// only uses the first 8 slots.
const NumRegs = 16

// RegFile is a thread's architectural register state. Float values are
// stored as IEEE-754 bits in the same registers (the simulated ISAs share
// one register file between integer and floating-point operations; see
// DESIGN.md §6). Its img tags are fields 3-5 of the core image that
// inlines it (internal/image).
type RegFile struct {
	R   [NumRegs]uint64 `img:"3,fixed"`
	PC  uint64          `img:"4,fixed"`
	TLS uint64          `img:"5,fixed"` // TLS base register (FS base on SX86, TPIDR on SARM)
}

// Op is the architecture-independent semantic operation of an instruction.
// Decoders for both ISAs produce these; the interpreter executes them.
type Op uint8

// Semantic operations. Some exist on only one ISA (e.g. OpPush on SX86,
// OpLoadPair on SARM); the common interpreter supports the union.
const (
	_ Op = iota // the zero Op is invalid
	OpNop
	OpTrap    // breakpoint (0xCC on SX86, 0xD4200000 on SARM)
	OpSyscall // kernel call; number and args per ABI

	OpMovImm    // rd = imm64 (SX86 only; SARM builds immediates with MOVZ/MOVK)
	OpMovZ      // rd = imm16 << (16*sh)    (SARM)
	OpMovK      // rd |= imm16 << (16*sh)   (SARM; keeps other bits)
	OpMov       // rd = rn
	OpLoad      // rd = mem64[rn + imm]
	OpStore     // mem64[rn + imm] = rd
	OpLoadPair  // rd = mem64[rn+imm]; rm = mem64[rn+imm+8]  (SARM)
	OpStorePair // mem64[rn+imm] = rd; mem64[rn+imm+8] = rm  (SARM)
	OpLea       // rd = rn + imm

	OpAdd // rd = rn + rm
	OpSub
	OpMul
	OpDiv // signed; divide by zero faults
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr    // logical
	OpAddImm // rd = rn + imm

	OpFAdd // float64 on register bits
	OpFSub
	OpFMul
	OpFDiv
	OpItoF // rd = float64(int64(rn)) bits
	OpFtoI // rd = int64(float64bits(rn))

	OpCmpEq // rd = (rn == rm) ? 1 : 0, signed comparisons
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe
	OpFCmpEq
	OpFCmpLt
	OpFCmpLe

	OpPush // SX86: sp -= 8; mem[sp] = rd
	OpPop  // SX86: rd = mem[sp]; sp += 8
	OpCall // transfer to imm; return address per ABI (stack or LR)
	OpRet  // return per ABI (pop or LR)
	OpJmp  // pc = imm (decoders resolve PC-relative forms to absolute)
	OpJz   // if rd == 0: pc = imm
	OpJnz  // if rd != 0: pc = imm

	OpTlsLoad  // rd = mem64[TLS + imm]
	OpTlsStore // mem64[TLS + imm] = rd
	OpMrs      // rd = TLS base register
	OpMsr      // TLS base register = rd

	opMax
)

var opNames = map[Op]string{
	OpNop: "nop", OpTrap: "trap", OpSyscall: "syscall",
	OpMovImm: "mov", OpMovZ: "movz", OpMovK: "movk", OpMov: "mov",
	OpLoad: "ldr", OpStore: "str", OpLoadPair: "ldp", OpStorePair: "stp",
	OpLea: "lea", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpMod: "mod", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpShr: "shr", OpAddImm: "addi", OpFAdd: "fadd", OpFSub: "fsub",
	OpFMul: "fmul", OpFDiv: "fdiv", OpItoF: "itof", OpFtoI: "ftoi",
	OpCmpEq: "cmpeq", OpCmpNe: "cmpne", OpCmpLt: "cmplt", OpCmpLe: "cmple",
	OpCmpGt: "cmpgt", OpCmpGe: "cmpge", OpFCmpEq: "fcmpeq",
	OpFCmpLt: "fcmplt", OpFCmpLe: "fcmple", OpPush: "push", OpPop: "pop",
	OpCall: "call", OpRet: "ret", OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpTlsLoad: "tlsld", OpTlsStore: "tlsst", OpMrs: "mrs", OpMsr: "msr",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Inst is a decoded instruction in architecture-independent form.
type Inst struct {
	Op  Op
	Rd  Reg   // destination (or source for stores/push)
	Rn  Reg   // first source / base register
	Rm  Reg   // second source / pair register
	Sh  uint8 // 16-bit shift index for MOVZ/MOVK (0..3)
	Imm int64 // immediate, displacement, or absolute branch target
	Len int   // encoded length in bytes at its address
}

func (i Inst) String() string {
	switch i.Op {
	case OpNop, OpTrap, OpSyscall, OpRet:
		return i.Op.String()
	case OpMovImm:
		return fmt.Sprintf("mov r%d, #%d", i.Rd, i.Imm)
	case OpMovZ, OpMovK:
		return fmt.Sprintf("%s r%d, #%d, lsl #%d", i.Op, i.Rd, i.Imm, 16*i.Sh)
	case OpMov, OpItoF, OpFtoI, OpMrs, OpMsr:
		return fmt.Sprintf("%s r%d, r%d", i.Op, i.Rd, i.Rn)
	case OpLoad, OpLea:
		return fmt.Sprintf("%s r%d, [r%d, #%d]", i.Op, i.Rd, i.Rn, i.Imm)
	case OpStore:
		return fmt.Sprintf("str [r%d, #%d], r%d", i.Rn, i.Imm, i.Rd)
	case OpLoadPair, OpStorePair:
		return fmt.Sprintf("%s r%d, r%d, [r%d, #%d]", i.Op, i.Rd, i.Rm, i.Rn, i.Imm)
	case OpAddImm:
		return fmt.Sprintf("addi r%d, r%d, #%d", i.Rd, i.Rn, i.Imm)
	case OpPush, OpPop:
		return fmt.Sprintf("%s r%d", i.Op, i.Rd)
	case OpCall, OpJmp:
		return fmt.Sprintf("%s 0x%x", i.Op, uint64(i.Imm))
	case OpJz, OpJnz:
		return fmt.Sprintf("%s r%d, 0x%x", i.Op, i.Rd, uint64(i.Imm))
	case OpTlsLoad:
		return fmt.Sprintf("tlsld r%d, [tls, #%d]", i.Rd, i.Imm)
	case OpTlsStore:
		return fmt.Sprintf("tlsst [tls, #%d], r%d", i.Imm, i.Rd)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rn, i.Rm)
	}
}

// Cycles returns the cost of the instruction in the virtual-time model.
// The constants approximate relative latencies; absolute timing realism is
// provided by the node clock models in internal/cluster.
func (i Inst) Cycles() uint64 {
	switch i.Op {
	case OpLoad, OpStore, OpPush, OpPop, OpTlsLoad, OpTlsStore:
		return 2
	case OpLoadPair, OpStorePair:
		return 3
	case OpMul:
		return 3
	case OpDiv, OpMod:
		return 12
	case OpFAdd, OpFSub, OpFMul:
		return 4
	case OpFDiv:
		return 14
	case OpCall, OpRet:
		return 3
	case OpSyscall:
		return 50
	default:
		return 1
	}
}
