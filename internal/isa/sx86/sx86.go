// Package sx86 implements the CISC-like simulated architecture: 8
// general-purpose registers, a variable-length byte encoding, two-operand
// ALU forms, PUSH/POP, and CALL/RET that keep return addresses on the
// stack. Its one-byte RET (0xC3) and TRAP (0xCC) mirror x86-64, which
// matters for the ROP-gadget experiments: gadgets can start at unintended
// byte offsets.
//
// The instruction set is the table below: one row per encoding, giving
// the semantic op, its opcode byte and its operand layout. Size, Encode
// and Decode read nothing else.
package sx86

import (
	"encoding/binary"
	"fmt"

	"github.com/dapper-sim/dapper/internal/isa"
)

// layout is an operand layout. The opcode byte comes first; rd<<4|rn packs
// two registers into one byte, and a one-register form spends the whole
// byte on rd. Immediates are little-endian.
type layout uint8

const (
	none     layout = iota // not an SX86 instruction
	bare                   // [op]                          1 byte
	reg                    // [op][rd]                      2 bytes
	regs                   // [op][rd<<4|rn]                2 bytes
	alu                    // [op][rd<<4|rm], rd = rn       2 bytes
	regsDisp               // [op][rd<<4|rn][disp32]        6 bytes
	addImm                 // [op][rd][imm32], rd = rn      6 bytes
	regDisp                // [op][rd][disp32]              6 bytes
	target                 // [op][imm64 absolute]          9 bytes
	regImm                 // [op][rd][imm64]              10 bytes
)

var size = [...]int{none: 0, bare: 1, reg: 2, regs: 2, alu: 2, regsDisp: 6, addImm: 6, regDisp: 6, target: 9, regImm: 10}

type encoding struct {
	op   isa.Op
	code byte
	l    layout
}

// table is the instruction set. ALU forms are two-operand: the destination
// is also the first source (rd = rd OP rm), the classic CISC shape.
var table = [...]encoding{
	{isa.OpNop, 0x90, bare}, {isa.OpTrap, 0xCC, bare},
	{isa.OpSyscall, 0x0F, bare}, {isa.OpRet, 0xC3, bare},

	{isa.OpMovImm, 0x10, regImm}, {isa.OpMov, 0x11, regs},
	{isa.OpLoad, 0x12, regsDisp}, {isa.OpStore, 0x13, regsDisp}, {isa.OpLea, 0x14, regsDisp},

	{isa.OpAdd, 0x20, alu}, {isa.OpSub, 0x21, alu}, {isa.OpMul, 0x22, alu},
	{isa.OpDiv, 0x23, alu}, {isa.OpMod, 0x24, alu}, {isa.OpAnd, 0x25, alu},
	{isa.OpOr, 0x26, alu}, {isa.OpXor, 0x27, alu}, {isa.OpShl, 0x28, alu},
	{isa.OpShr, 0x29, alu}, {isa.OpAddImm, 0x2A, addImm},

	{isa.OpFAdd, 0x30, alu}, {isa.OpFSub, 0x31, alu}, {isa.OpFMul, 0x32, alu},
	{isa.OpFDiv, 0x33, alu}, {isa.OpItoF, 0x34, regs}, {isa.OpFtoI, 0x35, regs},

	{isa.OpFCmpEq, 0x36, alu}, {isa.OpFCmpLt, 0x37, alu}, {isa.OpCmpEq, 0x38, alu},
	{isa.OpCmpNe, 0x39, alu}, {isa.OpCmpLt, 0x3A, alu}, {isa.OpCmpLe, 0x3B, alu},
	{isa.OpCmpGt, 0x3C, alu}, {isa.OpCmpGe, 0x3D, alu}, {isa.OpFCmpLe, 0x3E, alu},

	{isa.OpPush, 0x50, reg}, {isa.OpPop, 0x51, reg},
	{isa.OpCall, 0x52, target}, {isa.OpJmp, 0x53, target},
	{isa.OpJz, 0x54, regImm}, {isa.OpJnz, 0x55, regImm},

	{isa.OpTlsLoad, 0x58, regDisp}, {isa.OpTlsStore, 0x59, regDisp},
	{isa.OpMrs, 0x5A, reg}, {isa.OpMsr, 0x5B, reg},
}

// byOp and byCode index the table by semantic op and by opcode byte.
var byOp, byCode = func() (o, c [256]encoding) {
	for _, e := range table {
		o[e.op], c[e.code] = e, e
	}
	return o, c
}()

// Coder encodes and decodes SX86 machine code. It is stateless.
type Coder struct{}

var _ isa.Coder = Coder{}

// Arch reports isa.SX86.
func (Coder) Arch() isa.Arch { return isa.SX86 }

// Size returns the encoded length of inst in bytes, 0 if SX86 cannot
// encode it. SX86 sizes depend only on the opcode, so label-patching
// assembly needs a single sizing pass.
func (Coder) Size(inst isa.Inst) int { return size[byOp[inst.Op].l] }

func badReg(r isa.Reg) error { return fmt.Errorf("sx86: register r%d out of range", r) }

func fitsInt32(v int64) bool { return v >= -1<<31 && v < 1<<31 }

// Encode appends the encoding of inst to dst. Branch targets in inst.Imm
// are absolute addresses (SX86 branches encode absolute targets directly).
func (Coder) Encode(dst []byte, inst isa.Inst, _ uint64) ([]byte, error) {
	e := byOp[inst.Op]
	switch e.l {
	case none:
		return nil, fmt.Errorf("sx86: cannot encode %v", inst.Op)
	case bare:
		return append(dst, e.code), nil
	case target:
		return binary.LittleEndian.AppendUint64(append(dst, e.code), uint64(inst.Imm)), nil
	case alu, addImm:
		if inst.Rd != inst.Rn {
			return nil, fmt.Errorf("sx86: %v requires rd == rn (two-operand form), got r%d, r%d", inst.Op, inst.Rd, inst.Rn)
		}
	}
	if inst.Rd > 7 {
		return nil, badReg(inst.Rd)
	}
	rd := byte(inst.Rd)
	switch e.l {
	case reg:
		return append(dst, e.code, rd), nil
	case regs:
		if inst.Rn > 7 {
			return nil, badReg(inst.Rn)
		}
		return append(dst, e.code, rd<<4|byte(inst.Rn)), nil
	case alu:
		if inst.Rm > 7 {
			return nil, badReg(inst.Rm)
		}
		return append(dst, e.code, rd<<4|byte(inst.Rm)), nil
	case regsDisp:
		if inst.Rn > 7 {
			return nil, badReg(inst.Rn)
		}
		if !fitsInt32(inst.Imm) {
			return nil, fmt.Errorf("sx86: %v: displacement %d exceeds 32 bits", inst.Op, inst.Imm)
		}
		rd = rd<<4 | byte(inst.Rn)
	case addImm:
		if !fitsInt32(inst.Imm) {
			return nil, fmt.Errorf("sx86: %v: immediate %d exceeds 32 bits", inst.Op, inst.Imm)
		}
	case regDisp:
		if !fitsInt32(inst.Imm) {
			return nil, fmt.Errorf("sx86: tls displacement %d exceeds 32 bits", inst.Imm)
		}
	default: // regImm
		return binary.LittleEndian.AppendUint64(append(dst, e.code, rd), uint64(inst.Imm)), nil
	}
	return binary.LittleEndian.AppendUint32(append(dst, e.code, rd), uint32(int32(inst.Imm))), nil
}

// DecodeError reports an undecodable byte sequence.
type DecodeError struct {
	PC     uint64
	Opcode byte
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("sx86: illegal instruction at 0x%x (opcode 0x%02x): %s", e.PC, e.Opcode, e.Reason)
}

// Decode decodes one instruction starting at b[0], which sits at address
// pc. The returned Inst.Len gives the bytes consumed.
func (Coder) Decode(b []byte, pc uint64) (isa.Inst, error) {
	if len(b) == 0 {
		return isa.Inst{}, &DecodeError{PC: pc, Reason: "empty"}
	}
	e := byCode[b[0]]
	n := size[e.l]
	if n == 0 {
		return isa.Inst{}, &DecodeError{PC: pc, Opcode: b[0], Reason: "unknown opcode"}
	}
	if len(b) < n {
		return isa.Inst{}, &DecodeError{PC: pc, Opcode: b[0], Reason: "truncated"}
	}
	switch e.l {
	case bare:
		return isa.Inst{Op: e.op, Len: n}, nil
	case reg:
		return isa.Inst{Op: e.op, Rd: isa.Reg(b[1]), Len: n}, nil
	case regs:
		return isa.Inst{Op: e.op, Rd: isa.Reg(b[1] >> 4), Rn: isa.Reg(b[1] & 0x0f), Len: n}, nil
	case alu:
		return isa.Inst{Op: e.op, Rd: isa.Reg(b[1] >> 4), Rn: isa.Reg(b[1] >> 4), Rm: isa.Reg(b[1] & 0x0f), Len: n}, nil
	case regsDisp:
		return isa.Inst{Op: e.op, Rd: isa.Reg(b[1] >> 4), Rn: isa.Reg(b[1] & 0x0f), Imm: disp32(b), Len: n}, nil
	case addImm:
		return isa.Inst{Op: e.op, Rd: isa.Reg(b[1]), Rn: isa.Reg(b[1]), Imm: disp32(b), Len: n}, nil
	case regDisp:
		return isa.Inst{Op: e.op, Rd: isa.Reg(b[1]), Imm: disp32(b), Len: n}, nil
	case target:
		return isa.Inst{Op: e.op, Imm: int64(binary.LittleEndian.Uint64(b[1:])), Len: n}, nil
	default: // regImm
		return isa.Inst{Op: e.op, Rd: isa.Reg(b[1]), Imm: int64(binary.LittleEndian.Uint64(b[2:])), Len: n}, nil
	}
}

func disp32(b []byte) int64 { return int64(int32(binary.LittleEndian.Uint32(b[2:]))) }
