// Package sarm implements the RISC-like simulated architecture: 16
// general-purpose registers, fixed 32-bit little-endian instruction words,
// three-operand ALU forms, MOVZ/MOVK immediate construction, LDP/STP pair
// instructions, PC-relative branches, and BL/RET through a link register.
// Its BRK word is exactly 0xD4200000, matching the aarch64 breakpoint
// encoding cited by the paper.
//
// The instruction set is the table below: one row per encoding, giving
// the semantic op, the word's fixed bits (the opcode byte is bits 24..31)
// and its operand layout. Size, Encode and Decode read nothing else.
package sarm

import (
	"encoding/binary"
	"fmt"

	"github.com/dapper-sim/dapper/internal/isa"
)

// WordSize is the fixed instruction length.
const WordSize = 4

// BRKWord is the fixed encoding of the trap instruction.
const BRKWord uint32 = 0xD4200000

// RETWord is the fixed encoding of RET (branch to link register).
const RETWord uint32 = 0x44000000

// layout is an operand layout. Register fields are rd (bits 20..23), rn
// (16..19) and rm (12..15); imm12 is bits 0..11, sign-extended. Branch
// offsets count words from the instruction's own address.
type layout uint8

const (
	none   layout = iota // not a SARM instruction
	bare                 // no operands; the low 24 bits are ignored
	exact                // no operands; the word must be exactly the row's
	movw                 // rd, sh(18..19), imm16(0..15)
	movImm               // rd = imm64 as MOVZ + 3×MOVK, always 4 words
	regs                 // rd, rn
	mem                  // rd, [rn, #imm12]
	addi                 // rd, rn, #imm12
	pair                 // rd, rm, [rn, #imm12]
	alu                  // rd, rn, rm
	branch               // imm24 word offset
	cbz                  // rd, imm20 word offset
	reg                  // rd
	tls                  // rd, [TPIDR, #imm16]
)

type encoding struct {
	op   isa.Op
	word uint32
	l    layout
}

// table is the instruction set. Where two rows share an opcode byte the
// first is what Decode yields: OpMovImm is built from MOVZ and MOVK words,
// and OpLea encodes as ADDI, which decodes as OpAddImm.
var table = [...]encoding{
	{isa.OpNop, 0x01 << 24, bare}, {isa.OpSyscall, 0x03 << 24, bare},
	{isa.OpTrap, BRKWord, exact}, {isa.OpRet, RETWord, exact},

	{isa.OpMovZ, 0x10 << 24, movw}, {isa.OpMovK, 0x11 << 24, movw}, {isa.OpMovImm, 0x10 << 24, movImm},
	{isa.OpMov, 0x12 << 24, regs}, {isa.OpLoad, 0x13 << 24, mem}, {isa.OpStore, 0x14 << 24, mem},
	{isa.OpLoadPair, 0x15 << 24, pair}, {isa.OpStorePair, 0x16 << 24, pair},

	{isa.OpAdd, 0x20 << 24, alu}, {isa.OpSub, 0x21 << 24, alu}, {isa.OpMul, 0x22 << 24, alu},
	{isa.OpDiv, 0x23 << 24, alu}, {isa.OpMod, 0x24 << 24, alu}, {isa.OpAnd, 0x25 << 24, alu},
	{isa.OpOr, 0x26 << 24, alu}, {isa.OpXor, 0x27 << 24, alu}, {isa.OpShl, 0x28 << 24, alu},
	{isa.OpShr, 0x29 << 24, alu}, {isa.OpAddImm, 0x2A << 24, addi}, {isa.OpLea, 0x2A << 24, addi},

	{isa.OpFAdd, 0x30 << 24, alu}, {isa.OpFSub, 0x31 << 24, alu}, {isa.OpFMul, 0x32 << 24, alu},
	{isa.OpFDiv, 0x33 << 24, alu}, {isa.OpItoF, 0x34 << 24, regs}, {isa.OpFtoI, 0x35 << 24, regs},

	{isa.OpFCmpEq, 0x36 << 24, alu}, {isa.OpFCmpLt, 0x37 << 24, alu}, {isa.OpCmpEq, 0x38 << 24, alu},
	{isa.OpCmpNe, 0x39 << 24, alu}, {isa.OpCmpLt, 0x3A << 24, alu}, {isa.OpCmpLe, 0x3B << 24, alu},
	{isa.OpCmpGt, 0x3C << 24, alu}, {isa.OpCmpGe, 0x3D << 24, alu}, {isa.OpFCmpLe, 0x3E << 24, alu},

	{isa.OpJmp, 0x40 << 24, branch}, {isa.OpCall, 0x41 << 24, branch},
	{isa.OpJz, 0x42 << 24, cbz}, {isa.OpJnz, 0x43 << 24, cbz},

	{isa.OpMrs, 0x50 << 24, reg}, {isa.OpMsr, 0x51 << 24, reg}, // rd = TPIDR; TPIDR = rd
	{isa.OpTlsLoad, 0x52 << 24, tls}, {isa.OpTlsStore, 0x53 << 24, tls},
}

// byOp and byCode index the table by semantic op and by opcode byte.
var byOp, byCode = func() (o, c [256]encoding) {
	for _, e := range table {
		o[e.op] = e
		if c[e.word>>24].l == none {
			c[e.word>>24] = e
		}
	}
	return o, c
}()

// Coder encodes and decodes SARM machine code. It is stateless.
type Coder struct{}

var _ isa.Coder = Coder{}

// Arch reports isa.SARM.
func (Coder) Arch() isa.Arch { return isa.SARM }

// Size returns the encoded length of inst. Every SARM instruction is one
// 4-byte word except the OpMovImm pseudo-instruction, which always expands
// to a fixed MOVZ + 3×MOVK sequence (16 bytes) so that sizing is
// value-independent.
func (Coder) Size(inst isa.Inst) int {
	if byOp[inst.Op].l == movImm {
		return 4 * WordSize
	}
	return WordSize
}

func signExt(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

func fitsSigned(v int64, bits uint) bool {
	limit := int64(1) << (bits - 1)
	return v >= -limit && v < limit
}

func badReg(r isa.Reg) error { return fmt.Errorf("sarm: register r%d out of range", r) }

// branchWords returns the word offset from pc to target, or an error if
// it is misaligned or does not fit bits.
func branchWords(target int64, pc uint64, bits uint, name string) (uint32, error) {
	off := target - int64(pc)
	if off%WordSize != 0 {
		return 0, fmt.Errorf("sarm: branch target 0x%x misaligned", uint64(target))
	}
	if words := off / WordSize; !fitsSigned(words, bits) {
		return 0, fmt.Errorf("sarm: %s offset %d words exceeds imm%d", name, words, bits)
	}
	return uint32(off / WordSize), nil
}

// Encode appends the encoding of inst at address pc to dst. Branch targets
// in inst.Imm are absolute; PC-relative displacements are computed here.
func (Coder) Encode(dst []byte, inst isa.Inst, pc uint64) ([]byte, error) {
	e := byOp[inst.Op]
	w := e.word
	switch e.l {
	case none:
		return nil, fmt.Errorf("sarm: cannot encode %v", inst.Op)
	case bare, exact:
		return binary.LittleEndian.AppendUint32(dst, w), nil
	case branch:
		words, err := branchWords(inst.Imm, pc, 24, "branch")
		if err != nil {
			return nil, err
		}
		return binary.LittleEndian.AppendUint32(dst, w|words&0xffffff), nil
	}
	if inst.Rd > 15 {
		return nil, badReg(inst.Rd)
	}
	w |= uint32(inst.Rd) << 20
	switch e.l {
	case movw:
		if inst.Imm < 0 || inst.Imm > 0xffff || inst.Sh > 3 {
			return nil, fmt.Errorf("sarm: movz/movk immediate %d shift %d out of range", inst.Imm, inst.Sh)
		}
		w |= uint32(inst.Sh)<<18 | uint32(inst.Imm)
	case movImm:
		u, movk := uint64(inst.Imm), byOp[isa.OpMovK].word|uint32(inst.Rd)<<20
		dst = binary.LittleEndian.AppendUint32(dst, w|uint32(u&0xffff))
		for sh := 1; sh < 4; sh++ {
			dst = binary.LittleEndian.AppendUint32(dst, movk|uint32(sh)<<18|uint32(u>>(16*sh)&0xffff))
		}
		return dst, nil
	case regs, mem, addi, pair, alu:
		if inst.Rn > 15 {
			return nil, badReg(inst.Rn)
		}
		w |= uint32(inst.Rn) << 16
		if e.l == pair || e.l == alu {
			if inst.Rm > 15 {
				return nil, badReg(inst.Rm)
			}
			w |= uint32(inst.Rm) << 12
		}
		if e.l == regs || e.l == alu {
			break
		}
		if !fitsSigned(inst.Imm, 12) {
			if e.l == addi {
				return nil, fmt.Errorf("sarm: addi: immediate %d exceeds imm12", inst.Imm)
			}
			return nil, fmt.Errorf("sarm: %v: offset %d exceeds imm12", inst.Op, inst.Imm)
		}
		w |= uint32(inst.Imm) & 0xfff
	case cbz:
		words, err := branchWords(inst.Imm, pc, 20, "cbz")
		if err != nil {
			return nil, err
		}
		w |= words & 0xfffff
	case tls:
		if !fitsSigned(inst.Imm, 16) {
			return nil, fmt.Errorf("sarm: tls offset %d exceeds imm16", inst.Imm)
		}
		w |= uint32(inst.Imm) & 0xffff
	}
	return binary.LittleEndian.AppendUint32(dst, w), nil
}

// DecodeError reports an undecodable instruction word.
type DecodeError struct {
	PC   uint64
	Word uint32
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("sarm: illegal instruction 0x%08x at 0x%x", e.Word, e.PC)
}

// Decode decodes the instruction word at b[0:4], located at address pc.
func (Coder) Decode(b []byte, pc uint64) (isa.Inst, error) {
	if len(b) < WordSize {
		return isa.Inst{}, &DecodeError{PC: pc}
	}
	w := binary.LittleEndian.Uint32(b)
	e := byCode[w>>24]
	rd, rn, rm := isa.Reg(w>>20&0xf), isa.Reg(w>>16&0xf), isa.Reg(w>>12&0xf)
	switch e.l {
	case bare:
		return isa.Inst{Op: e.op, Len: WordSize}, nil
	case exact:
		if w == e.word {
			return isa.Inst{Op: e.op, Len: WordSize}, nil
		}
	case movw:
		return isa.Inst{Op: e.op, Rd: rd, Sh: uint8(w >> 18 & 3), Imm: int64(w & 0xffff), Len: WordSize}, nil
	case regs:
		return isa.Inst{Op: e.op, Rd: rd, Rn: rn, Len: WordSize}, nil
	case mem, addi:
		return isa.Inst{Op: e.op, Rd: rd, Rn: rn, Imm: signExt(w&0xfff, 12), Len: WordSize}, nil
	case pair:
		return isa.Inst{Op: e.op, Rd: rd, Rn: rn, Rm: rm, Imm: signExt(w&0xfff, 12), Len: WordSize}, nil
	case alu:
		return isa.Inst{Op: e.op, Rd: rd, Rn: rn, Rm: rm, Len: WordSize}, nil
	case branch:
		return isa.Inst{Op: e.op, Imm: int64(pc) + WordSize*signExt(w&0xffffff, 24), Len: WordSize}, nil
	case cbz:
		return isa.Inst{Op: e.op, Rd: rd, Imm: int64(pc) + WordSize*signExt(w&0xfffff, 20), Len: WordSize}, nil
	case reg:
		return isa.Inst{Op: e.op, Rd: rd, Len: WordSize}, nil
	case tls:
		return isa.Inst{Op: e.op, Rd: rd, Imm: signExt(w&0xffff, 16), Len: WordSize}, nil
	}
	return isa.Inst{}, &DecodeError{PC: pc, Word: w}
}
