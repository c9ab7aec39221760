package isa_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/isa/sarm"
	"github.com/dapper-sim/dapper/internal/isa/sx86"
)

// TestCoderDigest pins what each coder accepts and produces: every opcode
// byte under seeded tails at seeded PCs through Decode, and every Op over
// seeded registers and immediates through Size and Encode (a successful
// encoding is decoded again). Each outcome — the Inst, the bytes or the
// error text — is hashed, so a change to any encoding, any refusal or any
// quirk of the accept set moves the digest. The gadget scanner counts what
// Decode accepts at every byte offset; the rewriter relies on Encode.
func TestCoderDigest(t *testing.T) {
	for _, tc := range []struct {
		c      isa.Coder
		opByte int // offset of the opcode byte in an instruction
		want   string
	}{
		{sx86.Coder{}, 0, "6b58987c2f2804c4d1dd05a0bfb20b78eeb84d0ecfa524e9743d54369627cd13"},
		{sarm.Coder{}, 3, "54b9db335f65a1f2ddb0c523294275c651502324a8b1b68a161ddef0c47b3cbb"},
	} {
		h := sha256.New()
		r := rng(0x243f6a8885a308d3)
		for op := 0; op < 256; op++ {
			for trial := 0; trial < 96; trial++ {
				b := r.tail(1 + int(r.next()%12))
				if tc.opByte < len(b) {
					b[tc.opByte] = byte(op)
				}
				pc := r.pc()
				inst, err := tc.c.Decode(b, pc)
				record(h, b, pc, inst, err)
			}
		}
		for op := isa.Op(0); op < 60; op++ {
			for trial := 0; trial < 256; trial++ {
				pc := r.pc()
				inst := isa.Inst{Op: op, Rd: r.reg(), Rn: r.reg(), Rm: r.reg(), Sh: uint8(r.next() % 5), Imm: r.imm(pc)}
				if r.next()%2 == 0 {
					inst.Rn = inst.Rd
				}
				out, err := tc.c.Encode([]byte{0xAA}, inst, pc)
				fmt.Fprintf(h, "enc %+v @%x size=%d -> %x %v\n", inst, pc, tc.c.Size(inst), out, err)
				if err == nil {
					dec, err := tc.c.Decode(out[1:], pc)
					record(h, out[1:], pc, dec, err)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%v: coder digest %s, want %s", tc.c.Arch(), got, tc.want)
		}
	}
}

func record(h hash.Hash, b []byte, pc uint64, inst isa.Inst, err error) {
	if err != nil {
		fmt.Fprintf(h, "dec %x @%x -> %v\n", b, pc, err)
		return
	}
	fmt.Fprintf(h, "dec %x @%x -> %+v\n", b, pc, inst)
}

// rng is a 64-bit LCG: the digest depends on its exact sequence.
type rng uint64

func (r *rng) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 11
}

// tail returns n bytes: random, all zero, all 0xff, or random with most
// bytes zero, so exact words (BRK, RET) and small register fields occur.
func (r *rng) tail(n int) []byte {
	b := make([]byte, n)
	mode := r.next() % 4
	for i := range b {
		switch v := byte(r.next()); mode {
		case 0:
			b[i] = v
		case 2:
			b[i] = 0xff
		case 3:
			if v&3 == 0 {
				b[i] = v
			}
		}
	}
	return b
}

func (r *rng) pc() uint64 {
	pc := 0x400000 + r.next()%0x10000
	if r.next()%4 != 0 {
		pc &^= 3
	}
	return pc
}

// reg is mostly a register of both ISAs, sometimes one only SARM has,
// one neither has, or NoReg.
func (r *rng) reg() isa.Reg {
	switch v := r.next(); v % 8 {
	case 0:
		return isa.Reg(8 + v/8%12)
	case 1:
		return isa.NoReg
	default:
		return isa.Reg(v / 8 % 8)
	}
}

// imm is small, at a field boundary, huge, or a PC-relative target
// (aligned or not, near or far).
func (r *rng) imm(pc uint64) int64 {
	v := r.next()
	switch v % 6 {
	case 0:
		return int64(v/6%128) - 64
	case 1:
		bounds := []int64{1 << 11, -1<<11 - 1, 1 << 15, -1<<15 - 1, 0xffff, 0x10000, 1 << 31, -1<<31 - 1}
		return bounds[v/6%uint64(len(bounds))] + int64(v/64%3) - 1
	case 2:
		return int64(v<<11 | v>>53)
	case 3:
		return int64(pc) + 4*(int64(v/6%512)-256)
	case 4:
		return int64(pc) + int64(v/6%16) - 8
	default:
		words := []int64{1 << 19, 1 << 23}
		return int64(pc) + 4*(words[v/6%2]+int64(v/64%3)-2)
	}
}
