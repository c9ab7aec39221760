// Package asm provides a small two-pass assembler over the architecture
// coders: instructions are emitted with symbolic labels and external symbol
// references, sized (instruction sizes on both ISAs are value-independent),
// and then encoded at a concrete base address.
//
// The compiler backends use it to emit function bodies, and the linker uses
// the size pass to lay out the unified (cross-ISA aligned) address space
// before resolving call targets.
package asm

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/isa"
)

// Label is a position in a fragment, usable as a branch target before its
// address is known.
type Label int

// Resolver maps an external symbol name to its absolute address.
type Resolver func(name string) (uint64, error)

type itemKind uint8

const (
	itemInst   itemKind = iota + 1 // plain instruction
	itemBranch                     // Imm patched from a label
	itemSym                        // Imm patched from an external symbol (+addend)
)

type item struct {
	kind   itemKind
	inst   isa.Inst
	label  Label
	sym    string
	addend int64
}

// Fragment is a sequence of instructions under construction.
type Fragment struct {
	coder  isa.Coder
	items  []item
	labels map[Label]int // label -> item index it precedes
	nextLb Label
}

// New returns an empty fragment for the coder's architecture.
func New(coder isa.Coder) *Fragment {
	return &Fragment{coder: coder, labels: make(map[Label]int)}
}

// NewLabel allocates an unbound label.
func (f *Fragment) NewLabel() Label {
	f.nextLb++
	return f.nextLb
}

// Define binds l to the current position.
func (f *Fragment) Define(l Label) {
	f.labels[l] = len(f.items)
}

// Here allocates and binds a label at the current position.
func (f *Fragment) Here() Label {
	l := f.NewLabel()
	f.Define(l)
	return l
}

// Emit appends a plain instruction.
func (f *Fragment) Emit(inst isa.Inst) {
	f.items = append(f.items, item{kind: itemInst, inst: inst})
}

// EmitBranch appends an instruction whose Imm will be the address of l.
func (f *Fragment) EmitBranch(inst isa.Inst, l Label) {
	f.items = append(f.items, item{kind: itemBranch, inst: inst, label: l})
}

// EmitSym appends an instruction whose Imm will be the address of the
// external symbol plus addend (e.g. CALL targets and global-address
// materialization).
func (f *Fragment) EmitSym(inst isa.Inst, sym string, addend int64) {
	f.items = append(f.items, item{kind: itemSym, inst: inst, sym: sym, addend: addend})
}

var commutative = map[isa.Op]bool{
	isa.OpAdd: true, isa.OpMul: true, isa.OpAnd: true, isa.OpOr: true,
	isa.OpXor: true, isa.OpFAdd: true, isa.OpFMul: true,
	isa.OpCmpEq: true, isa.OpCmpNe: true, isa.OpFCmpEq: true,
}

// EmitALU3 emits rd = rn OP rm, lowering to the two-operand form on SX86.
// tmp must be a register distinct from rn and rm that may be clobbered; it
// is only used when rd aliases rm for a non-commutative operation.
func (f *Fragment) EmitALU3(op isa.Op, rd, rn, rm, tmp isa.Reg) {
	if f.coder.Arch() != isa.SX86 {
		f.Emit(isa.Inst{Op: op, Rd: rd, Rn: rn, Rm: rm})
		return
	}
	switch {
	case rd == rn:
		f.Emit(isa.Inst{Op: op, Rd: rd, Rn: rd, Rm: rm})
	case rd == rm && commutative[op]:
		f.Emit(isa.Inst{Op: op, Rd: rd, Rn: rd, Rm: rn})
	case rd == rm:
		f.Emit(isa.Inst{Op: isa.OpMov, Rd: tmp, Rn: rn})
		f.Emit(isa.Inst{Op: op, Rd: tmp, Rn: tmp, Rm: rm})
		f.Emit(isa.Inst{Op: isa.OpMov, Rd: rd, Rn: tmp})
	default:
		f.Emit(isa.Inst{Op: isa.OpMov, Rd: rd, Rn: rn})
		f.Emit(isa.Inst{Op: op, Rd: rd, Rn: rd, Rm: rm})
	}
}

// Size returns the encoded size in bytes. Sizes are value-independent on
// both ISAs, so this is exact before symbol resolution.
func (f *Fragment) Size() int {
	var n int
	for _, it := range f.items {
		n += f.coder.Size(it.inst)
	}
	return n
}

// Pad appends NOPs until the fragment reaches size bytes. It returns an
// error if the fragment is already larger or the difference is not a
// multiple of the NOP size.
func (f *Fragment) Pad(size int) error {
	cur := f.Size()
	nop := f.coder.Size(isa.Inst{Op: isa.OpNop})
	if cur > size || (size-cur)%nop != 0 {
		return fmt.Errorf("asm: cannot pad fragment of %d bytes to %d (nop=%d)", cur, size, nop)
	}
	for cur < size {
		f.Emit(isa.Inst{Op: isa.OpNop})
		cur += nop
	}
	return nil
}

// Assemble encodes the fragment at base. resolve may be nil when the
// fragment has no external references. It returns the machine code and the
// absolute address of every bound label.
func (f *Fragment) Assemble(base uint64, resolve Resolver) ([]byte, map[Label]uint64, error) {
	// Pass 1: compute instruction offsets.
	offsets := make([]uint64, len(f.items)+1)
	var off uint64
	for i, it := range f.items {
		offsets[i] = off
		sz := f.coder.Size(it.inst)
		if sz == 0 {
			return nil, nil, fmt.Errorf("asm: item %d: cannot size %v", i, it.inst)
		}
		off += uint64(sz)
	}
	offsets[len(f.items)] = off

	labelAddrs := make(map[Label]uint64, len(f.labels))
	for l, idx := range f.labels {
		labelAddrs[l] = base + offsets[idx]
	}

	// Pass 2: patch and encode.
	out := make([]byte, 0, off)
	for i, it := range f.items {
		inst := it.inst
		switch it.kind {
		case itemBranch:
			addr, ok := labelAddrs[it.label]
			if !ok {
				return nil, nil, fmt.Errorf("asm: item %d: undefined label %d", i, it.label)
			}
			inst.Imm = int64(addr)
		case itemSym:
			if resolve == nil {
				return nil, nil, fmt.Errorf("asm: item %d: symbol %q but no resolver", i, it.sym)
			}
			addr, err := resolve(it.sym)
			if err != nil {
				return nil, nil, fmt.Errorf("asm: item %d: %w", i, err)
			}
			inst.Imm = int64(addr) + it.addend
		}
		pc := base + offsets[i]
		var err error
		out, err = f.coder.Encode(out, inst, pc)
		if err != nil {
			return nil, nil, fmt.Errorf("asm: item %d at 0x%x: %w", i, pc, err)
		}
	}
	return out, labelAddrs, nil
}
