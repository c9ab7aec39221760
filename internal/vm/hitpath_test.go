package vm_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/dapper-sim/dapper/internal/asm"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/vm"
)

// archs fixes the order sub-tests and sub-benchmarks run in; coders()
// (vm_test.go) has the coder of each.
var archs = []isa.Arch{isa.SX86, isa.SARM}

// Loop bodies of the interpreter benchmarks and the hit-path guard. Each
// emits a few instructions between the loop head and the counter update;
// r1 is the loop counter, r3 holds 1, r0 points into the data area, r4 and
// r5 are free.
var loopBodies = map[string]func(f *asm.Fragment, arch isa.Arch, leaf asm.Label){
	"alu": func(f *asm.Fragment, _ isa.Arch, _ asm.Label) {
		f.Emit(isa.Inst{Op: isa.OpAdd, Rd: 4, Rn: 4, Rm: 1})
		f.Emit(isa.Inst{Op: isa.OpXor, Rd: 4, Rn: 4, Rm: 3})
		f.Emit(isa.Inst{Op: isa.OpShl, Rd: 4, Rn: 4, Rm: 3})
		f.Emit(isa.Inst{Op: isa.OpSub, Rd: 4, Rn: 4, Rm: 1})
		f.Emit(isa.Inst{Op: isa.OpAddImm, Rd: 4, Rn: 4, Imm: 7})
		f.Emit(isa.Inst{Op: isa.OpMov, Rd: 5, Rn: 4})
	},
	"loadstore": func(f *asm.Fragment, arch isa.Arch, _ asm.Label) {
		sp := isa.ABIFor(arch).SP
		f.Emit(isa.Inst{Op: isa.OpStore, Rd: 1, Rn: 0, Imm: 0})
		f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 4, Rn: 0, Imm: 0})
		f.Emit(isa.Inst{Op: isa.OpStore, Rd: 4, Rn: sp, Imm: -16})
		f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 5, Rn: sp, Imm: -16})
		if arch == isa.SX86 {
			f.Emit(isa.Inst{Op: isa.OpPush, Rd: 5})
			f.Emit(isa.Inst{Op: isa.OpPop, Rd: 4})
		} else {
			f.Emit(isa.Inst{Op: isa.OpStorePair, Rd: 4, Rm: 5, Rn: 0, Imm: 16})
			f.Emit(isa.Inst{Op: isa.OpLoadPair, Rd: 4, Rm: 5, Rn: 0, Imm: 16})
		}
	},
	"callret": func(f *asm.Fragment, _ isa.Arch, leaf asm.Label) {
		f.EmitBranch(isa.Inst{Op: isa.OpCall}, leaf)
		f.EmitBranch(isa.Inst{Op: isa.OpCall}, leaf)
	},
}

// mixedBody is all three, for the hit-path guard.
func mixedBody(f *asm.Fragment, arch isa.Arch, leaf asm.Label) {
	for _, name := range []string{"alu", "loadstore", "callret"} {
		loopBodies[name](f, arch, leaf)
	}
}

// emitLoop emits `r0 = data; r3 = 1; do { body } while (++r1 < r2)`, then
// whatever after emits for the fall-through, then the leaf function the
// callret body calls. r1 and r2 are the caller's to set.
func emitLoop(f *asm.Fragment, arch isa.Arch, body func(*asm.Fragment, isa.Arch, asm.Label), after func()) {
	loop, leaf := f.NewLabel(), f.NewLabel()
	f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 0, Imm: int64(isa.DataBase + 256)})
	f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 3, Imm: 1})
	f.Define(loop)
	body(f, arch, leaf)
	f.Emit(isa.Inst{Op: isa.OpAdd, Rd: 1, Rn: 1, Rm: 3})
	f.EmitALU3(isa.OpCmpLt, 4, 1, 2, 5)
	f.EmitBranch(isa.Inst{Op: isa.OpJnz, Rd: 4}, loop)
	after()
	f.Define(leaf)
	f.Emit(isa.Inst{Op: isa.OpAdd, Rd: 5, Rn: 5, Rm: 3})
	f.Emit(isa.Inst{Op: isa.OpRet})
}

// loopProgram assembles `for r1 = 0; r1 < r2; r1++ { body }; trap` plus
// the leaf function the callret body calls, and returns a machine ready to
// run it. The caller sets r.R[2] to the iteration count.
func loopProgram(tb testing.TB, arch isa.Arch, body func(*asm.Fragment, isa.Arch, asm.Label)) (*vm.Machine, *isa.RegFile) {
	tb.Helper()
	f := asm.New(coders()[arch])
	emitLoop(f, arch, body, func() { f.Emit(isa.Inst{Op: isa.OpTrap}) })

	code, _, err := f.Assemble(isa.TextBase, nil)
	if err != nil {
		tb.Fatal(err)
	}
	as := mem.NewAddressSpace()
	for _, v := range []mem.VMA{
		{Start: isa.TextBase, End: isa.TextBase + 0x10000, Kind: mem.VMAText},
		{Start: isa.DataBase, End: isa.DataBase + 0x10000, Kind: mem.VMAData},
		{Start: isa.StackTop - isa.StackSize, End: isa.StackTop, Kind: mem.VMAStack},
	} {
		if err := as.Map(v); err != nil {
			tb.Fatal(err)
		}
	}
	if err := as.WriteBytes(isa.TextBase, code); err != nil {
		tb.Fatal(err)
	}
	abi := isa.ABIFor(arch)
	r := &isa.RegFile{PC: isa.TextBase}
	r.R[abi.SP] = isa.StackTop - 64
	return vm.New(abi, coders()[arch], as), r
}

// perIter counts the guest instructions and cycles of one loop iteration
// by single-stepping two runs that differ by one iteration.
func perIter(tb testing.TB, arch isa.Arch, body func(*asm.Fragment, isa.Arch, asm.Label)) (insts, cycles uint64) {
	tb.Helper()
	run := func(iters uint64) (insts, cycles uint64) {
		m, r := loopProgram(tb, arch, body)
		r.R[2] = iters
		for {
			stop, err := m.Run(r, 1)
			if err != nil {
				tb.Fatal(err)
			}
			if stop.Kind == vm.StopTrap {
				return insts, cycles
			}
			insts++
			cycles += stop.Cycles
		}
	}
	i3, c3 := run(3)
	i2, c2 := run(2)
	return i3 - i2, c3 - c2
}

// TestInterpreterHitPath is the guard on the interpreter budget
// (docs/perf.md): once a loop is warm, 100 000 instructions of loads,
// stores, push/pop (or ldp/stp), calls and returns leave the hit path at
// most a handful of times — Run's entry fetch — and allocate nothing. A
// hash map, a VMA search or an isa.Inst escaping back into the loop shows
// up here, not first in the benchmark.
func TestInterpreterHitPath(t *testing.T) {
	for _, arch := range archs {
		t.Run(arch.String(), func(t *testing.T) {
			m, r := loopProgram(t, arch, mixedBody)
			r.R[2] = 1 << 40
			if _, err := m.Run(r, 1000); err != nil { // warm-up
				t.Fatal(err)
			}
			fetch0, tlb0 := m.SlowFetches(), m.AS.TLBMisses()
			stop, err := m.Run(r, 100_000)
			if err != nil || stop.Kind != vm.StopQuantum {
				t.Fatalf("stop %+v, err %v", stop, err)
			}
			if n := m.SlowFetches() - fetch0; n > 2 {
				t.Errorf("%d slow fetches in a warm 100k-instruction run, want at most 2", n)
			}
			if n := m.AS.TLBMisses() - tlb0; n > 2 {
				t.Errorf("%d TLB misses in a warm 100k-instruction run, want at most 2", n)
			}
			if allocs := testing.AllocsPerRun(5, func() {
				if _, err := m.Run(r, 100_000); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("a warm run allocates %.0f times, want 0", allocs)
			}
		})
	}
}

// installers are the two ways a frame gets behind a page index without
// a guest store: a private copy, and restore's adoption of a page-sized
// buffer as a shared frame. Both stamp Version 1.
var installers = map[string]func(as *mem.AddressSpace, idx uint64, data []byte){
	"InstallPage":       func(as *mem.AddressSpace, idx uint64, data []byte) { as.InstallPage(idx, data) },
	"InstallSharedPage": adopt,
}

// adopt installs data, padded to a page, as page idx's frame the way
// restore does: shared, copy-on-write, without a copy.
func adopt(as *mem.AddressSpace, idx uint64, data []byte) {
	frame := make([]byte, mem.PageSize)
	copy(frame, data)
	as.InstallPages([]uint64{idx}, func(int) []byte { return frame })
}

// TestInstallPageOverExecutedCodeIsSeen replaces a code page the machine
// has already executed from with a frame of different bytes. Both frames
// carry Version 1 — every install stamps it — so a decode cache keyed by
// (page index, version) keeps running the old instructions; the table's
// validity is the frame's identity as well.
func TestInstallPageOverExecutedCodeIsSeen(t *testing.T) {
	for _, arch := range archs {
		for name, install := range installers {
			t.Run(arch.String()+"/"+name, func(t *testing.T) {
				coder := coders()[arch]
				program := func(add int64) []byte {
					f := asm.New(coder)
					f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 5})
					f.Emit(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rn: 1, Imm: add})
					f.Emit(isa.Inst{Op: isa.OpTrap})
					code, _, err := f.Assemble(isa.TextBase, nil)
					if err != nil {
						t.Fatal(err)
					}
					return code
				}
				as := mem.NewAddressSpace()
				if err := as.Map(mem.VMA{Start: isa.TextBase, End: isa.TextBase + mem.PageSize, Kind: mem.VMAText}); err != nil {
					t.Fatal(err)
				}
				m := vm.New(isa.ABIFor(arch), coder, as)
				for _, add := range []int64{1, 100} {
					install(as, isa.TextBase/mem.PageSize, program(add))
					r := &isa.RegFile{PC: isa.TextBase}
					if stop, err := m.Run(r, 100); err != nil || stop.Kind != vm.StopTrap {
						t.Fatalf("stop %+v, err %v", stop, err)
					}
					if r.R[1] != uint64(5+add) {
						t.Fatalf("after installing the +%d program r1 = %d, want %d", add, r.R[1], 5+add)
					}
				}
			})
		}
	}
}

// TestStoreBreakingSharedCodePageIsSeen runs a guest from an adopted code
// page that patches the instruction after its own store: the store breaks
// the page's copy-on-write share in place — the same Page, no TLB flush —
// so only the Version the store moves tells the machine that the table
// it is executing from is stale. The next fetch must decode the patched
// instruction, and the adopted bytes must not change.
func TestStoreBreakingSharedCodePageIsSeen(t *testing.T) {
	for _, arch := range archs {
		t.Run(arch.String(), func(t *testing.T) {
			coder := coders()[arch]
			// r7 = patch word, r6 = its address (both from the data page, so
			// the code's layout does not depend on them); r1 = 5; store;
			// patch: r1 += 1; trap.
			f := asm.New(coder)
			f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: int64(isa.DataBase)})
			f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 7, Rn: 2, Imm: 0})
			f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 6, Rn: 2, Imm: 8})
			f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 5})
			f.Emit(isa.Inst{Op: isa.OpStore, Rd: 7, Rn: 6, Imm: 0})
			patch := f.Here()
			f.Emit(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rn: 1, Imm: 1})
			f.Emit(isa.Inst{Op: isa.OpTrap})
			code, labels, err := f.Assemble(isa.TextBase, nil)
			if err != nil {
				t.Fatal(err)
			}
			at := labels[patch] - isa.TextBase
			old, err := coder.Encode(nil, isa.Inst{Op: isa.OpAddImm, Rd: 1, Rn: 1, Imm: 1}, labels[patch])
			if err != nil {
				t.Fatal(err)
			}
			add, err := coder.Encode(nil, isa.Inst{Op: isa.OpAddImm, Rd: 1, Rn: 1, Imm: 100}, labels[patch])
			if err != nil || len(add) != len(old) || len(add) > 8 {
				t.Fatalf("patch encodes to %d bytes over %d (err %v)", len(add), len(old), err)
			}
			frame := make([]byte, mem.PageSize)
			copy(frame, code)
			word := bytes.Clone(frame[at : at+8])
			copy(word, add)

			as := mem.NewAddressSpace()
			for _, v := range []mem.VMA{
				{Start: isa.TextBase, End: isa.TextBase + mem.PageSize, Kind: mem.VMAText},
				{Start: isa.DataBase, End: isa.DataBase + mem.PageSize, Kind: mem.VMAData},
			} {
				if err := as.Map(v); err != nil {
					t.Fatal(err)
				}
			}
			as.InstallPages([]uint64{isa.TextBase / mem.PageSize}, func(int) []byte { return frame })
			if err := as.WriteU64(isa.DataBase, binary.LittleEndian.Uint64(word)); err != nil {
				t.Fatal(err)
			}
			if err := as.WriteU64(isa.DataBase+8, labels[patch]); err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(frame)
			m := vm.New(isa.ABIFor(arch), coder, as)
			r := &isa.RegFile{PC: isa.TextBase}
			epoch := as.Epoch()
			if stop, err := m.Run(r, 100); err != nil || stop.Kind != vm.StopTrap {
				t.Fatalf("stop %+v, err %v", stop, err)
			}
			if r.R[1] != 105 {
				t.Errorf("r1 = %d, want 105: the patched instruction was not decoded again", r.R[1])
			}
			if as.CowBreaks() != 1 || as.Epoch() != epoch {
				t.Errorf("%d breaks, epoch moved %v; want one in-place break", as.CowBreaks(), as.Epoch() != epoch)
			}
			if !bytes.Equal(frame, want) {
				t.Error("the guest's store reached the adopted bytes")
			}
		})
	}
}
