package vm_test

import (
	"errors"
	"testing"

	"github.com/dapper-sim/dapper/internal/asm"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/isa/sarm"
	"github.com/dapper-sim/dapper/internal/isa/sx86"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/vm"
)

func coders() map[isa.Arch]isa.Coder {
	return map[isa.Arch]isa.Coder{isa.SX86: sx86.Coder{}, isa.SARM: sarm.Coder{}}
}

// buildMachine assembles f at TextBase into a fresh address space with a
// small stack and data area, returning the machine and an init register
// file.
func buildMachine(t *testing.T, arch isa.Arch, f *asm.Fragment) (*vm.Machine, *isa.RegFile) {
	t.Helper()
	code, _, err := f.Assemble(isa.TextBase, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	as := mem.NewAddressSpace()
	mustMap := func(v mem.VMA) {
		t.Helper()
		if err := as.Map(v); err != nil {
			t.Fatal(err)
		}
	}
	mustMap(mem.VMA{Start: isa.TextBase, End: isa.TextBase + 0x10000, Kind: mem.VMAText, Prot: mem.ProtRead | mem.ProtExec})
	mustMap(mem.VMA{Start: isa.DataBase, End: isa.DataBase + 0x10000, Kind: mem.VMAData, Prot: mem.ProtRead | mem.ProtWrite})
	mustMap(mem.VMA{Start: isa.StackTop - isa.StackSize, End: isa.StackTop, Kind: mem.VMAStack, Prot: mem.ProtRead | mem.ProtWrite})
	mustMap(mem.VMA{Start: isa.TLSBase, End: isa.TLSBase + isa.TLSStride, Kind: mem.VMATLS, Prot: mem.ProtRead | mem.ProtWrite})
	if err := as.WriteBytes(isa.TextBase, code); err != nil {
		t.Fatal(err)
	}
	abi := isa.ABIFor(arch)
	m := vm.New(abi, coders()[arch], as)
	r := &isa.RegFile{PC: isa.TextBase, TLS: abi.TLSRegValue(isa.TLSBase)}
	r.R[abi.SP] = isa.StackTop
	return m, r
}

// TestSumLoop runs an identical semantic loop (sum 1..10) on both ISAs and
// checks both the result and that the trap instruction pauses execution.
func TestSumLoop(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			f := asm.New(coder)
			// r1 = 0 (sum); r2 = 1 (i); r3 = 10 (limit); r4 = 1 (step)
			loop := f.NewLabel()
			done := f.NewLabel()
			emitImm(f, arch, 1, 0)
			emitImm(f, arch, 2, 1)
			emitImm(f, arch, 3, 10)
			emitImm(f, arch, 4, 1)
			f.Define(loop)
			f.EmitALU3(isa.OpCmpGt, 5, 2, 3, 0) // r5 = i > 10
			f.EmitBranch(isa.Inst{Op: isa.OpJnz, Rd: 5}, done)
			f.Emit(isa.Inst{Op: isa.OpAdd, Rd: 1, Rn: 1, Rm: 2}) // sum += i
			f.Emit(isa.Inst{Op: isa.OpAdd, Rd: 2, Rn: 2, Rm: 4}) // i++
			f.EmitBranch(isa.Inst{Op: isa.OpJmp}, loop)
			f.Define(done)
			// Store the result to data memory, then trap.
			emitImm(f, arch, 6, int64(isa.DataBase+64))
			f.Emit(isa.Inst{Op: isa.OpStore, Rd: 1, Rn: 6, Imm: 0})
			f.Emit(isa.Inst{Op: isa.OpTrap})

			m, r := buildMachine(t, arch, f)
			stop, err := m.Run(r, 10000)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if stop.Kind != vm.StopTrap {
				t.Fatalf("stop kind = %v, want trap", stop.Kind)
			}
			v, err := m.AS.ReadU64(isa.DataBase + 64)
			if err != nil {
				t.Fatal(err)
			}
			if v != 55 {
				t.Errorf("sum = %d, want 55", v)
			}
			if stop.Cycles == 0 {
				t.Error("cycles not accounted")
			}
		})
	}
}

// emitImm emits an immediate load valid on either ISA. On SX86 it is a
// single MOVri; on SARM OpMovImm expands to MOVZ/MOVK.
func emitImm(f *asm.Fragment, _ isa.Arch, rd isa.Reg, v int64) {
	f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: rd, Imm: v})
}

// TestCallRet verifies the per-ABI return-address convention: on SX86 the
// return address is pushed on the stack, on SARM it is placed in LR.
func TestCallRet(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			abi := isa.ABIFor(arch)
			f := asm.New(coder)
			fn := f.NewLabel()
			// main: r1 = 7; call fn; store r0; trap
			emitImm(f, arch, 1, 7)
			f.EmitBranch(isa.Inst{Op: isa.OpCall}, fn)
			emitImm(f, arch, 6, int64(isa.DataBase+8))
			f.Emit(isa.Inst{Op: isa.OpStore, Rd: 0, Rn: 6, Imm: 0})
			f.Emit(isa.Inst{Op: isa.OpTrap})
			// fn: r0 = r1 + r1; ret
			f.Define(fn)
			f.EmitALU3(isa.OpAdd, 0, 1, 1, 2)
			f.Emit(isa.Inst{Op: isa.OpRet})

			m, r := buildMachine(t, arch, f)
			spBefore := r.R[abi.SP]
			if _, err := m.Run(r, 1000); err != nil {
				t.Fatal(err)
			}
			got, err := m.AS.ReadU64(isa.DataBase + 8)
			if err != nil || got != 14 {
				t.Errorf("fn result = %d (err %v), want 14", got, err)
			}
			if r.R[abi.SP] != spBefore {
				t.Errorf("stack imbalance: sp 0x%x -> 0x%x", spBefore, r.R[abi.SP])
			}
		})
	}
}

func TestSyscallStops(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			f := asm.New(coder)
			emitImm(f, arch, 0, 42)
			f.Emit(isa.Inst{Op: isa.OpSyscall})
			after := f.Here()
			f.Emit(isa.Inst{Op: isa.OpTrap})

			code, labels, err := f.Assemble(isa.TextBase, nil)
			if err != nil {
				t.Fatal(err)
			}
			_ = code
			m, r := buildMachine(t, arch, f)
			stop, err := m.Run(r, 100)
			if err != nil {
				t.Fatal(err)
			}
			if stop.Kind != vm.StopSyscall {
				t.Fatalf("stop = %v, want syscall", stop.Kind)
			}
			if r.PC != labels[after] {
				t.Errorf("PC after syscall = 0x%x, want 0x%x", r.PC, labels[after])
			}
		})
	}
}

func TestFloatOps(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			f := asm.New(coder)
			emitImm(f, arch, 1, 7)
			emitImm(f, arch, 2, 2)
			f.Emit(isa.Inst{Op: isa.OpItoF, Rd: 1, Rn: 1})
			f.Emit(isa.Inst{Op: isa.OpItoF, Rd: 2, Rn: 2})
			f.EmitALU3(isa.OpFDiv, 3, 1, 2, 0)
			f.Emit(isa.Inst{Op: isa.OpFMul, Rd: 3, Rn: 3, Rm: 2}) // back to 7.0
			f.EmitALU3(isa.OpFCmpEq, 4, 3, 1, 0)
			f.Emit(isa.Inst{Op: isa.OpFtoI, Rd: 5, Rn: 3})
			f.Emit(isa.Inst{Op: isa.OpTrap})

			m, r := buildMachine(t, arch, f)
			if _, err := m.Run(r, 100); err != nil {
				t.Fatal(err)
			}
			if r.R[4] != 1 {
				t.Error("float round-trip comparison failed")
			}
			if r.R[5] != 7 {
				t.Errorf("ftoi = %d, want 7", r.R[5])
			}
		})
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			f := asm.New(coder)
			emitImm(f, arch, 1, 10)
			emitImm(f, arch, 2, 0)
			f.Emit(isa.Inst{Op: isa.OpDiv, Rd: 1, Rn: 1, Rm: 2})
			m, r := buildMachine(t, arch, f)
			_, err := m.Run(r, 100)
			var ee *vm.ExecError
			if !errors.As(err, &ee) {
				t.Fatalf("want ExecError, got %v", err)
			}
		})
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			f := asm.New(coder)
			emitImm(f, arch, 1, 0x10) // unmapped low address
			f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rn: 1, Imm: 0})
			m, r := buildMachine(t, arch, f)
			_, err := m.Run(r, 100)
			var fe *mem.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("want FaultError, got %v", err)
			}
			if fe.Addr != 0x10 {
				t.Errorf("fault addr = 0x%x, want 0x10", fe.Addr)
			}
		})
	}
}

func TestTLSOps(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			abi := isa.ABIFor(arch)
			f := asm.New(coder)
			// Store 99 to TLS slot at block offset 16 (imm is relative to
			// the per-ISA TLS register bias).
			off := int64(16) - int64(abi.TLSRegBias)
			emitImm(f, arch, 1, 99)
			f.Emit(isa.Inst{Op: isa.OpTlsStore, Rd: 1, Imm: off})
			f.Emit(isa.Inst{Op: isa.OpTlsLoad, Rd: 2, Imm: off})
			f.Emit(isa.Inst{Op: isa.OpMrs, Rd: 3})
			f.Emit(isa.Inst{Op: isa.OpTrap})
			m, r := buildMachine(t, arch, f)
			if _, err := m.Run(r, 100); err != nil {
				t.Fatal(err)
			}
			if r.R[2] != 99 {
				t.Errorf("TLS round trip = %d, want 99", r.R[2])
			}
			if r.R[3] != abi.TLSRegValue(isa.TLSBase) {
				t.Errorf("MRS = 0x%x, want 0x%x", r.R[3], abi.TLSRegValue(isa.TLSBase))
			}
			// The slot must land at block start + 16 regardless of the bias.
			v, err := m.AS.ReadU64(isa.TLSBase + 16)
			if err != nil || v != 99 {
				t.Errorf("TLS slot at block+16 = %d (err %v), want 99", v, err)
			}
		})
	}
}

// TestCodeCacheInvalidation rewrites a code page mid-run (as the DAPPER
// rewriter does) and checks the interpreter picks up the new instruction.
func TestCodeCacheInvalidation(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			f := asm.New(coder)
			emitImm(f, arch, 1, 5)
			patch := f.Here()
			f.Emit(isa.Inst{Op: isa.OpAddImm, Rd: 1, Rn: 1, Imm: 1})
			f.Emit(isa.Inst{Op: isa.OpTrap})
			code, labels, err := f.Assemble(isa.TextBase, nil)
			if err != nil {
				t.Fatal(err)
			}
			_ = code
			m, r := buildMachine(t, arch, f)
			if _, err := m.Run(r, 100); err != nil {
				t.Fatal(err)
			}
			if r.R[1] != 6 {
				t.Fatalf("first run r1 = %d, want 6", r.R[1])
			}

			// Patch the ADDI to add 100 and re-run from the patch point.
			nb, err := coder.Encode(nil, isa.Inst{Op: isa.OpAddImm, Rd: 1, Rn: 1, Imm: 100}, labels[patch])
			if err != nil {
				t.Fatal(err)
			}
			if err := m.AS.WriteBytes(labels[patch], nb); err != nil {
				t.Fatal(err)
			}
			r.PC = labels[patch]
			r.R[1] = 5
			if _, err := m.Run(r, 100); err != nil {
				t.Fatal(err)
			}
			if r.R[1] != 105 {
				t.Errorf("patched run r1 = %d, want 105", r.R[1])
			}
		})
	}
}

// BenchmarkInterpreterLoop runs the loops of hitpath_test.go and reports
// host nanoseconds per guest instruction. alu, loadstore and callret time
// Machine.Run alone, one b.N per loop iteration; step4 times kernel.Step
// over four threads running all three bodies, one b.N per scheduler pass,
// so it adds the quantum hand-over and Run's entry fetch.
func BenchmarkInterpreterLoop(b *testing.B) {
	for _, name := range []string{"alu", "loadstore", "callret"} {
		body := loopBodies[name]
		for _, arch := range archs {
			b.Run(name+"/"+arch.String(), func(b *testing.B) {
				insts, _ := perIter(b, arch, body)
				m, r := loopProgram(b, arch, body)
				r.R[2] = uint64(b.N)
				b.ResetTimer()
				for {
					stop, err := m.Run(r, 1<<20)
					if err != nil {
						b.Fatal(err)
					}
					if stop.Kind == vm.StopTrap {
						break
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*insts), "ns/guest-inst")
			})
		}
	}
	for _, arch := range archs {
		b.Run("step4/"+arch.String(), func(b *testing.B) {
			// The kernel counts cycles, not instructions: convert with
			// the mixed loop's instructions per cycle.
			insts, cycles := perIter(b, arch, mixedBody)
			k, p := fourThreads(b, arch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Step(p); err != nil {
					b.Fatal(err)
				}
			}
			var ran uint64
			for _, t := range p.Threads {
				ran += t.Cycles
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(ran)*float64(insts)/float64(cycles)), "ns/guest-inst")
		})
	}
}

// fourThreads starts a process whose main thread spawns three workers and
// then joins them in running the mixed loop forever.
func fourThreads(tb testing.TB, arch isa.Arch) (*kernel.Kernel, *kernel.Process) {
	tb.Helper()
	abi := isa.ABIFor(arch)
	f := asm.New(coders()[arch])
	worker, threadExit := f.NewLabel(), f.NewLabel()
	for i := 0; i < 3; i++ {
		f.EmitBranch(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0]}, worker)
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallNumReg, Imm: int64(kernel.SysSpawn)})
		f.Emit(isa.Inst{Op: isa.OpSyscall})
	}
	f.Define(worker)
	f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
	f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 1 << 40})
	emitLoop(f, arch, mixedBody, func() {
		f.Define(threadExit)
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallNumReg, Imm: int64(kernel.SysExitThread)})
		f.Emit(isa.Inst{Op: isa.OpSyscall})
	})
	code, labels, err := f.Assemble(isa.TextBase, nil)
	if err != nil {
		tb.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: 4})
	p, err := k.StartProcess(kernel.LoadSpec{
		Arch: arch, Coder: coders()[arch], Text: code, Data: make([]byte, 1024),
		Entry: isa.TextBase, ThreadExit: labels[threadExit], ExePath: "/bin/step4-" + arch.String(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := k.Step(p); err != nil { // spawn the workers
		tb.Fatal(err)
	}
	if len(p.Threads) != 4 {
		tb.Fatalf("%d threads after the first pass, want 4", len(p.Threads))
	}
	return k, p
}
