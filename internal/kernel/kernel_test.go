package kernel_test

import (
	"errors"
	"testing"

	"github.com/dapper-sim/dapper/internal/asm"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/isa/sarm"
	"github.com/dapper-sim/dapper/internal/isa/sx86"
	"github.com/dapper-sim/dapper/internal/kernel"
)

func coders() map[isa.Arch]isa.Coder {
	return map[isa.Arch]isa.Coder{isa.SX86: sx86.Coder{}, isa.SARM: sarm.Coder{}}
}

// emitSyscall loads the syscall number and issues SYSCALL. Argument
// registers must already be set.
func emitSyscall(f *asm.Fragment, abi *isa.ABI, num uint64) {
	f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallNumReg, Imm: int64(num)})
	f.Emit(isa.Inst{Op: isa.OpSyscall})
}

// load assembles the fragment, appending a thread-exit trampoline, and
// starts it as a process. data is the initial data section.
func load(t *testing.T, k *kernel.Kernel, arch isa.Arch, coder isa.Coder, data []byte, build func(f *asm.Fragment, abi *isa.ABI, threadExit asm.Label)) *kernel.Process {
	t.Helper()
	abi := isa.ABIFor(arch)
	f := asm.New(coder)
	threadExit := f.NewLabel()
	build(f, abi, threadExit)
	// Trampoline: exit_thread().
	f.Define(threadExit)
	emitSyscall(f, abi, kernel.SysExitThread)

	code, labels, err := f.Assemble(isa.TextBase, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p, err := k.StartProcess(kernel.LoadSpec{
		Arch: arch, Coder: coder, Text: code, Data: data,
		Entry: isa.TextBase, ThreadExit: labels[threadExit], ExePath: "/bin/test-" + arch.String(),
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	return p
}

func TestPrintAndExit(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			k := kernel.New(kernel.Config{})
			data := append(make([]byte, 16), []byte("hello\n")...)
			p := load(t, k, arch, coder, data, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: int64(isa.DataBase + 16)})
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[1], Imm: 6})
				emitSyscall(f, abi, kernel.SysPrint)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 123})
				emitSyscall(f, abi, kernel.SysPrintI)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 7})
				emitSyscall(f, abi, kernel.SysExit)
			})
			if err := k.Run(p); err != nil {
				t.Fatal(err)
			}
			if got := p.ConsoleString(); got != "hello\n123" {
				t.Errorf("console = %q", got)
			}
			if p.ExitCode != 7 {
				t.Errorf("exit code = %d, want 7", p.ExitCode)
			}
		})
	}
}

func TestSbrkGrowsHeap(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			k := kernel.New(kernel.Config{})
			p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
				// sbrk(3 pages); write at heap start and near the end.
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 3 * 4096})
				emitSyscall(f, abi, kernel.SysSbrk)
				// r0 = old brk = heap base
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 4242})
				f.Emit(isa.Inst{Op: isa.OpStore, Rd: 1, Rn: abi.RetReg, Imm: 0})
				f.Emit(isa.Inst{Op: isa.OpStore, Rd: 1, Rn: abi.RetReg, Imm: 2040})
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
				emitSyscall(f, abi, kernel.SysExit)
			})
			if err := k.Run(p); err != nil {
				t.Fatal(err)
			}
			v, err := p.AS.ReadU64(isa.HeapBase)
			if err != nil || v != 4242 {
				t.Errorf("heap[0] = %d (err %v), want 4242", v, err)
			}
		})
	}
}

// TestSpawnJoin spawns three workers writing arg*10 into global slots; the
// main thread joins them and prints the sum.
func TestSpawnJoin(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			k := kernel.New(kernel.Config{Cores: 2, Quantum: 64})
			p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
				worker := f.NewLabel()
				// main: spawn worker(i) for i in 1..3, tids stored in data[i*8]
				for i := int64(1); i <= 3; i++ {
					f.EmitBranch(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0]}, worker)
					f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[1], Imm: i})
					emitSyscall(f, abi, kernel.SysSpawn)
					f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + i*8})
					f.Emit(isa.Inst{Op: isa.OpStore, Rd: abi.RetReg, Rn: 6, Imm: 0})
				}
				// join them
				for i := int64(1); i <= 3; i++ {
					f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + i*8})
					f.Emit(isa.Inst{Op: isa.OpLoad, Rd: abi.SyscallArgRegs[0], Rn: 6, Imm: 0})
					emitSyscall(f, abi, kernel.SysJoin)
				}
				// sum worker outputs at data[32+i*8]
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0})
				for i := int64(1); i <= 3; i++ {
					f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + 32 + i*8})
					f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rn: 6, Imm: 0})
					f.Emit(isa.Inst{Op: isa.OpAdd, Rd: 1, Rn: 1, Rm: 2})
				}
				f.Emit(isa.Inst{Op: isa.OpMov, Rd: abi.SyscallArgRegs[0], Rn: 1})
				emitSyscall(f, abi, kernel.SysPrintI)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
				emitSyscall(f, abi, kernel.SysExit)

				// worker(arg): data[32+arg*8] = arg*10; return
				f.Define(worker)
				f.Emit(isa.Inst{Op: isa.OpMov, Rd: 1, Rn: abi.ArgRegs[0]})
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 10})
				f.EmitALU3(isa.OpMul, 3, 1, 2, 4) // r3 = arg*10
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 8})
				f.EmitALU3(isa.OpMul, 4, 1, 2, 5) // r4 = arg*8
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: int64(isa.DataBase) + 32})
				f.EmitALU3(isa.OpAdd, 4, 4, 2, 5)
				f.Emit(isa.Inst{Op: isa.OpStore, Rd: 3, Rn: 4, Imm: 0})
				f.Emit(isa.Inst{Op: isa.OpRet})
			})
			if err := k.Run(p); err != nil {
				t.Fatal(err)
			}
			if got := p.ConsoleString(); got != "60" {
				t.Errorf("console = %q, want 60", got)
			}
		})
	}
}

// TestMutexCounter is the real mutex test: counters via spilled loop
// variables on the stack to keep registers ABI-safe.
func TestMutexCounter(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			if arch == isa.SARM {
				t.Skip("uses SX86 push/pop; covered by compiler-level tests")
			}
			k := kernel.New(kernel.Config{Cores: 2, Quantum: 13})
			p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
				worker := f.NewLabel()
				for i := int64(1); i <= 2; i++ {
					f.EmitBranch(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0]}, worker)
					f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[1], Imm: 0})
					emitSyscall(f, abi, kernel.SysSpawn)
					f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + i*8})
					f.Emit(isa.Inst{Op: isa.OpStore, Rd: abi.RetReg, Rn: 6, Imm: 0})
				}
				for i := int64(1); i <= 2; i++ {
					f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + i*8})
					f.Emit(isa.Inst{Op: isa.OpLoad, Rd: abi.SyscallArgRegs[0], Rn: 6, Imm: 0})
					emitSyscall(f, abi, kernel.SysJoin)
				}
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + 64})
				f.Emit(isa.Inst{Op: isa.OpLoad, Rd: abi.SyscallArgRegs[0], Rn: 6, Imm: 0})
				emitSyscall(f, abi, kernel.SysPrintI)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
				emitSyscall(f, abi, kernel.SysExit)

				// worker: loop counter kept in a global slot indexed by tid
				// (registers are clobbered by syscalls, so keep i in memory).
				f.Define(worker)
				loop := f.NewLabel()
				done := f.NewLabel()
				emitSyscall(f, abi, kernel.SysGettid) // r0 = tid
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 8})
				f.EmitALU3(isa.OpMul, 1, abi.RetReg, 2, 3) // r1 = tid*8
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: int64(isa.DataBase) + 128})
				f.EmitALU3(isa.OpAdd, 1, 1, 2, 3) // r1 = &i  (per-tid slot)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 0})
				f.Emit(isa.Inst{Op: isa.OpStore, Rd: 2, Rn: 1, Imm: 0}) // i = 0
				// save &i in a global keyed by tid as well; reload each loop.
				f.Define(loop)
				// if i >= 100 goto done
				f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rn: 1, Imm: 0})
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 3, Imm: 100})
				f.EmitALU3(isa.OpCmpGe, 4, 2, 3, 5)
				f.EmitBranch(isa.Inst{Op: isa.OpJnz, Rd: 4}, done)
				// lock(1)
				f.Emit(isa.Inst{Op: isa.OpPush, Rd: 1}) // save &i across syscalls: sx86 only...
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 1})
				emitSyscall(f, abi, kernel.SysLock)
				// counter++
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: int64(isa.DataBase) + 64})
				f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 3, Rn: 2, Imm: 0})
				f.Emit(isa.Inst{Op: isa.OpAddImm, Rd: 3, Rn: 3, Imm: 1})
				f.Emit(isa.Inst{Op: isa.OpStore, Rd: 3, Rn: 2, Imm: 0})
				// unlock(1)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 1})
				emitSyscall(f, abi, kernel.SysUnlock)
				f.Emit(isa.Inst{Op: isa.OpPop, Rd: 1})
				// i++
				f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rn: 1, Imm: 0})
				f.Emit(isa.Inst{Op: isa.OpAddImm, Rd: 2, Rn: 2, Imm: 1})
				f.Emit(isa.Inst{Op: isa.OpStore, Rd: 2, Rn: 1, Imm: 0})
				f.EmitBranch(isa.Inst{Op: isa.OpJmp}, loop)
				f.Define(done)
				f.Emit(isa.Inst{Op: isa.OpRet})
			})
			if err := k.Run(p); err != nil {
				t.Fatal(err)
			}
			if got := p.ConsoleString(); got != "200" {
				t.Errorf("counter = %q, want 200", got)
			}
		})
	}
}

// TestEchoServer exercises the recv/send inbox: the guest echoes messages
// until EOF.
func TestEchoServer(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			k := kernel.New(kernel.Config{})
			p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
				loop := f.NewLabel()
				done := f.NewLabel()
				f.Define(loop)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: int64(isa.DataBase) + 256})
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[1], Imm: 64})
				emitSyscall(f, abi, kernel.SysRecv)
				// if n < 0: exit
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 2, Imm: 0})
				f.EmitALU3(isa.OpCmpLt, 3, abi.RetReg, 2, 4)
				f.EmitBranch(isa.Inst{Op: isa.OpJnz, Rd: 3}, done)
				// send(buf, n)
				f.Emit(isa.Inst{Op: isa.OpMov, Rd: 4, Rn: abi.RetReg})
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: int64(isa.DataBase) + 256})
				f.Emit(isa.Inst{Op: isa.OpMov, Rd: abi.SyscallArgRegs[1], Rn: 4})
				emitSyscall(f, abi, kernel.SysSend)
				f.EmitBranch(isa.Inst{Op: isa.OpJmp}, loop)
				f.Define(done)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
				emitSyscall(f, abi, kernel.SysExit)
			})
			p.PushInput([]byte("ping"))
			p.PushInput([]byte("pong"))
			// Step until the server drains its inbox and blocks.
			for i := 0; i < 100; i++ {
				st, err := k.Step(p)
				if err != nil {
					t.Fatal(err)
				}
				if st.Blocked == 1 && p.PendingInput() == 0 {
					break
				}
			}
			if got := string(p.TakeOutput()); got != "pingpong" {
				t.Fatalf("echo output = %q", got)
			}
			p.CloseInput()
			if err := k.Run(p); err != nil {
				t.Fatal(err)
			}
			if p.ExitCode != 0 {
				t.Errorf("exit = %d", p.ExitCode)
			}
		})
	}
}

func TestDeadlockDetection(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			k := kernel.New(kernel.Config{})
			p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
				// main: lock(1); spawn worker; join worker  -> worker blocks
				// on lock(1) forever, main blocks on join: deadlock.
				worker := f.NewLabel()
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 1})
				emitSyscall(f, abi, kernel.SysLock)
				f.EmitBranch(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0]}, worker)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[1], Imm: 0})
				emitSyscall(f, abi, kernel.SysSpawn)
				f.Emit(isa.Inst{Op: isa.OpMov, Rd: abi.SyscallArgRegs[0], Rn: abi.RetReg})
				emitSyscall(f, abi, kernel.SysJoin)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
				emitSyscall(f, abi, kernel.SysExit)
				f.Define(worker)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 1})
				emitSyscall(f, abi, kernel.SysLock)
				f.Emit(isa.Inst{Op: isa.OpRet})
			})
			err := k.Run(p)
			if !errors.Is(err, kernel.ErrDeadlock) {
				t.Fatalf("want ErrDeadlock, got %v", err)
			}
		})
	}
}

func TestUnexpectedTrap(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			k := kernel.New(kernel.Config{})
			p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
				f.Emit(isa.Inst{Op: isa.OpTrap})
			})
			err := k.Run(p)
			if !errors.Is(err, kernel.ErrUnexpectedTrap) {
				t.Fatalf("want ErrUnexpectedTrap, got %v", err)
			}
		})
	}
}

func TestTracerPeekPoke(t *testing.T) {
	for arch, coder := range coders() {
		t.Run(arch.String(), func(t *testing.T) {
			k := kernel.New(kernel.Config{})
			p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
				// Spin on the flag: while (flag == 0) {}; exit(flag)
				loop := f.NewLabel()
				f.Define(loop)
				f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: int64(isa.FlagAddr)})
				f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rn: 1, Imm: 0})
				f.EmitBranch(isa.Inst{Op: isa.OpJz, Rd: 2}, loop)
				f.Emit(isa.Inst{Op: isa.OpMov, Rd: abi.SyscallArgRegs[0], Rn: 2})
				emitSyscall(f, abi, kernel.SysExit)
			})
			tr := kernel.Attach(p)
			if v, err := tr.PeekData(isa.FlagAddr); err != nil || v != 0 {
				t.Fatalf("flag = %d (err %v)", v, err)
			}
			// Let it spin a little, then poke the flag.
			for i := 0; i < 3; i++ {
				if _, err := k.Step(p); err != nil {
					t.Fatal(err)
				}
			}
			if p.Exited {
				t.Fatal("exited before poke")
			}
			if err := tr.PokeData(isa.FlagAddr, 9); err != nil {
				t.Fatal(err)
			}
			if err := k.Run(p); err != nil {
				t.Fatal(err)
			}
			if p.ExitCode != 9 {
				t.Errorf("exit = %d, want 9", p.ExitCode)
			}
			for _, th := range p.Threads {
				if th.State != kernel.ThreadExited {
					t.Errorf("thread %d live after exit", th.TID)
				}
			}
		})
	}
}

func TestStopPausesScheduling(t *testing.T) {
	arch, coder := isa.SX86, sx86.Coder{}
	k := kernel.New(kernel.Config{})
	p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
		loop := f.Here()
		f.Emit(isa.Inst{Op: isa.OpNop})
		f.EmitBranch(isa.Inst{Op: isa.OpJmp}, loop)
	})
	tr := kernel.Attach(p)
	tr.Stop()
	st, err := k.Step(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ran != 0 {
		t.Errorf("ran %d threads while SIGSTOPped", st.Ran)
	}
	tr.Resume()
	st, err = k.Step(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runnable != 1 {
		t.Errorf("thread not runnable after resume: %+v", st)
	}
}
