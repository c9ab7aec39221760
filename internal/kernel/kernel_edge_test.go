package kernel_test

import (
	"errors"
	"testing"

	"github.com/dapper-sim/dapper/internal/asm"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/isa/sx86"
	"github.com/dapper-sim/dapper/internal/kernel"
)

// TestRecursiveMutex: the kernel mutexes are recursive (the lock wrapper's
// nesting relies on it).
func TestRecursiveMutex(t *testing.T) {
	arch, coder := isa.SX86, sx86.Coder{}
	k := kernel.New(kernel.Config{})
	p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
		// lock(1); lock(1); unlock(1); unlock(1); exit(0)
		for i := 0; i < 2; i++ {
			f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 1})
			emitSyscall(f, abi, kernel.SysLock)
		}
		for i := 0; i < 2; i++ {
			f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 1})
			emitSyscall(f, abi, kernel.SysUnlock)
		}
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
		emitSyscall(f, abi, kernel.SysExit)
	})
	if err := k.Run(p); err != nil {
		t.Fatal(err)
	}
	if holder, _ := p.MutexState(1); holder != 0 {
		t.Error("mutex still held after balanced unlocks")
	}
}

// TestUnlockNotHeldFaults: unlocking a mutex you don't hold is a fatal
// error, as in a checked pthreads implementation.
func TestUnlockNotHeldFaults(t *testing.T) {
	arch, coder := isa.SX86, sx86.Coder{}
	k := kernel.New(kernel.Config{})
	p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 1})
		emitSyscall(f, abi, kernel.SysUnlock)
	})
	err := k.Run(p)
	var se *kernel.SyscallError
	if !errors.As(err, &se) {
		t.Fatalf("want SyscallError, got %v", err)
	}
}

// TestTLSIsolation: each thread's TLS block carries its own tid at slot 0.
func TestTLSIsolation(t *testing.T) {
	arch, coder := isa.SX86, sx86.Coder{}
	k := kernel.New(kernel.Config{Cores: 2})
	p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
		worker := f.NewLabel()
		// main: spawn two workers, join, read their reports.
		for i := int64(1); i <= 2; i++ {
			f.EmitBranch(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0]}, worker)
			f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[1], Imm: i})
			emitSyscall(f, abi, kernel.SysSpawn)
			f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + i*8})
			f.Emit(isa.Inst{Op: isa.OpStore, Rd: abi.RetReg, Rn: 6, Imm: 0})
		}
		for i := int64(1); i <= 2; i++ {
			f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + i*8})
			f.Emit(isa.Inst{Op: isa.OpLoad, Rd: abi.SyscallArgRegs[0], Rn: 6, Imm: 0})
			emitSyscall(f, abi, kernel.SysJoin)
		}
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
		emitSyscall(f, abi, kernel.SysExit)
		// worker(arg): data[32+arg*8] = TLS[tid slot]
		f.Define(worker)
		f.Emit(isa.Inst{Op: isa.OpMov, Rd: 1, Rn: abi.ArgRegs[0]})
		f.Emit(isa.Inst{Op: isa.OpTlsLoad, Rd: 2, Imm: int64(isa.TLSSlotTID) - int64(abi.TLSRegBias)})
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 3, Imm: 8})
		f.EmitALU3(isa.OpMul, 4, 1, 3, 5)
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 3, Imm: int64(isa.DataBase) + 32})
		f.EmitALU3(isa.OpAdd, 4, 4, 3, 5)
		f.Emit(isa.Inst{Op: isa.OpStore, Rd: 2, Rn: 4, Imm: 0})
		f.Emit(isa.Inst{Op: isa.OpRet})
	})
	if err := k.Run(p); err != nil {
		t.Fatal(err)
	}
	// Worker receiving arg i was spawned i-th, so its tid is i+1 (main=1).
	for arg := int64(1); arg <= 2; arg++ {
		v, err := p.AS.ReadU64(isa.DataBase + 32 + uint64(arg)*8)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(arg+1) {
			t.Errorf("worker %d saw tid %d, want %d", arg, v, arg+1)
		}
	}
}

// TestSbrkShrink: negative sbrk releases address space.
func TestSbrkShrink(t *testing.T) {
	arch, coder := isa.SX86, sx86.Coder{}
	k := kernel.New(kernel.Config{})
	p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 8 * 4096})
		emitSyscall(f, abi, kernel.SysSbrk)
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: -4 * 4096})
		emitSyscall(f, abi, kernel.SysSbrk)
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
		emitSyscall(f, abi, kernel.SysSbrk)
		// r0 now holds the current break; store it for the host.
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + 8})
		f.Emit(isa.Inst{Op: isa.OpStore, Rd: abi.RetReg, Rn: 6, Imm: 0})
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
		emitSyscall(f, abi, kernel.SysExit)
	})
	if err := k.Run(p); err != nil {
		t.Fatal(err)
	}
	v, err := p.AS.ReadU64(isa.DataBase + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != isa.HeapBase+4*4096 {
		t.Errorf("break = 0x%x, want 0x%x", v, isa.HeapBase+4*4096)
	}
}

// TestSbrkShrinkReleasesPages: heap a shrink gives back is demand-zero
// when a later sbrk maps it again — the bytes a native run reads there are
// the ones a process dumped while shrunk restores, not what was stored
// before the shrink.
func TestSbrkShrinkReleasesPages(t *testing.T) {
	arch, coder := isa.SX86, sx86.Coder{}
	k := kernel.New(kernel.Config{})
	const stale = int64(isa.HeapBase + 6*4096 + 8)
	p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
		sbrk := func(n int64) {
			f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: n})
			emitSyscall(f, abi, kernel.SysSbrk)
		}
		sbrk(8 * 4096)
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: stale})
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 7, Imm: 0xdead})
		f.Emit(isa.Inst{Op: isa.OpStore, Rd: 7, Rn: 6, Imm: 0})
		sbrk(-4 * 4096)
		sbrk(4 * 4096)
		// data[8] = *stale, for the host.
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: stale})
		f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 7, Rn: 6, Imm: 0})
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 6, Imm: int64(isa.DataBase) + 8})
		f.Emit(isa.Inst{Op: isa.OpStore, Rd: 7, Rn: 6, Imm: 0})
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
		emitSyscall(f, abi, kernel.SysExit)
	})
	if err := k.Run(p); err != nil {
		t.Fatal(err)
	}
	v, err := p.AS.ReadU64(isa.DataBase + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("regrown heap reads %#x, want 0: the shrink kept the frame", v)
	}
}

// TestGuestFaultKillsProcess: a wild pointer dereference must fail the
// process with a useful error, not hang the scheduler.
func TestGuestFaultKillsProcess(t *testing.T) {
	arch, coder := isa.SX86, sx86.Coder{}
	k := kernel.New(kernel.Config{})
	p := load(t, k, arch, coder, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: 1, Imm: 0xdead0000})
		f.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rn: 1, Imm: 0})
	})
	err := k.Run(p)
	if err == nil {
		t.Fatal("wild dereference did not error")
	}
	if !p.Exited || p.Err == nil {
		t.Error("process not marked failed")
	}
}
