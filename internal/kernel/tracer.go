package kernel

import (
	"fmt"
	"github.com/dapper-sim/dapper/internal/isa"
)

// Tracer is the kernel's ptrace-style debugging interface. The DAPPER
// runtime monitor uses it to poke the transformation flag, observe thread
// states (SIGTRAP arrival at equivalence points), read and rewrite
// registers for the blocked-thread rollback, and SIGSTOP the process before
// the CRIU dump — keeping all transformation logic *outside* the target
// process, which is the paper's attack-surface argument.
type Tracer struct {
	p *Process
}

// Attach returns a tracer for p (PTRACE_ATTACH).
func Attach(p *Process) *Tracer { return &Tracer{p: p} }

// PeekData reads an 8-byte word from the tracee (PTRACE_PEEKDATA).
func (tr *Tracer) PeekData(addr uint64) (uint64, error) {
	return tr.p.AS.ReadU64(addr)
}

// PokeData writes an 8-byte word into the tracee (PTRACE_POKEDATA).
func (tr *Tracer) PokeData(addr, v uint64) error {
	return tr.p.AS.WriteU64(addr, v)
}

// SetRegs overwrites a thread's register file (PTRACE_SETREGS).
func (tr *Tracer) SetRegs(tid int, regs isa.RegFile) error {
	t, ok := tr.p.Thread(tid)
	if !ok {
		return fmt.Errorf("kernel: no thread %d", tid)
	}
	t.Regs = regs
	return nil
}

// CancelPending aborts a thread's blocked syscall, leaving it as if the
// call had never started. The monitor uses this with SetRegs to roll a
// thread blocked in a sync primitive back to the wrapper's equivalence
// point, and then MarkTrapped to park it there.
func (tr *Tracer) CancelPending(tid int) error {
	t, ok := tr.p.Thread(tid)
	if !ok {
		return fmt.Errorf("kernel: no thread %d", tid)
	}
	t.Pending = nil
	if t.State == ThreadBlocked {
		t.State = ThreadRunnable
	}
	return nil
}

// MarkTrapped parks a thread as if it had raised SIGTRAP.
func (tr *Tracer) MarkTrapped(tid int) error {
	t, ok := tr.p.Thread(tid)
	if !ok {
		return fmt.Errorf("kernel: no thread %d", tid)
	}
	t.State = ThreadTrapped
	return nil
}

// ResumeThread makes a trapped thread runnable again, optionally moving its
// PC (used after clearing the flag so checkers fall through).
func (tr *Tracer) ResumeThread(tid int, pc uint64) error {
	t, ok := tr.p.Thread(tid)
	if !ok {
		return fmt.Errorf("kernel: no thread %d", tid)
	}
	if pc != 0 {
		t.Regs.PC = pc
	}
	t.State = ThreadRunnable
	return nil
}

// Stop delivers SIGSTOP: the scheduler will not run any thread until
// Resume. The process is then ready to be dumped by CRIU.
func (tr *Tracer) Stop() { tr.p.Stopped = true }

// Resume lifts SIGSTOP.
func (tr *Tracer) Resume() { tr.p.Stopped = false }
