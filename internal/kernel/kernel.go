// Package kernel simulates the operating-system substrate DAPPER runs on:
// processes with multiple threads, demand-paged virtual memory, a
// deterministic scheduler, blocking synchronization syscalls, SIGTRAP
// delivery for equivalence-point checkers, SIGSTOP-style pausing, and a
// ptrace-like tracer interface used by the DAPPER runtime monitor.
//
// The kernel is fully deterministic: scheduling is round-robin with a fixed
// quantum and blocking syscalls are restartable (a blocked thread records
// its pending syscall and retries when rescheduled), which both makes
// multi-threaded workloads reproducible and gives the monitor a precise
// rollback point — the paper's setjmp-style rollback of threads parked in
// synchronization primitives.
package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/vm"
)

// ThreadState describes what a thread is doing.
type ThreadState uint8

// Thread states.
const (
	ThreadRunnable ThreadState = iota + 1
	ThreadBlocked              // waiting in a restartable syscall
	ThreadTrapped              // stopped at a TRAP (equivalence point)
	ThreadExited
)

func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadBlocked:
		return "blocked"
	case ThreadTrapped:
		return "trapped"
	case ThreadExited:
		return "exited"
	default:
		return fmt.Sprintf("ThreadState(%d)", uint8(s))
	}
}

// PendingSyscall records a blocking syscall to be retried when the thread
// is next scheduled. Cancelling it (the monitor's rollback) leaves the
// thread as if the syscall had not started.
type PendingSyscall struct {
	Num  uint64
	Args [5]uint64
}

// Thread is one simulated thread of execution.
type Thread struct {
	TID   int
	Regs  isa.RegFile
	State ThreadState
	// Pending is non-nil while the thread is blocked in a syscall.
	Pending *PendingSyscall
	// Stack and TLS geometry, fixed at spawn time.
	StackLow  uint64
	StackHigh uint64
	TLSBlock  uint64
	// Cycles is the total virtual cycles this thread has executed.
	Cycles uint64
}

// LoadSpec describes a loaded program image, produced by internal/link.
type LoadSpec struct {
	Arch  isa.Arch
	Coder isa.Coder
	// Text and Data are the initial section contents, mapped at
	// isa.TextBase and isa.DataBase.
	Text []byte
	Data []byte
	// Entry is the _start address; ThreadExit is the address of the
	// thread-exit trampoline used as the return address of spawned threads.
	Entry      uint64
	ThreadExit uint64
	// ExePath names the executable (recorded in the files image so the
	// rewriter can retarget it to the other architecture's binary).
	ExePath string
}

// Process is one simulated process.
type Process struct {
	PID     int
	Arch    isa.Arch
	ABI     *isa.ABI
	AS      *mem.AddressSpace
	Machine *vm.Machine
	Threads []*Thread
	ExePath string
	Entry   uint64
	// ThreadExit is kept so spawned threads get the trampoline return
	// address and so restore can rebuild it.
	ThreadExit uint64

	Brk        uint64
	heapMapped bool

	Console  bytes.Buffer
	input    [][]byte
	inClosed bool
	output   bytes.Buffer

	mutexes map[uint64]*mutexState

	Stopped  bool // SIGSTOP
	Exited   bool
	ExitCode int
	Err      error

	// VCycles is the process's virtual-time cycle counter, advanced by the
	// scheduler with a simple multi-core time-sharing model.
	VCycles uint64
	// Syscalls counts the SYSCALL instructions this kernel has dispatched
	// for the process (retries of a blocked call are not counted again).
	Syscalls uint64

	nextTID int
}

type mutexState struct {
	holder  int // 0 when free
	recurse int
}

// Kernel simulates one machine (one node of the cluster).
type Kernel struct {
	// Cores models the number of CPU cores for virtual-time accounting:
	// when more threads are runnable than cores, virtual time dilates.
	Cores int
	// Quantum is the scheduler time slice in instructions.
	Quantum int

	// procMu guards the process table (procs, nextPID) only. Scheduling a
	// process (Step/Run) touches just that process's state, so distinct
	// processes on one kernel may be driven from different goroutines —
	// the property concurrent migrations against a shared node rely on —
	// as long as table mutations (start, adopt, reap) are serialized.
	procMu  sync.Mutex
	nextPID int
	procs   map[int]*Process
}

// Config configures a Kernel.
type Config struct {
	Cores   int
	Quantum int
}

// New returns a Kernel.
func New(cfg Config) *Kernel {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 4096
	}
	return &Kernel{Cores: cfg.Cores, Quantum: cfg.Quantum, procs: make(map[int]*Process), nextPID: 100}
}

// Errors reported by the scheduler.
var (
	// ErrDeadlock: every live thread is blocked and no external input can
	// arrive.
	ErrDeadlock = errors.New("kernel: deadlock: all threads blocked")
	// ErrUnexpectedTrap: a TRAP executed while no monitor was attached.
	ErrUnexpectedTrap = errors.New("kernel: unexpected SIGTRAP")
)

// StartProcess loads spec into a new process with one main thread parked at
// the entry point.
func (k *Kernel) StartProcess(spec LoadSpec) (*Process, error) {
	as := mem.NewAddressSpace()
	textEnd := isa.TextBase + roundUpPage(uint64(len(spec.Text)))
	if len(spec.Text) == 0 {
		return nil, errors.New("kernel: empty text")
	}
	if err := as.Map(mem.VMA{Start: isa.TextBase, End: textEnd, Kind: mem.VMAText, Prot: mem.ProtRead | mem.ProtExec}); err != nil {
		return nil, err
	}
	dataEnd := isa.DataBase + roundUpPage(maxU64(uint64(len(spec.Data)), mem.PageSize))
	if err := as.Map(mem.VMA{Start: isa.DataBase, End: dataEnd, Kind: mem.VMAData, Prot: mem.ProtRead | mem.ProtWrite}); err != nil {
		return nil, err
	}
	if err := as.WriteBytes(isa.TextBase, spec.Text); err != nil {
		return nil, err
	}
	if len(spec.Data) > 0 {
		if err := as.WriteBytes(isa.DataBase, spec.Data); err != nil {
			return nil, err
		}
	}
	abi := isa.ABIFor(spec.Arch)
	k.procMu.Lock()
	p := &Process{
		PID:        k.nextPID,
		Arch:       spec.Arch,
		ABI:        abi,
		AS:         as,
		Machine:    vm.New(abi, spec.Coder, as),
		ExePath:    spec.ExePath,
		Entry:      spec.Entry,
		ThreadExit: spec.ThreadExit,
		Brk:        isa.HeapBase,
		mutexes:    make(map[uint64]*mutexState),
		nextTID:    1,
	}
	k.nextPID++
	k.procs[p.PID] = p
	k.procMu.Unlock()
	if _, err := p.spawnThread(spec.Entry, 0, false); err != nil {
		return nil, err
	}
	return p, nil
}

// AdoptProcess registers a process rebuilt by restore (its address space
// and threads are already populated).
func (k *Kernel) AdoptProcess(p *Process) {
	k.procMu.Lock()
	p.PID = k.nextPID
	k.nextPID++
	k.procs[p.PID] = p
	k.procMu.Unlock()
}

// Reap terminates a process that has been migrated away: SIGSTOP is
// lifted, every thread is marked exited, and the PID is released. The
// Process value stays readable (console output, cycle counters) but will
// never run again. Migration uses this to avoid leaking the paused source
// process once its pages are no longer needed.
func (k *Kernel) Reap(p *Process) {
	p.Stopped = false
	p.Exited = true
	for _, t := range p.Threads {
		t.State = ThreadExited
	}
	k.procMu.Lock()
	delete(k.procs, p.PID)
	k.procMu.Unlock()
}

// Live reports how many processes the kernel's table holds: started or
// adopted, and not yet reaped.
func (k *Kernel) Live() int {
	k.procMu.Lock()
	defer k.procMu.Unlock()
	return len(k.procs)
}

// IsLazyFaultError reports whether err was caused by a failed lazy page
// fetch — a post-copy transport failure surfaced through the fault
// handler — rather than an ordinary illegal access. Callers use this to
// distinguish "the page server became unreachable" from a genuine
// segfault in the migrated program.
func IsLazyFaultError(err error) bool {
	var fe *mem.FaultError
	return errors.As(err, &fe) && fe.Cause != nil
}

// NewRestoredProcess builds an empty Process shell for the CRIU restore
// path; the caller populates the address space and threads, then calls
// AdoptProcess.
func NewRestoredProcess(arch isa.Arch, coder isa.Coder, as *mem.AddressSpace) *Process {
	abi := isa.ABIFor(arch)
	return &Process{
		Arch:    arch,
		ABI:     abi,
		AS:      as,
		Machine: vm.New(abi, coder, as),
		Brk:     isa.HeapBase,
		mutexes: make(map[uint64]*mutexState),
		nextTID: 1,
	}
}

// spawnThread creates a thread whose PC is entry and whose first argument
// register holds arg. Spawned (non-main) threads return into the
// thread-exit trampoline.
func (p *Process) spawnThread(entry, arg uint64, linkExit bool) (*Thread, error) {
	tid := p.nextTID
	p.nextTID++
	idx := uint64(tid - 1)
	stackHigh := isa.StackTop - idx*(isa.StackSize+isa.StackGap)
	stackLow := stackHigh - isa.StackSize
	if err := p.AS.Map(mem.VMA{Start: stackLow, End: stackHigh, Kind: mem.VMAStack, Prot: mem.ProtRead | mem.ProtWrite, TID: tid}); err != nil {
		return nil, fmt.Errorf("spawn thread %d stack: %w", tid, err)
	}
	tlsBlock := isa.TLSBase + idx*isa.TLSStride
	if err := p.AS.Map(mem.VMA{Start: tlsBlock, End: tlsBlock + isa.TLSStride, Kind: mem.VMATLS, Prot: mem.ProtRead | mem.ProtWrite, TID: tid}); err != nil {
		return nil, fmt.Errorf("spawn thread %d tls: %w", tid, err)
	}
	if err := p.AS.WriteU64(tlsBlock+isa.TLSSlotTID, uint64(tid)); err != nil {
		return nil, err
	}
	t := &Thread{
		TID:       tid,
		State:     ThreadRunnable,
		StackLow:  stackLow,
		StackHigh: stackHigh,
		TLSBlock:  tlsBlock,
	}
	t.Regs.PC = entry
	t.Regs.TLS = p.ABI.TLSRegValue(tlsBlock)
	sp := stackHigh
	t.Regs.R[p.ABI.ArgRegs[0]] = arg
	if linkExit {
		if p.ABI.RetAddrOnStack {
			sp -= 8
			if err := p.AS.WriteU64(sp, p.ThreadExit); err != nil {
				return nil, err
			}
		} else {
			t.Regs.R[p.ABI.LR] = p.ThreadExit
		}
	}
	t.Regs.R[p.ABI.SP] = sp
	p.Threads = append(p.Threads, t)
	return t, nil
}

// AddRestoredThread appends a thread with explicit state (used by restore).
func (p *Process) AddRestoredThread(t *Thread) {
	p.Threads = append(p.Threads, t)
	if t.TID >= p.nextTID {
		p.nextTID = t.TID + 1
	}
}

// Thread returns the thread with the given id.
func (p *Process) Thread(tid int) (*Thread, bool) {
	for _, t := range p.Threads {
		if t.TID == tid {
			return t, true
		}
	}
	return nil, false
}

// PushInput queues one message for SysRecv (the simulated network inbox).
func (p *Process) PushInput(data []byte) {
	d := make([]byte, len(data))
	copy(d, data)
	p.input = append(p.input, d)
}

// CloseInput makes subsequent SysRecv return EOF (-1).
func (p *Process) CloseInput() { p.inClosed = true }

// PendingInput reports how many queued messages remain unread.
func (p *Process) PendingInput() int { return len(p.input) }

// TakeOutput drains and returns bytes the process sent with SysSend.
func (p *Process) TakeOutput() []byte {
	out := p.output.Bytes()
	p.output.Reset()
	if len(out) == 0 {
		return nil
	}
	cp := make([]byte, len(out))
	copy(cp, out)
	return cp
}

// ConsoleString returns the console output so far.
func (p *Process) ConsoleString() string { return p.Console.String() }

// StepStatus summarizes one scheduler pass.
type StepStatus struct {
	Ran      int // threads that executed instructions
	Runnable int
	Blocked  int
	Trapped  int
	Exited   bool
}

// Step performs one scheduler pass: every runnable thread (and every
// blocked thread whose syscall can now complete) runs for up to one
// quantum. Virtual time advances with a core-sharing dilation factor.
func (k *Kernel) Step(p *Process) (StepStatus, error) {
	var st StepStatus
	if p.Exited {
		st.Exited = true
		return st, nil
	}
	if p.Stopped {
		return k.summarize(p), nil
	}
	var maxCycles uint64
	for _, t := range p.Threads {
		if p.Exited {
			break
		}
		switch t.State {
		case ThreadExited, ThreadTrapped:
			continue
		case ThreadBlocked:
			// Retry the pending syscall; it may now complete.
			done, err := k.dispatchSyscall(p, t, t.Pending.Num, t.Pending.Args)
			if err != nil {
				p.fail(err)
				return k.summarize(p), err
			}
			if !done {
				continue
			}
			t.Pending = nil
			t.State = ThreadRunnable
		}
		st.Ran++
		cycles, err := k.runThread(p, t)
		if err != nil {
			p.fail(err)
			return k.summarize(p), err
		}
		if cycles > maxCycles {
			maxCycles = cycles
		}
	}
	// Time model: one pass runs min(runnable, cores) threads in parallel;
	// extra runnable threads dilate time.
	if st.Ran > 0 {
		rounds := (st.Ran + k.Cores - 1) / k.Cores
		p.VCycles += maxCycles * uint64(rounds)
	}
	out := k.summarize(p)
	out.Ran = st.Ran
	return out, nil
}

// runThread executes t until its quantum expires or it syscalls/traps.
func (k *Kernel) runThread(p *Process, t *Thread) (uint64, error) {
	var total uint64
	budget := k.Quantum
	for budget > 0 {
		stop, err := p.Machine.Run(&t.Regs, budget)
		total += stop.Cycles
		t.Cycles += stop.Cycles
		if err != nil {
			return total, fmt.Errorf("tid %d: %w", t.TID, err)
		}
		// Rough conversion of cycles to the step budget.
		consumed := int(stop.Cycles)
		if consumed <= 0 {
			consumed = 1
		}
		budget -= consumed
		switch stop.Kind {
		case vm.StopQuantum:
			return total, nil
		case vm.StopTrap:
			t.State = ThreadTrapped
			return total, nil
		case vm.StopSyscall:
			p.Syscalls++
			num := t.Regs.R[p.ABI.SyscallNumReg]
			var args [5]uint64
			for i, r := range p.ABI.SyscallArgRegs {
				args[i] = t.Regs.R[r]
			}
			done, err := k.dispatchSyscall(p, t, num, args)
			if err != nil {
				return total, err
			}
			if !done {
				t.State = ThreadBlocked
				t.Pending = &PendingSyscall{Num: num, Args: args}
				return total, nil
			}
			if p.Exited || t.State == ThreadExited {
				return total, nil
			}
		}
	}
	return total, nil
}

func (k *Kernel) summarize(p *Process) StepStatus {
	var st StepStatus
	st.Exited = p.Exited
	for _, t := range p.Threads {
		switch t.State {
		case ThreadRunnable:
			st.Runnable++
		case ThreadBlocked:
			st.Blocked++
		case ThreadTrapped:
			st.Trapped++
		}
	}
	return st
}

func (p *Process) fail(err error) {
	p.Err = err
	p.Exited = true
	for _, t := range p.Threads {
		t.State = ThreadExited
	}
}

// Run drives the process until it exits. It returns ErrDeadlock if all
// threads block with no external input, and ErrUnexpectedTrap if a thread
// traps (no monitor is attached on this path).
func (k *Kernel) Run(p *Process) error {
	for {
		st, err := k.Step(p)
		if err != nil {
			return err
		}
		if st.Exited {
			return p.Err
		}
		if st.Trapped > 0 {
			return fmt.Errorf("%w (pid %d)", ErrUnexpectedTrap, p.PID)
		}
		if st.Runnable == 0 && st.Ran == 0 {
			return fmt.Errorf("%w (pid %d)", ErrDeadlock, p.PID)
		}
	}
}

// RunBudget drives the process for at most cycles of virtual time,
// returning true while the process is still alive. Used to run a program
// "half way" before checkpointing it.
func (k *Kernel) RunBudget(p *Process, cycles uint64) (bool, error) {
	target := p.VCycles + cycles
	for p.VCycles < target {
		st, err := k.Step(p)
		if err != nil {
			return false, err
		}
		if st.Exited {
			return false, p.Err
		}
		if st.Trapped > 0 {
			return true, fmt.Errorf("%w (pid %d)", ErrUnexpectedTrap, p.PID)
		}
		if st.Runnable == 0 && st.Ran == 0 {
			return true, fmt.Errorf("%w (pid %d)", ErrDeadlock, p.PID)
		}
	}
	return true, nil
}

func roundUpPage(n uint64) uint64 {
	return (n + mem.PageSize - 1) / mem.PageSize * mem.PageSize
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// appendInt is a strconv helper shared by print syscalls.
func appendInt(b *bytes.Buffer, v int64) {
	var tmp [20]byte
	b.Write(strconv.AppendInt(tmp[:0], v, 10))
}

// SortedVMAs returns the process VMAs ordered by start address (dump order).
func (p *Process) SortedVMAs() []mem.VMA { return p.AS.VMAs() }
