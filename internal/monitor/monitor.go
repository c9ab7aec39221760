// Package monitor implements the DAPPER runtime: the external, ptrace-based
// controller that drives a process into a transformable state.
//
// The paper's protocol is reproduced faithfully:
//
//  1. The monitor pokes the global transformation flag (PTRACE_POKEDATA).
//  2. Per-thread helper monitors collect SIGTRAPs as each thread's next
//     equivalence-point checker fires.
//  3. Threads inside critical sections never trap (their TLS lock depth
//     masks the checker); they keep running until they release the lock.
//  4. Threads blocked in synchronization primitives (join/lock/recv) are
//     rolled back to the wrapper's entry equivalence point — the paper's
//     setjmp-style rollback — by cancelling the restartable syscall and
//     reconstructing the wrapper's entry register state from its frame.
//  5. Once every live thread is parked, the monitor validates each trap PC
//     against the stack maps and delivers SIGSTOP; the process is ready
//     for the CRIU dump.
//
// All of this runs *outside* the target process through the kernel's
// tracer interface, which is the paper's attack-surface argument.
package monitor

import (
	"errors"
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// Monitor pauses and resumes one traced process.
type Monitor struct {
	k    *kernel.Kernel
	p    *kernel.Process
	meta *stackmap.Metadata
	tr   *kernel.Tracer
	obs  *obs.Registry
}

// New attaches a monitor to a process. meta must be the stack-map metadata
// of the binary the process is running.
func New(k *kernel.Kernel, p *kernel.Process, meta *stackmap.Metadata) *Monitor {
	return &Monitor{k: k, p: p, meta: meta, tr: kernel.Attach(p)}
}

// WithObs makes the monitor record the pause protocol into reg: a
// wall-time pause histogram ("monitor.pause_ns"), per-thread time-to-park
// ("monitor.park_ns"), and counters for pauses, scheduler passes, and
// syscall rollbacks. A nil reg disables recording. Returns the monitor
// for chaining.
func (m *Monitor) WithObs(reg *obs.Registry) *Monitor {
	m.obs = reg
	return m
}

// ErrNotQuiescing is returned when threads fail to reach equivalence
// points within the pass budget (e.g. a loop with no function calls).
var ErrNotQuiescing = errors.New("monitor: threads did not reach equivalence points")

// Pause drives every live thread to an equivalence point and SIGSTOPs the
// process. maxPasses bounds the scheduler passes spent waiting (threads in
// critical sections need time to release their locks).
func (m *Monitor) Pause(maxPasses int) error {
	start := time.Now()
	// Per-thread time-to-park: a thread is "parked" once it traps (or
	// exits); the histogram exposes the tail thread that holds the whole
	// pause back (threads deep in critical sections).
	var parked map[int]bool
	if m.obs != nil {
		parked = make(map[int]bool, len(m.p.Threads))
		m.obs.Counter("monitor.pauses").Inc()
	}
	observeParked := func() {
		if parked == nil {
			return
		}
		for _, t := range m.p.Threads {
			if parked[t.TID] {
				continue
			}
			if t.State == kernel.ThreadTrapped || t.State == kernel.ThreadExited {
				parked[t.TID] = true
				m.obs.Histogram("monitor.park_ns").Observe(time.Since(start))
			}
		}
	}
	if err := m.tr.PokeData(isa.FlagAddr, 1); err != nil {
		return fmt.Errorf("monitor: set flag: %w", err)
	}
	for pass := 0; pass < maxPasses; pass++ {
		st, err := m.k.Step(m.p)
		if err != nil {
			return fmt.Errorf("monitor: step: %w", err)
		}
		if st.Exited {
			return fmt.Errorf("monitor: process exited before pausing")
		}
		m.obs.Counter("monitor.passes").Inc()
		// Roll back threads blocked in synchronization wrappers.
		for _, t := range m.p.Threads {
			if t.State == kernel.ThreadBlocked {
				if err := m.rollback(t); err != nil {
					return err
				}
				m.obs.Counter("monitor.rollbacks").Inc()
			}
		}
		observeParked()
		if m.allParked() {
			if err := m.validate(); err != nil {
				return err
			}
			m.tr.Stop()
			m.obs.Histogram("monitor.pause_ns").Observe(time.Since(start))
			return nil
		}
	}
	return fmt.Errorf("%w (after %d passes)", ErrNotQuiescing, maxPasses)
}

func (m *Monitor) allParked() bool {
	for _, t := range m.p.Threads {
		if t.State != kernel.ThreadTrapped && t.State != kernel.ThreadExited {
			return false
		}
	}
	return true
}

// rollback rewinds a thread blocked inside a blocking wrapper to the
// wrapper's entry equivalence point. The wrapper's prologue has stored the
// arguments into parameter slots, so the entry state (arguments in the
// per-ISA argument registers, caller frame restored) is reconstructable
// from the frame alone.
func (m *Monitor) rollback(t *kernel.Thread) error {
	fn, ok := m.meta.FuncByPC(t.Regs.PC)
	if !ok {
		return fmt.Errorf("monitor: blocked thread %d at unknown PC 0x%x", t.TID, t.Regs.PC)
	}
	if !fn.Blocking {
		return fmt.Errorf("monitor: thread %d blocked in non-wrapper %q", t.TID, fn.Name)
	}
	ai := stackmap.ArchIdx(m.p.Arch)
	abi := m.p.ABI
	regs := t.Regs
	fp := regs.R[abi.FP]

	// Reload arguments from their parameter slots.
	for i := 0; i < fn.NumParams; i++ {
		slot, ok := fn.SlotByID(i)
		if !ok {
			return fmt.Errorf("monitor: %s: missing param slot %d", fn.Name, i)
		}
		v, err := m.tr.PeekData(fp - uint64(slot.Off[ai]))
		if err != nil {
			return err
		}
		regs.R[abi.ArgRegs[i]] = v
	}
	// Unwind the wrapper frame: [fp] = saved FP, [fp+8] = return address
	// (on the stack for SX86, restored into LR for SARM).
	savedFP, err := m.tr.PeekData(fp)
	if err != nil {
		return err
	}
	if abi.RetAddrOnStack {
		regs.R[abi.SP] = fp + 8 // SP points at the still-present return address
	} else {
		lr, err := m.tr.PeekData(fp + 8)
		if err != nil {
			return err
		}
		regs.R[abi.LR] = lr
		regs.R[abi.SP] = fp + 16
	}
	regs.R[abi.FP] = savedFP
	regs.PC = fn.EntrySite.PCs[ai].TrapPC

	if err := m.tr.CancelPending(t.TID); err != nil {
		return err
	}
	if err := m.tr.SetRegs(t.TID, regs); err != nil {
		return err
	}
	return m.tr.MarkTrapped(t.TID)
}

// validate checks every parked thread's PC against the stack maps — the
// paper's defense against maliciously raised SIGTRAPs.
func (m *Monitor) validate() error {
	for _, t := range m.p.Threads {
		if t.State != kernel.ThreadTrapped {
			continue
		}
		if _, ok := m.meta.SiteByTrapPC(m.p.Arch, t.Regs.PC); !ok {
			return fmt.Errorf("monitor: thread %d trapped at 0x%x, not an equivalence point", t.TID, t.Regs.PC)
		}
	}
	return nil
}

// ResumeLocal aborts a transformation: it clears the flag, moves every
// parked thread to its site's resume PC, and lifts SIGSTOP, letting the
// original process continue (used after a checkpoint that is merely
// copied, e.g. for periodic snapshots or the source side of lazy
// migration).
func (m *Monitor) ResumeLocal() error {
	if err := m.tr.PokeData(isa.FlagAddr, 0); err != nil {
		return err
	}
	ai := stackmap.ArchIdx(m.p.Arch)
	for _, t := range m.p.Threads {
		if t.State != kernel.ThreadTrapped {
			continue
		}
		site, ok := m.meta.SiteByTrapPC(m.p.Arch, t.Regs.PC)
		if !ok {
			return fmt.Errorf("monitor: thread %d at unexpected trap PC 0x%x", t.TID, t.Regs.PC)
		}
		if err := m.tr.ResumeThread(t.TID, site.PCs[ai].ResumePC); err != nil {
			return err
		}
	}
	m.tr.Resume()
	return nil
}
