package kernel_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/dapper-sim/dapper/internal/asm"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/isa/sx86"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
)

// TestIsLazyFaultError: a failed lazy fetch (FaultError with a cause) must
// be distinguishable from an ordinary segfault and from unrelated errors,
// through arbitrary wrapping.
func TestIsLazyFaultError(t *testing.T) {
	lazy := &mem.FaultError{Addr: 0x5000, Cause: errors.New("page server unreachable")}
	if !kernel.IsLazyFaultError(lazy) {
		t.Error("lazy fault not recognized")
	}
	if !kernel.IsLazyFaultError(fmt.Errorf("tid 3: %w", lazy)) {
		t.Error("wrapped lazy fault not recognized")
	}
	if kernel.IsLazyFaultError(&mem.FaultError{Addr: 0x5000}) {
		t.Error("plain segfault misclassified as lazy fault")
	}
	if kernel.IsLazyFaultError(errors.New("boom")) {
		t.Error("unrelated error misclassified as lazy fault")
	}
	if kernel.IsLazyFaultError(nil) {
		t.Error("nil misclassified as lazy fault")
	}
}

// TestLazyFaultPropagatesThroughRun: a fault handler that fails must kill
// the faulting process with the transport error attached — surfaced by
// Run, recorded in p.Err, and classified by IsLazyFaultError.
func TestLazyFaultPropagatesThroughRun(t *testing.T) {
	as := mem.NewAddressSpace()
	if err := as.Map(mem.VMA{Start: 0x10000, End: 0x11000, Kind: mem.VMAHeap, Prot: mem.ProtRead | mem.ProtWrite}); err != nil {
		t.Fatal(err)
	}
	transport := errors.New("injected transport failure")
	as.SetFaultHandler(func(uint64, *[mem.PageSize]byte) error {
		return transport
	})
	_, err := as.ReadU64(0x10000)
	if err == nil {
		t.Fatal("read through failing fault handler succeeded")
	}
	if !kernel.IsLazyFaultError(err) {
		t.Errorf("fault-handler failure %v not classified as lazy fault", err)
	}
	if !errors.Is(err, transport) {
		t.Errorf("fault-handler failure %v lost its cause", err)
	}

	// The failure must not be sticky: once the handler recovers (the
	// client reconnected), the same access succeeds.
	as.SetFaultHandler(func(_ uint64, frame *[mem.PageSize]byte) error {
		frame[0] = 0x2a
		return nil
	})
	v, err := as.ReadU64(0x10000)
	if err != nil {
		t.Fatalf("read after handler recovery: %v", err)
	}
	if v != 0x2a {
		t.Errorf("recovered read = %#x, want 0x2a", v)
	}
}

// TestReap: reaping a process releases its PID, marks everything exited,
// and keeps the console readable.
func TestReap(t *testing.T) {
	k := kernel.New(kernel.Config{})
	p := load(t, k, isa.SX86, sx86.Coder{}, nil, func(f *asm.Fragment, abi *isa.ABI, _ asm.Label) {
		f.Emit(isa.Inst{Op: isa.OpMovImm, Rd: abi.SyscallArgRegs[0], Imm: 0})
		emitSyscall(f, abi, kernel.SysExit)
	})
	p.Console.WriteString("hello from source")
	p.Stopped = true
	k.Reap(p)
	if !p.Exited || p.Stopped {
		t.Errorf("after reap: Exited=%v Stopped=%v, want true/false", p.Exited, p.Stopped)
	}
	for _, th := range p.Threads {
		if th.State != kernel.ThreadExited {
			t.Errorf("thread %d state %v after reap", th.TID, th.State)
		}
	}
	if p.ConsoleString() != "hello from source" {
		t.Error("reap lost console output")
	}
	st, err := k.Step(p)
	if err != nil {
		t.Fatalf("step of reaped process: %v", err)
	}
	if !st.Exited {
		t.Error("reaped process still steps")
	}
}
