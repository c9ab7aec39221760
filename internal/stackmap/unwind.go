package stackmap

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/isa"
)

// Frame is one frame of an unwound stack.
type Frame struct {
	Func *Func
	// Site is where the frame is suspended: the entry site for the
	// innermost frame, a call site for every caller.
	Site *Site
	// FP is the frame pointer (zero for the innermost frame, whose
	// prologue has not run).
	FP uint64
}

// Bottom says how an unwound stack ends.
type Bottom uint8

// Stack bottoms.
const (
	BottomStart      Bottom = iota + 1 // main thread: outermost is _start
	BottomThreadExit                   // spawned thread: returns into __thread_exit
)

// MaxFrames bounds a stack walk. A frame takes at least 16 bytes of
// stack, so no stack the kernel maps comes near it; a saved-FP chain that
// links back into itself does.
const MaxFrames = 1 << 16

// The names Unwind refuses a stack under.
const (
	RefusePC      = "unwind-pc"      // the thread's PC is not the trap of an entry site
	RefuseMeta    = "unwind-meta"    // a site names a function the metadata lacks, or __thread_exit is absent
	RefuseBounds  = "unwind-bounds"  // the walk reads outside the thread's stack, or off a word boundary
	RefuseRetAddr = "unwind-retaddr" // a return address matches no call site
	RefuseDepth   = "unwind-depth"   // more than MaxFrames frames: the frame chain is cyclic
)

// Refusal is Unwind declining to walk a stack, by name. The rewriter and
// the image verifier both report it, so a stack one refuses the other
// refuses under the same name.
type Refusal struct {
	Name   string // one of the Refuse* constants
	Detail string
}

func (r *Refusal) Error() string { return "stackmap: " + r.Name + ": " + r.Detail }

func refuse(name, format string, args ...any) error {
	return &Refusal{Name: name, Detail: fmt.Sprintf(format, args...)}
}

// WordIn reports whether the eight bytes at addr are an aligned word
// inside the stack [low, high), without overflowing on either end.
func WordIn(addr, low, high uint64) bool {
	return addr >= low && addr < high && high-addr >= 8 && addr%8 == 0
}

// Unwind walks the stack of a thread parked at an entry equivalence point
// on arch: the innermost frame from the trap PC, then every caller by its
// return address, following the saved-FP chain until it reaches _start or
// the __thread_exit trampoline. [low, high) are the thread's stack bounds;
// read returns the stack word at an address inside them, and an error from
// it ends the walk and is returned as it is. Every other error is a
// *Refusal.
func (m *Metadata) Unwind(arch isa.Arch, regs *isa.RegFile, low, high uint64, read func(addr uint64) (uint64, error)) ([]Frame, Bottom, error) {
	entry, ok := m.SiteByTrapPC(arch, regs.PC)
	if !ok {
		return nil, 0, refuse(RefusePC, "pc 0x%x is not an equivalence point", regs.PC)
	}
	entryFn, ok := m.FuncByName(entry.Func)
	if !ok {
		return nil, 0, refuse(RefuseMeta, "entry site at 0x%x names unknown function %q", regs.PC, entry.Func)
	}
	threadExit, ok := m.FuncByName("__thread_exit")
	if !ok {
		return nil, 0, refuse(RefuseMeta, "no __thread_exit in the metadata")
	}
	word := func(addr uint64) (uint64, error) {
		if !WordIn(addr, low, high) {
			return 0, refuse(RefuseBounds, "stack walk reads 0x%x, not a word of [0x%x,0x%x)", addr, low, high)
		}
		return read(addr)
	}

	abi := isa.ABIFor(arch)
	frames := []Frame{{Func: entryFn, Site: entry}}
	var retaddr uint64
	if !abi.RetAddrOnStack {
		retaddr = regs.R[abi.LR]
	} else if sp := regs.R[abi.SP]; sp >= high {
		// RET already consumed the trampoline return address: this is
		// __thread_exit (or an empty main stack).
		return frames, BottomThreadExit, nil
	} else {
		var err error
		if retaddr, err = word(sp); err != nil {
			return nil, 0, err
		}
	}
	fp := regs.R[abi.FP]
	for {
		if retaddr == threadExit.Addr {
			return frames, BottomThreadExit, nil
		}
		if len(frames) > MaxFrames {
			return nil, 0, refuse(RefuseDepth, "stack walk exceeds %d frames (cyclic frame chain at fp 0x%x)", MaxFrames, fp)
		}
		site, ok := m.SiteByRetAddr(arch, retaddr)
		if !ok {
			return nil, 0, refuse(RefuseRetAddr, "return address 0x%x matches no call site", retaddr)
		}
		fn, ok := m.FuncByName(site.Func)
		if !ok {
			return nil, 0, refuse(RefuseMeta, "call site at 0x%x names unknown function %q", retaddr, site.Func)
		}
		frames = append(frames, Frame{Func: fn, Site: site, FP: fp})
		if fn.Name == "_start" {
			return frames, BottomStart, nil
		}
		next, err := word(fp + 8)
		if err != nil {
			return nil, 0, err
		}
		if fp, err = word(fp); err != nil {
			return nil, 0, err
		}
		retaddr = next
	}
}
