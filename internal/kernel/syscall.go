package kernel

import (
	"fmt"
	"math"
	"strconv"

	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
)

// Syscall numbers. The compiler's runtime wrappers (internal/compiler)
// emit these; keep them stable because they are baked into binaries.
const (
	SysExit       uint64 = 1  // exit(code): terminate the process
	SysExitThread uint64 = 2  // exit_thread(): terminate the calling thread
	SysPrint      uint64 = 3  // print(ptr, len): write bytes to the console
	SysPrintI     uint64 = 4  // printi(v): write decimal integer
	SysPrintF     uint64 = 5  // printf(bits): write float64 (%g)
	SysSbrk       uint64 = 6  // sbrk(n) -> old break
	SysSpawn      uint64 = 7  // spawn(fn, arg) -> tid
	SysJoin       uint64 = 8  // join(tid); blocking
	SysLock       uint64 = 9  // lock(id); blocking
	SysUnlock     uint64 = 10 // unlock(id)
	SysYield      uint64 = 11 // yield()
	SysTime       uint64 = 12 // time() -> virtual cycle counter
	SysRecv       uint64 = 13 // recv(ptr, cap) -> n, or -1 on EOF; blocking
	SysSend       uint64 = 14 // send(ptr, len)
	SysGettid     uint64 = 15 // gettid() -> tid
	SysNCores     uint64 = 16 // ncores() -> cores on this node
)

// SyscallError reports a fatal error raised by a syscall.
type SyscallError struct {
	Num uint64
	TID int
	Err error
}

func (e *SyscallError) Error() string {
	return fmt.Sprintf("kernel: syscall %d (tid %d): %v", e.Num, e.TID, e.Err)
}

func (e *SyscallError) Unwrap() error { return e.Err }

// dispatchSyscall executes one syscall for t. It returns done=false when
// the call must block (the caller records it as pending and retries on the
// next pass). The result, if any, is written to the ABI return register.
func (k *Kernel) dispatchSyscall(p *Process, t *Thread, num uint64, args [5]uint64) (done bool, err error) {
	setRet := func(v uint64) { t.Regs.R[p.ABI.RetReg] = v }
	switch num {
	case SysExit:
		p.Exited = true
		p.ExitCode = int(int64(args[0]))
		for _, th := range p.Threads {
			th.State = ThreadExited
		}
		return true, nil

	case SysExitThread:
		t.State = ThreadExited
		return true, nil

	case SysPrint:
		buf := make([]byte, args[1])
		if err := p.AS.ReadBytes(args[0], buf); err != nil {
			return false, &SyscallError{Num: num, TID: t.TID, Err: err}
		}
		p.Console.Write(buf)
		return true, nil

	case SysPrintI:
		appendInt(&p.Console, int64(args[0]))
		return true, nil

	case SysPrintF:
		f := math.Float64frombits(args[0])
		p.Console.WriteString(strconv.FormatFloat(f, 'g', 10, 64))
		return true, nil

	case SysSbrk:
		old := p.Brk
		n := int64(args[0])
		if n == 0 {
			setRet(old)
			return true, nil
		}
		newBrk := uint64(int64(p.Brk) + n)
		if newBrk < isa.HeapBase || newBrk > isa.TLSBase {
			return false, &SyscallError{Num: num, TID: t.TID, Err: fmt.Errorf("brk out of range: 0x%x", newBrk)}
		}
		end := roundUpPage(newBrk)
		if end == isa.HeapBase {
			end = isa.HeapBase + mem.PageSize
		}
		if !p.heapMapped {
			if err := p.AS.Map(mem.VMA{Start: isa.HeapBase, End: end, Kind: mem.VMAHeap, Prot: mem.ProtRead | mem.ProtWrite}); err != nil {
				return false, &SyscallError{Num: num, TID: t.TID, Err: err}
			}
			p.heapMapped = true
		} else if err := p.AS.Resize(isa.HeapBase, end); err != nil {
			return false, &SyscallError{Num: num, TID: t.TID, Err: err}
		}
		p.Brk = newBrk
		setRet(old)
		return true, nil

	case SysSpawn:
		nt, err := p.spawnThread(args[0], args[1], true)
		if err != nil {
			return false, &SyscallError{Num: num, TID: t.TID, Err: err}
		}
		setRet(uint64(nt.TID))
		return true, nil

	case SysJoin:
		target, ok := p.Thread(int(args[0]))
		if !ok {
			return false, &SyscallError{Num: num, TID: t.TID, Err: fmt.Errorf("join: no thread %d", args[0])}
		}
		if target.State != ThreadExited {
			return false, nil // block
		}
		setRet(0)
		return true, nil

	case SysLock:
		m := p.mutex(args[0])
		switch m.holder {
		case 0:
			m.holder = t.TID
			m.recurse = 1
			setRet(0)
			return true, nil
		case t.TID:
			m.recurse++
			setRet(0)
			return true, nil
		default:
			return false, nil // block until free
		}

	case SysUnlock:
		m := p.mutex(args[0])
		if m.holder != t.TID {
			return false, &SyscallError{Num: num, TID: t.TID, Err: fmt.Errorf("unlock of mutex %d held by %d", args[0], m.holder)}
		}
		m.recurse--
		if m.recurse == 0 {
			m.holder = 0
		}
		setRet(0)
		return true, nil

	case SysYield:
		return true, nil

	case SysTime:
		setRet(p.VCycles)
		return true, nil

	case SysRecv:
		if len(p.input) == 0 {
			if p.inClosed {
				setRet(^uint64(0)) // -1: EOF
				return true, nil
			}
			return false, nil // block for input
		}
		msg := p.input[0]
		p.input = p.input[1:]
		n := uint64(len(msg))
		if n > args[1] {
			n = args[1]
		}
		if err := p.AS.WriteBytes(args[0], msg[:n]); err != nil {
			return false, &SyscallError{Num: num, TID: t.TID, Err: err}
		}
		setRet(n)
		return true, nil

	case SysSend:
		buf := make([]byte, args[1])
		if err := p.AS.ReadBytes(args[0], buf); err != nil {
			return false, &SyscallError{Num: num, TID: t.TID, Err: err}
		}
		p.output.Write(buf)
		setRet(args[1])
		return true, nil

	case SysGettid:
		setRet(uint64(t.TID))
		return true, nil

	case SysNCores:
		setRet(uint64(k.Cores))
		return true, nil

	default:
		return false, &SyscallError{Num: num, TID: t.TID, Err: fmt.Errorf("unknown syscall")}
	}
}

func (p *Process) mutex(id uint64) *mutexState {
	m, ok := p.mutexes[id]
	if !ok {
		m = &mutexState{}
		p.mutexes[id] = m
	}
	return m
}

// HeldMutexes returns the ids of currently held mutexes in ascending
// order (the CRIU dumper records them in the inventory image).
func (p *Process) HeldMutexes() []uint64 {
	var out []uint64
	for id, m := range p.mutexes {
		if m.holder != 0 {
			out = append(out, id)
		}
	}
	sortU64(out)
	return out
}

// MutexState returns a mutex's holder tid and recursion depth.
func (p *Process) MutexState(id uint64) (holder, recurse int) {
	m := p.mutex(id)
	return m.holder, m.recurse
}

// RestoreMutex reinstates a held mutex (the CRIU restore path).
func (p *Process) RestoreMutex(id uint64, holder, recurse int) {
	m := p.mutex(id)
	m.holder = holder
	m.recurse = recurse
}

// MarkHeapMapped tells the process its heap VMA already exists (restore
// rebuilds VMAs directly).
func (p *Process) MarkHeapMapped() { p.heapMapped = true }

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
