// Package vm implements the interpreter that executes both simulated ISAs.
//
// A Machine executes architecture-independent semantic instructions
// (isa.Inst) produced by the per-architecture decoders. The ABI supplies
// the few genuinely architecture-dependent behaviours: where CALL puts the
// return address (stack vs link register) and which register is the stack
// pointer.
//
// The interpreter has a per-instruction budget (docs/perf.md, "Interpreter
// budget"): an instruction that hits executes with no hash-map access, no
// VMA search, no isa.Inst copy and no allocation. Code is predecoded, one
// compact slot per executed PC, into a table per code page (codePage)
// whose windows hold each slot's pointer; Run keeps the window it executes
// in, so a fetch is one load from PC to slot, and carries little else from
// one instruction to the next. Loads and stores go through the address
// space's software TLB. A table is valid for one frame at one write
// version — checked when a page is entered, and again after every store
// the running instruction makes — so process rewrites that swap or patch
// code pages (the DAPPER cross-ISA transform, the stack-shuffling SBI,
// self-modifying guests) take effect on the next fetch.
package vm

import (
	"fmt"
	"math"
	"slices"

	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
)

// StopKind says why Run returned.
type StopKind uint8

// Stop reasons.
const (
	// StopQuantum: the step budget was exhausted; the thread is still
	// runnable.
	StopQuantum StopKind = iota + 1
	// StopSyscall: a SYSCALL instruction executed. PC has been advanced
	// past it; the kernel performs the call and writes the result register.
	StopSyscall
	// StopTrap: a TRAP instruction was fetched. PC still points at it.
	StopTrap
)

// Stop describes why execution paused.
type Stop struct {
	Kind   StopKind
	Cycles uint64 // cycles consumed during this Run
}

// ExecError wraps a fault raised by an instruction.
type ExecError struct {
	PC   uint64
	Why  string
	Err  error
	Inst isa.Inst
}

func (e *ExecError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("vm: at 0x%x (%v): %v", e.PC, e.Inst, e.Err)
	}
	return fmt.Sprintf("vm: at 0x%x (%v): %s", e.PC, e.Inst, e.Why)
}

func (e *ExecError) Unwrap() error { return e.Err }

// slot is one predecoded instruction: isa.Inst packed into 16 bytes, with
// its cycle cost looked up once at decode time. Run reaches slots by
// pointer; the isa.Inst is rebuilt only to report a fault.
type slot struct {
	imm        int64
	op         isa.Op
	rd, rn, rm isa.Reg
	sh         uint8
	len        uint8
	cycles     uint8
}

func makeSlot(in isa.Inst) slot {
	return slot{
		imm: in.Imm, op: in.Op, rd: in.Rd, rn: in.Rn, rm: in.Rm, sh: in.Sh,
		len: uint8(in.Len), cycles: uint8(in.Cycles()),
	}
}

func (s *slot) inst() isa.Inst {
	return isa.Inst{Op: s.op, Rd: s.rd, Rn: s.rn, Rm: s.rm, Sh: s.sh, Imm: s.imm, Len: int(s.len)}
}

// codePage is the predecoded table of one code page. It is filled lazily,
// one slot per PC the guest actually executes: instruction starts on the
// variable-length ISA are only known by executing to them, and a guest
// runs a few hundred distinct instructions, not a page full.
type codePage struct {
	idx uint64 // page index the table belongs to
	// frame and version say what the slots were decoded from; epoch is the
	// address-space epoch at which idx was last seen to map to frame. The
	// table is current while all three still hold.
	frame   *mem.Page
	version uint64
	epoch   uint64
	// index maps a page offset to its slot, in two levels so that a page
	// costs memory in proportion to the code executed from it: the page is
	// cut into windows of windowSize bytes, and a window is allocated when
	// the first PC inside it is decoded. A nil entry is a PC not decoded
	// yet; a slot is allocated when its PC is.
	index pageIndex
}

// windowSize trades the memory of a sparsely executed page (a window costs
// 8 bytes per byte of code it covers) against how often Run has to step
// from one window to the next through the page's index. An entry is the
// slot's pointer, so a fetch inside the window is one load from PC to slot.
const windowSize = 64

type (
	window    [windowSize]*slot
	pageIndex [mem.PageSize / windowSize]*window
)

// noWindow is the window of no code: every lookup misses. Run points at it
// until its first fetch and after a store that may have changed code.
var noWindow window

// codeWays is how many code pages a Machine keeps tables for, direct-
// mapped by page index. Two pages sharing a way evict each other's table
// (it is rebuilt lazily), so this only has to cover a guest's hot text.
const codeWays = 32

// Machine interprets one address space with one ISA. It holds no thread
// state; register files are passed to Run, so a single Machine executes all
// threads of a process.
type Machine struct {
	ABI   *isa.ABI
	Coder isa.Coder
	AS    *mem.AddressSpace

	pages [codeWays]*codePage
	// cur is the page of the most recent fetch while Run may trust its
	// table, nil when it may not: Run clears it on entry and after a store
	// that may have changed code, and only fetchSlow sets it.
	cur *codePage
	// scratch holds an instruction that crosses into the next page; it is
	// decoded afresh each time, since no one frame's version covers it.
	scratch slot
	// straddleBuf avoids allocating for instructions that cross a page
	// boundary (possible only on the variable-length ISA).
	straddleBuf [16]byte
	// slowFetches counts fetches that left the predecoded table.
	slowFetches uint64
}

// New returns a Machine executing code of the coder's architecture from as.
func New(abi *isa.ABI, coder isa.Coder, as *mem.AddressSpace) *Machine {
	return &Machine{ABI: abi, Coder: coder, AS: as}
}

// DecodedPCs returns, sorted, every PC the machine holds a predecoded
// instruction for: the instruction starts the guest has executed from
// code pages still in its tables.
func (m *Machine) DecodedPCs() []uint64 {
	var out []uint64
	for _, cp := range m.pages {
		if cp == nil {
			continue
		}
		for n, w := range cp.index {
			if w == nil {
				continue
			}
			for off, s := range w {
				if s != nil {
					out = append(out, cp.idx*mem.PageSize+uint64(n*windowSize+off))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// fetchSlow is every fetch that is not a table hit: entering a page,
// revalidating one, decoding a PC for the first time, and the instruction
// that straddles two pages. It leaves m.cur at pc's page.
func (m *Machine) fetchSlow(pc uint64) (*slot, error) {
	m.slowFetches++
	idx, off := pc/mem.PageSize, pc%mem.PageSize
	cp := m.pages[idx%codeWays]
	if cp == nil || cp.idx != idx || cp.epoch != m.AS.Epoch() || cp.frame.Version != cp.version {
		frame, err := m.AS.CodePage(idx)
		if err != nil {
			return nil, err
		}
		if cp == nil {
			cp = new(codePage)
			m.pages[idx%codeWays] = cp
		}
		if cp.idx != idx || cp.frame != frame || cp.version != frame.Version {
			// Another page, another frame behind this one, or rewritten
			// bytes: nothing decoded so far can be trusted.
			cp.index = pageIndex{}
			cp.idx, cp.frame, cp.version = idx, frame, frame.Version
		}
		cp.epoch = m.AS.Epoch()
	}
	m.cur = cp
	w := cp.index[off/windowSize]
	if w == nil {
		w = new(window)
		cp.index[off/windowSize] = w
	} else if s := w[off%windowSize]; s != nil {
		return s, nil
	}
	var inst isa.Inst
	var err error
	if off > mem.PageSize-16 {
		// The instruction may straddle the page boundary.
		n := m.AS.ReadAvail(pc, m.straddleBuf[:])
		inst, err = m.Coder.Decode(m.straddleBuf[:n], pc)
	} else {
		inst, err = m.Coder.Decode(cp.frame.Data[off:], pc)
	}
	if err != nil {
		return nil, err
	}
	if off+uint64(inst.Len) > mem.PageSize {
		m.scratch = makeSlot(inst)
		return &m.scratch, nil
	}
	s := new(slot)
	*s = makeSlot(inst)
	w[off%windowSize] = s
	return s, nil
}

// codeStale reports whether the current code page may no longer be what
// its table was decoded from. Run asks after every store: the store may
// have patched the page, breaking its copy-on-write share first if it had
// one (either way its version moved).
func (m *Machine) codeStale() bool {
	cp := m.cur
	return cp.frame.Version != cp.version || cp.epoch != m.AS.Epoch()
}

// Run executes up to maxSteps instructions starting from r's PC, mutating r
// in place. It returns on syscalls, traps, quantum expiry, or a fault.
func (m *Machine) Run(r *isa.RegFile, maxSteps int) (Stop, error) {
	// Register numbers are masked, not bounds-checked: the file has
	// NumRegs slots and both decoders produce numbers below that.
	const rmask = isa.NumRegs - 1
	// Go's ABI has no callee-saved registers, so whatever the loop keeps
	// live across the cases that call ReadU64 or WriteU64 is spilled and
	// reloaded on every instruction. The loop keeps only the PC, the
	// cycles, the budget and the window execution is in (wbase, win):
	// straight-line code and branches inside the window look no further
	// than win. The ABI, the address space and the current page are read
	// from m where they are used, and faults leave through fault.
	m.cur = nil
	pc, cycles := r.PC, uint64(0)
	wbase, win := uint64(0), &noWindow
	for ; maxSteps > 0; maxSteps-- {
		var s *slot
		if off := pc - wbase; off < windowSize {
			s = win[off]
		}
		if s == nil {
			if cp := m.cur; cp != nil && pc/mem.PageSize == cp.idx {
				if w := cp.index[pc%mem.PageSize/windowSize]; w != nil {
					wbase, win = pc&^(windowSize-1), w
					s = w[pc%windowSize]
				}
			}
			if s == nil {
				var err error
				if s, err = m.fetchSlow(pc); err != nil {
					r.PC = pc
					return Stop{Cycles: cycles}, err
				}
				wbase, win = pc&^(windowSize-1), m.cur.index[pc%mem.PageSize/windowSize]
			}
		}
		if s.op == isa.OpTrap {
			r.PC = pc
			return Stop{Kind: StopTrap, Cycles: cycles}, nil
		}
		cycles += uint64(s.cycles)
		next := pc + uint64(s.len)
		switch s.op {
		case isa.OpNop:
		case isa.OpSyscall:
			r.PC = next
			return Stop{Kind: StopSyscall, Cycles: cycles}, nil
		case isa.OpMovImm:
			r.R[s.rd&rmask] = uint64(s.imm)
		case isa.OpMovZ:
			r.R[s.rd&rmask] = uint64(s.imm) << (16 * s.sh)
		case isa.OpMovK:
			mask := uint64(0xffff) << (16 * s.sh)
			r.R[s.rd&rmask] = r.R[s.rd&rmask]&^mask | uint64(s.imm)<<(16*s.sh)
		case isa.OpMov:
			r.R[s.rd&rmask] = r.R[s.rn&rmask]
		case isa.OpLoad:
			v, err := m.AS.ReadU64(r.R[s.rn&rmask] + uint64(s.imm))
			if err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			r.R[s.rd&rmask] = v
		case isa.OpStore:
			if err := m.AS.WriteU64(r.R[s.rn&rmask]+uint64(s.imm), r.R[s.rd&rmask]); err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			if m.codeStale() {
				m.cur, win = nil, &noWindow
			}
		case isa.OpLoadPair:
			addr := r.R[s.rn&rmask] + uint64(s.imm)
			v1, err := m.AS.ReadU64(addr)
			if err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			v2, err := m.AS.ReadU64(addr + 8)
			if err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			r.R[s.rd&rmask], r.R[s.rm&rmask] = v1, v2
		case isa.OpStorePair:
			addr := r.R[s.rn&rmask] + uint64(s.imm)
			if err := m.AS.WriteU64(addr, r.R[s.rd&rmask]); err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			if err := m.AS.WriteU64(addr+8, r.R[s.rm&rmask]); err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			if m.codeStale() {
				m.cur, win = nil, &noWindow
			}
		case isa.OpLea, isa.OpAddImm:
			r.R[s.rd&rmask] = r.R[s.rn&rmask] + uint64(s.imm)
		case isa.OpAdd:
			r.R[s.rd&rmask] = r.R[s.rn&rmask] + r.R[s.rm&rmask]
		case isa.OpSub:
			r.R[s.rd&rmask] = r.R[s.rn&rmask] - r.R[s.rm&rmask]
		case isa.OpMul:
			r.R[s.rd&rmask] = uint64(int64(r.R[s.rn&rmask]) * int64(r.R[s.rm&rmask]))
		case isa.OpDiv:
			if r.R[s.rm&rmask] == 0 {
				return fault(r, pc, cycles, s, nil, "integer divide by zero")
			}
			r.R[s.rd&rmask] = uint64(int64(r.R[s.rn&rmask]) / int64(r.R[s.rm&rmask]))
		case isa.OpMod:
			if r.R[s.rm&rmask] == 0 {
				return fault(r, pc, cycles, s, nil, "integer modulo by zero")
			}
			r.R[s.rd&rmask] = uint64(int64(r.R[s.rn&rmask]) % int64(r.R[s.rm&rmask]))
		case isa.OpAnd:
			r.R[s.rd&rmask] = r.R[s.rn&rmask] & r.R[s.rm&rmask]
		case isa.OpOr:
			r.R[s.rd&rmask] = r.R[s.rn&rmask] | r.R[s.rm&rmask]
		case isa.OpXor:
			r.R[s.rd&rmask] = r.R[s.rn&rmask] ^ r.R[s.rm&rmask]
		case isa.OpShl:
			r.R[s.rd&rmask] = r.R[s.rn&rmask] << (r.R[s.rm&rmask] & 63)
		case isa.OpShr:
			r.R[s.rd&rmask] = r.R[s.rn&rmask] >> (r.R[s.rm&rmask] & 63)
		case isa.OpFAdd:
			r.R[s.rd&rmask] = f2b(b2f(r.R[s.rn&rmask]) + b2f(r.R[s.rm&rmask]))
		case isa.OpFSub:
			r.R[s.rd&rmask] = f2b(b2f(r.R[s.rn&rmask]) - b2f(r.R[s.rm&rmask]))
		case isa.OpFMul:
			r.R[s.rd&rmask] = f2b(b2f(r.R[s.rn&rmask]) * b2f(r.R[s.rm&rmask]))
		case isa.OpFDiv:
			r.R[s.rd&rmask] = f2b(b2f(r.R[s.rn&rmask]) / b2f(r.R[s.rm&rmask]))
		case isa.OpItoF:
			r.R[s.rd&rmask] = f2b(float64(int64(r.R[s.rn&rmask])))
		case isa.OpFtoI:
			r.R[s.rd&rmask] = uint64(int64(b2f(r.R[s.rn&rmask])))
		case isa.OpCmpEq:
			r.R[s.rd&rmask] = btoi(r.R[s.rn&rmask] == r.R[s.rm&rmask])
		case isa.OpCmpNe:
			r.R[s.rd&rmask] = btoi(r.R[s.rn&rmask] != r.R[s.rm&rmask])
		case isa.OpCmpLt:
			r.R[s.rd&rmask] = btoi(int64(r.R[s.rn&rmask]) < int64(r.R[s.rm&rmask]))
		case isa.OpCmpLe:
			r.R[s.rd&rmask] = btoi(int64(r.R[s.rn&rmask]) <= int64(r.R[s.rm&rmask]))
		case isa.OpCmpGt:
			r.R[s.rd&rmask] = btoi(int64(r.R[s.rn&rmask]) > int64(r.R[s.rm&rmask]))
		case isa.OpCmpGe:
			r.R[s.rd&rmask] = btoi(int64(r.R[s.rn&rmask]) >= int64(r.R[s.rm&rmask]))
		case isa.OpFCmpEq:
			r.R[s.rd&rmask] = btoi(b2f(r.R[s.rn&rmask]) == b2f(r.R[s.rm&rmask]))
		case isa.OpFCmpLt:
			r.R[s.rd&rmask] = btoi(b2f(r.R[s.rn&rmask]) < b2f(r.R[s.rm&rmask]))
		case isa.OpFCmpLe:
			r.R[s.rd&rmask] = btoi(b2f(r.R[s.rn&rmask]) <= b2f(r.R[s.rm&rmask]))
		case isa.OpPush:
			// SP moves only once the store lands, so a fault leaves it
			// as it was; a push of SP itself stores the moved SP.
			sp := m.ABI.SP & rmask
			top, v := r.R[sp]-8, r.R[s.rd&rmask]
			if s.rd&rmask == sp {
				v = top
			}
			if err := m.AS.WriteU64(top, v); err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			r.R[sp] = top
			if m.codeStale() {
				m.cur, win = nil, &noWindow
			}
		case isa.OpPop:
			sp := m.ABI.SP & rmask
			v, err := m.AS.ReadU64(r.R[sp])
			if err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			r.R[s.rd&rmask] = v
			r.R[sp] += 8
		case isa.OpCall:
			if m.ABI.RetAddrOnStack {
				sp := m.ABI.SP & rmask
				if err := m.AS.WriteU64(r.R[sp]-8, next); err != nil {
					return fault(r, pc, cycles, s, err, "")
				}
				r.R[sp] -= 8
				if m.codeStale() {
					m.cur, win = nil, &noWindow
				}
			} else {
				r.R[m.ABI.LR&rmask] = next
			}
			pc = uint64(s.imm)
			continue
		case isa.OpRet:
			if m.ABI.RetAddrOnStack {
				sp := m.ABI.SP & rmask
				v, err := m.AS.ReadU64(r.R[sp])
				if err != nil {
					return fault(r, pc, cycles, s, err, "")
				}
				r.R[sp] += 8
				pc = v
			} else {
				pc = r.R[m.ABI.LR&rmask]
			}
			continue
		case isa.OpJmp:
			pc = uint64(s.imm)
			continue
		case isa.OpJz:
			if r.R[s.rd&rmask] == 0 {
				pc = uint64(s.imm)
				continue
			}
		case isa.OpJnz:
			if r.R[s.rd&rmask] != 0 {
				pc = uint64(s.imm)
				continue
			}
		case isa.OpTlsLoad:
			v, err := m.AS.ReadU64(r.TLS + uint64(s.imm))
			if err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			r.R[s.rd&rmask] = v
		case isa.OpTlsStore:
			if err := m.AS.WriteU64(r.TLS+uint64(s.imm), r.R[s.rd&rmask]); err != nil {
				return fault(r, pc, cycles, s, err, "")
			}
			if m.codeStale() {
				m.cur, win = nil, &noWindow
			}
		case isa.OpMrs:
			r.R[s.rd&rmask] = r.TLS
		case isa.OpMsr:
			r.TLS = r.R[s.rd&rmask]
		default:
			return fault(r, pc, cycles, s, nil, "unimplemented operation")
		}
		pc = next
	}
	r.PC = pc
	return Stop{Kind: StopQuantum, Cycles: cycles}, nil
}

// fault ends Run at the instruction s at pc, which raised err or, when err
// is nil, the interpreter's own fault why. It rebuilds the isa.Inst for
// the ExecError: the only place one exists.
func fault(r *isa.RegFile, pc, cycles uint64, s *slot, err error, why string) (Stop, error) {
	r.PC = pc
	return Stop{Cycles: cycles}, &ExecError{PC: pc, Inst: s.inst(), Err: err, Why: why}
}

func b2f(b uint64) float64 { return math.Float64frombits(b) }
func f2b(f float64) uint64 { return math.Float64bits(f) }

func btoi(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
