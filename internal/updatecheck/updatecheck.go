// Package updatecheck statically verifies compiled DapC binaries and
// their stack-map metadata for live update: it is the binary-level
// counterpart of the source-level analyzers in internal/analysis and the
// image-level checks in internal/imgcheck, and the static half of the
// version-migration mode (ROADMAP item 4).
//
// It runs three passes, each reporting violations that name the exact
// invariant they checked:
//
//   - Soundness (VerifyBinary): one binary's metadata against its own
//     machine code — every equivalence-point site reachable and decoding
//     to the instruction it claims, live-value locations consistent with
//     the instructions that read and write the frame, pointer flags in
//     agreement between slots and live values, and every loop able to
//     reach an equivalence-point crossing (quiescence: a function that
//     can spin without crossing a site would stall a live update
//     forever).
//   - Cross-version diff (Diff): classify every function of an old
//     binary against its patched successor as safe (bit-identical state
//     contract), mappable (slots renumbered or relocated but bijectively
//     mappable; a machine-readable slot-mapping table is emitted for an
//     OSR-style executor), or blocking (arity, live-set, or
//     global-layout change in a frame that may be live).
//   - Image consistency (CheckImage): a checkpoint's thread PCs and
//     stack return addresses must resolve to known sites of the *target*
//     binary, so restore/migrate/clone pre-flights catch version skew
//     before any state is rebuilt.
//
// The passes are pure functions of binary content: no process, kernel,
// or policy state is consulted, so the same verdicts are produced by
// cmd/dapper-updatecheck offline and by the pre-flights wired into
// criu.Restore, cluster.Migrate, core.LiveUpdatePolicy, and
// fleet program registration.
package updatecheck

import (
	"fmt"
	"strings"

	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// Named invariants. Every violation is prefixed with one of these so a
// failing caller (and its tests) can identify exactly which property
// broke.
const (
	// Soundness (pass 1).
	InvTextRange    = "text-range"     // function range outside the text section
	InvTextDecode   = "text-decode"    // function body fails to decode
	InvSiteRange    = "site-range"     // site PC outside its function's range
	InvTrapOp       = "trap-op"        // entry TrapPC does not decode to a TRAP instruction
	InvEntryChecker = "entry-checker"  // function entry missing the equivalence-point checker pattern
	InvEntryLive    = "entry-live"     // entry live set inconsistent with the declared parameters
	InvRetSite      = "ret-site"       // call-site return address not immediately after a CALL
	InvBranchRange  = "branch-range"   // branch target outside the function or off an instruction boundary
	InvCallTarget   = "call-target"    // CALL target is not a known function entry
	InvSiteReach    = "site-reachable" // equivalence-point site unreachable from function entry
	InvSlotRange    = "slot-range"     // slot outside the frame's locals area, or overlapping a sibling
	InvSlotAccess   = "slot-access"    // live-value location disagrees with the frame accesses in the code
	InvPtrAgree     = "ptr-agree"      // live-value pointer flag disagrees with its slot
	InvQuiescence   = "quiescence"     // a reachable cycle that can spin without crossing a site

	// Cross-version diff (pass 2).
	InvFuncRemoved   = "func-removed"   // update removes a function
	InvFuncArity     = "func-arity"     // update changes a function's arity
	InvSiteStructure = "site-structure" // update changes the call-site structure
	InvLiveSet       = "live-set"       // live sets not bijectively mappable
	InvSlotShape     = "slot-shape"     // slot sets not bijectively mappable (size/ptr/kind drift)
	InvGlobalMoved   = "global-moved"   // update moves a global
	InvGlobalRemoved = "global-removed" // update removes a global

	// Image consistency (pass 3).
	InvImageArch  = "image-arch"  // image and target binary disagree on architecture
	InvImagePC    = "image-pc"    // thread PC resolves to no site/boundary of the target binary
	InvImageStack = "image-stack" // stack return address resolves to no site of the target binary
)

// Violation is one broken invariant.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) Error() string {
	return fmt.Sprintf("updatecheck: %s: %s", v.Invariant, v.Detail)
}

// Report accumulates violations across checks. Violations are appended
// in binary position order (functions by address, sites by id), so the
// diagnostics are position-sorted and deterministic.
type Report struct {
	Violations []Violation
}

func (r *Report) add(inv, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// Err returns nil for a clean report, the single Violation when there is
// exactly one, and an aggregate error naming every invariant otherwise.
func (r *Report) Err() error {
	switch len(r.Violations) {
	case 0:
		return nil
	case 1:
		return r.Violations[0]
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.Error()
	}
	return fmt.Errorf("%d update invariants violated: %s", len(r.Violations), strings.Join(msgs, "; "))
}

// Binary is the compiled binary the checker consumes: the compiler's own
// type, declared in stackmap so that this package — used from core, criu,
// imgcheck and fleet — takes what they hold without importing the
// compiler. The passes read Arch, Text, Symbols and Meta.
type Binary = stackmap.Binary

// funcCode is one function's linearly decoded body: the aligned layout
// pads every function with NOPs, so a linear sweep from the entry covers
// exactly the function's byte range.
type funcCode struct {
	f     *stackmap.Func
	insts []isa.Inst
	pcs   []uint64
	// idx maps an instruction's PC to its index in insts.
	idx map[uint64]int
}

// decodeFunc linearly decodes one function's byte range. A decode error
// is reported as InvTextDecode and a nil funcCode returned.
func decodeFunc(b *Binary, f *stackmap.Func, r *Report) *funcCode {
	if f.Size == 0 || f.Addr < isa.TextBase || f.Addr+f.Size-isa.TextBase > uint64(len(b.Text)) {
		r.add(InvTextRange, "func %s [0x%x,0x%x) outside the text section (%d bytes)",
			f.Name, f.Addr, f.Addr+f.Size, len(b.Text))
		return nil
	}
	hi := f.Addr + f.Size - isa.TextBase
	coder := stackmap.CoderFor(b.Arch)
	fc := &funcCode{f: f, idx: make(map[uint64]int)}
	for pc := f.Addr; pc < f.Addr+f.Size; {
		in, err := coder.Decode(b.Text[pc-isa.TextBase:hi], pc)
		if err != nil {
			r.add(InvTextDecode, "func %s: decode at 0x%x (%v): %v", f.Name, pc, b.Arch, err)
			return nil
		}
		fc.idx[pc] = len(fc.insts)
		fc.insts = append(fc.insts, in)
		fc.pcs = append(fc.pcs, pc)
		pc += uint64(in.Len)
	}
	return fc
}

// boundary reports whether pc is an instruction boundary of the function.
func (fc *funcCode) boundary(pc uint64) bool {
	_, ok := fc.idx[pc]
	return ok
}

// at returns the instruction at pc, or nil if pc is not a boundary.
func (fc *funcCode) at(pc uint64) *isa.Inst {
	if i, ok := fc.idx[pc]; ok {
		return &fc.insts[i]
	}
	return nil
}

// progress reports whether an instruction crosses (or leads to) an
// equivalence point: a CALL re-enters a callee's entry checker, a
// syscall parks in a blocking wrapper the monitor can roll back, a TRAP
// is the equivalence point itself, and a RET returns into a caller that
// is itself covered by this property.
func progress(op isa.Op) bool {
	switch op {
	case isa.OpCall, isa.OpSyscall, isa.OpTrap, isa.OpRet:
		return true
	}
	return false
}

// succs appends the intra-function successor indices of instruction i.
// Branch targets outside the function or off an instruction boundary
// were reported by checkBranches and are skipped here.
func (fc *funcCode) succs(i int, dst []int) []int {
	in := fc.insts[i]
	next := i + 1
	switch in.Op {
	case isa.OpRet:
		return dst
	case isa.OpJmp:
		if j, ok := fc.idx[uint64(in.Imm)]; ok {
			dst = append(dst, j)
		}
		return dst
	case isa.OpJz, isa.OpJnz:
		if j, ok := fc.idx[uint64(in.Imm)]; ok {
			dst = append(dst, j)
		}
	}
	if next < len(fc.insts) {
		dst = append(dst, next)
	}
	return dst
}

// reachable computes the set of instruction indices reachable from the
// function's first instruction.
func (fc *funcCode) reachable() []bool {
	seen := make([]bool, len(fc.insts))
	if len(fc.insts) == 0 {
		return seen
	}
	stack := []int{0}
	seen[0] = true
	var buf []int
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = fc.succs(i, buf[:0])
		for _, j := range buf {
			if !seen[j] {
				seen[j] = true
				stack = append(stack, j)
			}
		}
	}
	return seen
}

// reachesProgress computes, for every instruction, whether some
// progress instruction (see progress) is reachable from it — the
// quiescence property: from anywhere in the function, execution can
// reach a site crossing or the function's exit within a bounded number
// of instructions.
func (fc *funcCode) reachesProgress() []bool {
	// Reverse reachability from the progress set.
	preds := make([][]int, len(fc.insts))
	var buf []int
	for i := range fc.insts {
		buf = fc.succs(i, buf[:0])
		for _, j := range buf {
			preds[j] = append(preds[j], i)
		}
	}
	ok := make([]bool, len(fc.insts))
	var stack []int
	for i, in := range fc.insts {
		if progress(in.Op) {
			ok[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[i] {
			if !ok[p] {
				ok[p] = true
				stack = append(stack, p)
			}
		}
	}
	return ok
}
