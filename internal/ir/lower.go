package ir

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/lang"
)

// Lower compiles a checked DapC file into an IR program, appending the
// runtime wrapper functions and computing call-site liveness. Its first
// error ends the lowering (fail).
func Lower(file *lang.File, info *lang.Info) (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(lowerError)
			if !ok {
				panic(r)
			}
			prog, err = nil, e.err
		}
	}()
	// The data section [isa.DataBase, isa.HeapBase) holds the flag word,
	// then the globals, then the pooled strings, each a whole number of
	// words; room counts the words left, so no size is formed that does
	// not fit.
	room := int64(isa.HeapBase-isa.DataBase)/8 - 1
	take := func(words int64) {
		if words > room {
			fail("dapc: globals and string literals do not fit the %d-byte data section", isa.HeapBase-isa.DataBase)
		}
		room -= words
	}
	prog = &Program{}
	for _, g := range file.Globals {
		words := int64(1)
		if g.ArrayLen >= 0 {
			words = g.ArrayLen
		}
		take(words)
		prog.Globals = append(prog.Globals, GlobalDef{Name: g.Name, Size: 8 * words, Ptr: g.Type.IsPtr() && g.ArrayLen < 0})
	}
	lw := &lowerer{prog: prog, info: info, strs: make(map[string]string)}
	for _, fn := range file.Funcs {
		prog.Funcs = append(prog.Funcs, lw.lowerFunc(fn))
	}
	for _, s := range prog.Strings {
		take((int64(len(s.Data)) + 7) / 8)
	}
	addRuntime(prog)
	for _, f := range prog.Funcs {
		ComputeLiveness(f)
	}
	return prog, nil
}

// lowerError carries the lowerer's first error to Lower, which returns it.
type lowerError struct{ err error }

// fail refuses the program: it panics with a lowerError, which Lower
// recovers, so the lowerer need not pass errors up.
func fail(format string, args ...any) {
	panic(lowerError{fmt.Errorf(format, args...)})
}

// builtinWrapper maps DapC builtins to runtime wrapper functions.
var builtinWrapper = map[string]string{
	"printi": "__printi", "printf": "__printf", "alloc": "__alloc",
	"allocf": "__alloc", "join": "__join", "lock": "__lock",
	"unlock": "__unlock", "yield": "__yield", "time": "__time",
	"tid": "__gettid", "ncores": "__ncores", "recv": "__recv",
	"send": "__send", "exit": "__exit",
}

type loopCtx struct {
	breakBlk int
	contBlk  int
}

type lowerer struct {
	prog *Program
	info *lang.Info
	strs map[string]string // literal text -> symbol

	f   *Func
	cur int
	// stack is the live evaluation stack: stack[i] is the vreg at depth i.
	stack []VReg
	// stackPtr tracks pointer-ness of each stack entry.
	stackPtr []bool
	// vregPtr tracks pointer-ness per vreg.
	vregPtr []bool
	// temp slot pools, keyed by pointer-ness, reset per statement.
	tempFree map[bool][]int
	tempUsed map[bool][]int

	loops []loopCtx
	room  int64 // words of a thread's stack left for the current frame
}

// reserve takes words of the current frame for the slot named name,
// refusing a frame that outgrows a thread's stack. Like Lower's data
// section count, it forms no size that does not fit.
func (lw *lowerer) reserve(name string, words int64) {
	if words > lw.room {
		fail("dapc: local %q of %s does not fit the %d-byte stack", name, lw.f.Name, isa.StackSize)
	}
	lw.room -= words
}

func (lw *lowerer) emit(in Instr) {
	b := lw.f.Blocks[lw.cur]
	b.Instrs = append(b.Instrs, in)
}

func (lw *lowerer) newVReg(depth int, ptr bool) VReg {
	v := lw.f.NewVReg(depth)
	lw.vregPtr = append(lw.vregPtr, ptr)
	return v
}

func (lw *lowerer) setBlock(b int) { lw.cur = b }

// newTemp returns a temp slot of the given pointer-ness, reusing freed
// ones (temps never carry values across statements).
func (lw *lowerer) newTemp(ptr bool) int {
	if free := lw.tempFree[ptr]; len(free) > 0 {
		id := free[len(free)-1]
		lw.tempFree[ptr] = free[:len(free)-1]
		lw.tempUsed[ptr] = append(lw.tempUsed[ptr], id)
		return id
	}
	id := len(lw.f.Slots)
	name := fmt.Sprintf("$t%d", id)
	lw.reserve(name, 1)
	lw.f.Slots = append(lw.f.Slots, SlotDef{
		ID: id, Name: name, Kind: SlotTemp, Size: 8, Ptr: ptr,
	})
	lw.tempUsed[ptr] = append(lw.tempUsed[ptr], id)
	return id
}

// resetTemps recycles all temp slots at a statement boundary.
func (lw *lowerer) resetTemps() {
	for _, ptr := range []bool{false, true} {
		lw.tempFree[ptr] = append(lw.tempFree[ptr], lw.tempUsed[ptr]...)
		lw.tempUsed[ptr] = nil
	}
}

// spillAll stores every live evaluation-stack entry to a temp slot and
// returns the slots (parallel to the stack). Used around calls and around
// branchy value constructs so no vreg is live across them.
func (lw *lowerer) spillAll() []int {
	slots := make([]int, len(lw.stack))
	for i, v := range lw.stack {
		t := lw.newTemp(lw.stackPtr[i])
		lw.emit(Instr{Op: OpStoreSlot, Slot: t, A: v})
		slots[i] = t
	}
	return slots
}

// reloadAll re-materializes spilled stack entries into fresh vregs at
// their original depths.
func (lw *lowerer) reloadAll(slots []int) {
	for i, t := range slots {
		v := lw.newVReg(i, lw.stackPtr[i])
		lw.emit(Instr{Op: OpLoadSlot, Dst: v, Slot: t})
		lw.stack[i] = v
	}
}

func (lw *lowerer) push(v VReg, ptr bool) {
	lw.stack = append(lw.stack, v)
	lw.stackPtr = append(lw.stackPtr, ptr)
}

func (lw *lowerer) pop() VReg {
	v := lw.stack[len(lw.stack)-1]
	lw.stack = lw.stack[:len(lw.stack)-1]
	lw.stackPtr = lw.stackPtr[:len(lw.stackPtr)-1]
	return v
}

func (lw *lowerer) lowerFunc(fn *lang.FuncDecl) *Func {
	f := &Func{
		Name:      fn.Name,
		NumParams: len(fn.Params),
		HasRet:    fn.Ret.Kind != lang.TypeVoid,
		RetPtr:    fn.Ret.IsPtr(),
	}
	for _, p := range fn.Params {
		f.ParamPtr = append(f.ParamPtr, p.Type.IsPtr())
	}
	// Slots: params first, then locals, in checker order; temps appended
	// during lowering. The frame holds them and the saved frame pointer
	// and return address, two words.
	lw.f, lw.room = f, int64(isa.StackSize)/8-2
	for _, lo := range lw.info.FuncLocals[fn] {
		kind, words := SlotLocal, int64(1)
		if lo.IsParam {
			kind = SlotParam
		}
		if lo.IsArray {
			kind, words = SlotArray, lo.ArrayLen
		}
		lw.reserve(lo.Name, words)
		f.Slots = append(f.Slots, SlotDef{
			ID: lo.SlotID, Name: lo.Name, Kind: kind, Size: 8 * words,
			Ptr: !lo.IsArray && lo.Type.IsPtr(), ArrayLen: lo.ArrayLen,
		})
	}
	f.EntrySiteID = lw.prog.NewSite()
	lw.cur = f.NewBlock()
	lw.stack, lw.stackPtr, lw.vregPtr = nil, nil, nil
	lw.tempFree = map[bool][]int{}
	lw.tempUsed = map[bool][]int{}
	lw.loops = nil
	lw.lowerBlock(fn.Body)
	if !f.Blocks[lw.cur].Terminated() {
		if f.HasRet {
			v := lw.newVReg(0, false)
			lw.emit(Instr{Op: OpConstInt, Dst: v, Imm: 0})
			lw.emit(Instr{Op: OpRet, A: v})
		} else {
			lw.emit(Instr{Op: OpRet, A: NoVReg})
		}
	}
	return f
}

func (lw *lowerer) lowerBlock(b *lang.Block) {
	for _, s := range b.Stmts {
		lw.lowerStmt(s)
	}
}

func (lw *lowerer) lowerStmt(s lang.Stmt) {
	defer lw.resetTemps()
	switch s := s.(type) {
	case *lang.VarDecl:
		obj := lw.info.LocalOf[s]
		if s.Init == nil {
			// Scalar locals are zero-initialized (DapC follows Go here);
			// this also keeps behaviour bit-identical across ISAs, which
			// the migration invariant tests rely on. Arrays are not
			// initialized (C semantics) for cost reasons.
			if s.ArrayLen < 0 {
				z := lw.newVReg(0, false)
				lw.emit(Instr{Op: OpConstInt, Dst: z, Imm: 0})
				lw.emit(Instr{Op: OpStoreSlot, Slot: obj.SlotID, A: z})
			}
			return
		}
		lw.emit(Instr{Op: OpStoreSlot, Slot: obj.SlotID, A: lw.gen(s.Init, 0)})
	case *lang.Assign:
		lw.lowerAssign(s)
	case *lang.If:
		thenB := lw.f.NewBlock()
		doneB := lw.f.NewBlock()
		elseB := doneB
		if s.Else != nil {
			elseB = lw.f.NewBlock()
		}
		lw.genCond(s.Cond, thenB, elseB)
		lw.setBlock(thenB)
		lw.lowerBlock(s.Then)
		if !lw.f.Blocks[lw.cur].Terminated() {
			lw.emit(Instr{Op: OpJmp, T1: doneB})
		}
		if s.Else != nil {
			lw.setBlock(elseB)
			lw.lowerBlock(s.Else)
			if !lw.f.Blocks[lw.cur].Terminated() {
				lw.emit(Instr{Op: OpJmp, T1: doneB})
			}
		}
		lw.setBlock(doneB)
	case *lang.While:
		condB := lw.f.NewBlock()
		bodyB := lw.f.NewBlock()
		doneB := lw.f.NewBlock()
		lw.emit(Instr{Op: OpJmp, T1: condB})
		lw.setBlock(condB)
		lw.genCond(s.Cond, bodyB, doneB)
		lw.loops = append(lw.loops, loopCtx{breakBlk: doneB, contBlk: condB})
		lw.setBlock(bodyB)
		lw.lowerBlock(s.Body)
		lw.loops = lw.loops[:len(lw.loops)-1]
		if !lw.f.Blocks[lw.cur].Terminated() {
			lw.emit(Instr{Op: OpJmp, T1: condB})
		}
		lw.setBlock(doneB)
	case *lang.For:
		if s.Init != nil {
			lw.lowerStmt(s.Init)
		}
		condB := lw.f.NewBlock()
		bodyB := lw.f.NewBlock()
		postB := lw.f.NewBlock()
		doneB := lw.f.NewBlock()
		lw.emit(Instr{Op: OpJmp, T1: condB})
		lw.setBlock(condB)
		if s.Cond != nil {
			lw.genCond(s.Cond, bodyB, doneB)
		} else {
			lw.emit(Instr{Op: OpJmp, T1: bodyB})
		}
		lw.loops = append(lw.loops, loopCtx{breakBlk: doneB, contBlk: postB})
		lw.setBlock(bodyB)
		lw.lowerBlock(s.Body)
		lw.loops = lw.loops[:len(lw.loops)-1]
		if !lw.f.Blocks[lw.cur].Terminated() {
			lw.emit(Instr{Op: OpJmp, T1: postB})
		}
		lw.setBlock(postB)
		if s.Post != nil {
			lw.lowerStmt(s.Post)
		}
		lw.emit(Instr{Op: OpJmp, T1: condB})
		lw.setBlock(doneB)
	case *lang.Return:
		if s.Val == nil {
			lw.emit(Instr{Op: OpRet, A: NoVReg})
		} else {
			lw.emit(Instr{Op: OpRet, A: lw.gen(s.Val, 0)})
		}
		// Continue lowering into a fresh (unreachable) block so trailing
		// statements don't corrupt the terminated one.
		lw.setBlock(lw.f.NewBlock())
	case *lang.Break:
		if len(lw.loops) == 0 {
			fail("dapc: break outside loop")
		}
		lw.emit(Instr{Op: OpJmp, T1: lw.loops[len(lw.loops)-1].breakBlk})
		lw.setBlock(lw.f.NewBlock())
	case *lang.Continue:
		if len(lw.loops) == 0 {
			fail("dapc: continue outside loop")
		}
		lw.emit(Instr{Op: OpJmp, T1: lw.loops[len(lw.loops)-1].contBlk})
		lw.setBlock(lw.f.NewBlock())
	case *lang.ExprStmt:
		lw.genAllowVoid(s.X, 0)
	case *lang.Block:
		lw.lowerBlock(s)
	default:
		fail("dapc: cannot lower %T", s)
	}
}

func (lw *lowerer) lowerAssign(s *lang.Assign) {
	switch lhs := s.LHS.(type) {
	case *lang.Ident:
		switch obj := lw.info.Uses[lhs].(type) {
		case *lang.LocalObj:
			lw.emit(Instr{Op: OpStoreSlot, Slot: obj.SlotID, A: lw.gen(s.RHS, 0)})
		case *lang.GlobalObj:
			addr := lw.newVReg(0, true)
			lw.emit(Instr{Op: OpGlobalAddr, Dst: addr, Sym: obj.Name})
			lw.store(addr, s.RHS)
		default:
			fail("dapc: bad assignment target %q", lhs.Name)
		}
	default:
		lw.store(lw.genAddr(s.LHS, 0), s.RHS)
	}
}

// store evaluates rhs above addr, at depth 1, and stores it there.
func (lw *lowerer) store(addr VReg, rhs lang.Expr) {
	lw.push(addr, true)
	v := lw.gen(rhs, 1)
	addr = lw.pop()
	lw.emit(Instr{Op: OpStore, A: addr, B: v})
}

// genCond lowers a boolean context with short-circuiting, branching to
// tBlk or fBlk.
func (lw *lowerer) genCond(e lang.Expr, tBlk, fBlk int) {
	switch ex := e.(type) {
	case *lang.Binary:
		switch ex.Op {
		case "&&":
			mid := lw.f.NewBlock()
			lw.genCond(ex.L, mid, fBlk)
			lw.setBlock(mid)
			lw.genCond(ex.R, tBlk, fBlk)
			return
		case "||":
			mid := lw.f.NewBlock()
			lw.genCond(ex.L, tBlk, mid)
			lw.setBlock(mid)
			lw.genCond(ex.R, tBlk, fBlk)
			return
		}
	case *lang.Unary:
		if ex.Op == "!" {
			lw.genCond(ex.X, fBlk, tBlk)
			return
		}
	}
	lw.emit(Instr{Op: OpBr, A: lw.gen(e, 0), T1: tBlk, T2: fBlk})
}

var intBinOps = map[string]Op{
	"+": OpIAdd, "-": OpISub, "*": OpIMul, "/": OpIDiv, "%": OpIMod,
	"&": OpIAnd, "|": OpIOr, "^": OpIXor, "<<": OpIShl, ">>": OpIShr,
	"==": OpICmpEq, "!=": OpICmpNe, "<": OpICmpLt, "<=": OpICmpLe,
	">": OpICmpGt, ">=": OpICmpGe,
}

var floatBinOps = map[string]Op{
	"+": OpFAdd, "-": OpFSub, "*": OpFMul, "/": OpFDiv,
	"==": OpFCmpEq, "<": OpFCmpLt, "<=": OpFCmpLe,
}

func (lw *lowerer) genAllowVoid(e lang.Expr, d int) VReg {
	if call, ok := e.(*lang.Call); ok {
		return lw.genCall(call, d)
	}
	return lw.gen(e, d)
}

// gen evaluates e into a vreg at depth d (0 <= d <= MaxDepth+1).
func (lw *lowerer) gen(e lang.Expr, d int) VReg {
	isPtr := false
	if t, ok := lw.info.Types[e]; ok && t != nil {
		isPtr = t.IsPtr()
	}
	switch ex := e.(type) {
	case *lang.IntLit:
		v := lw.newVReg(d, false)
		lw.emit(Instr{Op: OpConstInt, Dst: v, Imm: ex.Val})
		return v
	case *lang.FloatLit:
		v := lw.newVReg(d, false)
		lw.emit(Instr{Op: OpConstFloat, Dst: v, F: ex.Val})
		return v
	case *lang.Ident:
		switch obj := lw.info.Uses[ex].(type) {
		case *lang.LocalObj:
			v := lw.newVReg(d, isPtr)
			if obj.IsArray {
				lw.emit(Instr{Op: OpSlotAddr, Dst: v, Slot: obj.SlotID})
			} else {
				lw.emit(Instr{Op: OpLoadSlot, Dst: v, Slot: obj.SlotID})
			}
			return v
		case *lang.GlobalObj:
			v := lw.newVReg(d, isPtr)
			if obj.IsArray {
				lw.emit(Instr{Op: OpGlobalAddr, Dst: v, Sym: obj.Name})
			} else {
				a := lw.newVReg(d, true)
				lw.emit(Instr{Op: OpGlobalAddr, Dst: a, Sym: obj.Name})
				lw.emit(Instr{Op: OpLoad, Dst: v, A: a})
			}
			return v
		}
		fail("dapc: cannot evaluate %q", ex.Name)
	case *lang.Index:
		addr := lw.genAddr(ex, d)
		v := lw.newVReg(d, isPtr)
		lw.emit(Instr{Op: OpLoad, Dst: v, A: addr})
		return v
	case *lang.Unary:
		switch ex.Op {
		case "-":
			// Evaluate x first, then a zero constant (constants cannot
			// contain calls, so no spill is needed): v = 0 - x.
			t := lw.info.Types[ex.X]
			x := lw.gen(ex.X, d)
			zero := lw.newVReg(d+1, false)
			op := OpISub
			if t.Kind == lang.TypeFloat {
				lw.emit(Instr{Op: OpConstFloat, Dst: zero, F: 0})
				op = OpFSub
			} else {
				lw.emit(Instr{Op: OpConstInt, Dst: zero, Imm: 0})
			}
			v := lw.newVReg(d, false)
			lw.emit(Instr{Op: op, Dst: v, A: zero, B: x})
			return v
		case "!":
			x := lw.gen(ex.X, d)
			z := lw.newVReg(d+1, false)
			lw.emit(Instr{Op: OpConstInt, Dst: z, Imm: 0})
			v := lw.newVReg(d, false)
			lw.emit(Instr{Op: OpICmpEq, Dst: v, A: x, B: z})
			return v
		case "&":
			return lw.genAddr(ex.X, d)
		case "*":
			a := lw.gen(ex.X, d)
			v := lw.newVReg(d, isPtr)
			lw.emit(Instr{Op: OpLoad, Dst: v, A: a})
			return v
		}
		fail("dapc: unary %q", ex.Op)
	case *lang.Binary:
		if ex.Op == "&&" || ex.Op == "||" {
			return lw.genLogicalValue(ex, d)
		}
		return lw.genBinary(ex, d)
	case *lang.Cast:
		x := lw.gen(ex.X, d)
		from := lw.info.Types[ex.X]
		if from.Equal(ex.To) {
			return x
		}
		v := lw.newVReg(d, false)
		if ex.To.Kind == lang.TypeFloat {
			lw.emit(Instr{Op: OpItoF, Dst: v, A: x})
		} else {
			lw.emit(Instr{Op: OpFtoI, Dst: v, A: x})
		}
		return v
	case *lang.Call:
		v := lw.genCall(ex, d)
		if v == NoVReg {
			fail("dapc: void call %q used as value", ex.Name)
		}
		return v
	}
	fail("dapc: cannot lower expression %T", e)
	return NoVReg
}

func (lw *lowerer) genBinary(ex *lang.Binary, d int) VReg {
	lt := lw.info.Types[ex.L]
	isFloat := lt.Kind == lang.TypeFloat
	var op Op
	var ok bool
	if isFloat {
		op, ok = floatBinOps[ex.Op]
		// Rewrite missing float comparisons via operand swap / negation.
		if !ok {
			switch ex.Op {
			case "!=":
				eq := lw.genBinary(&lang.Binary{Pos: ex.Pos, Op: "==", L: ex.L, R: ex.R}, d)
				z := lw.newVReg(d+1, false)
				lw.emit(Instr{Op: OpConstInt, Dst: z, Imm: 0})
				v := lw.newVReg(d, false)
				lw.emit(Instr{Op: OpICmpEq, Dst: v, A: eq, B: z})
				return v
			case ">":
				return lw.genBinary(&lang.Binary{Pos: ex.Pos, Op: "<", L: ex.R, R: ex.L}, d)
			case ">=":
				return lw.genBinary(&lang.Binary{Pos: ex.Pos, Op: "<=", L: ex.R, R: ex.L}, d)
			default:
				fail("dapc: float operator %q", ex.Op)
			}
		}
	} else {
		op, ok = intBinOps[ex.Op]
		if !ok {
			fail("dapc: operator %q", ex.Op)
		}
	}

	lv := lw.gen(ex.L, d)
	resPtr := false
	if t := lw.info.Types[ex]; t != nil {
		resPtr = t.IsPtr()
	}
	if d+1 <= MaxDepth+1 {
		lw.push(lv, lw.vregPtrOf(lv))
		rv := lw.gen(ex.R, d+1)
		lv = lw.pop()
		v := lw.newVReg(d, resPtr)
		lw.emit(Instr{Op: op, Dst: v, A: lv, B: rv})
		return v
	}
	// Depth exhausted: spill the left operand, evaluate the right at the
	// same depth, reload the left into the emergency depth.
	t := lw.newTemp(lw.vregPtrOf(lv))
	lw.emit(Instr{Op: OpStoreSlot, Slot: t, A: lv})
	rv := lw.gen(ex.R, d)
	lre := lw.newVReg(MaxDepth+2, lw.vregPtrOf(lv))
	lw.emit(Instr{Op: OpLoadSlot, Dst: lre, Slot: t})
	v := lw.newVReg(d, resPtr)
	lw.emit(Instr{Op: op, Dst: v, A: lre, B: rv})
	return v
}

func (lw *lowerer) vregPtrOf(v VReg) bool {
	if int(v) < len(lw.vregPtr) {
		return lw.vregPtr[v]
	}
	return false
}

// genLogicalValue lowers a && b / a || b in value position. The whole
// evaluation stack is spilled first so the reload at the join block is
// path-independent.
func (lw *lowerer) genLogicalValue(ex *lang.Binary, d int) VReg {
	spilled := lw.spillAll()
	res := lw.newTemp(false)
	tB := lw.f.NewBlock()
	fB := lw.f.NewBlock()
	done := lw.f.NewBlock()
	savedStack, savedPtr := lw.stack, lw.stackPtr
	lw.stack, lw.stackPtr = nil, nil
	lw.genCond(ex, tB, fB)
	lw.setBlock(tB)
	one := lw.newVReg(0, false)
	lw.emit(Instr{Op: OpConstInt, Dst: one, Imm: 1})
	lw.emit(Instr{Op: OpStoreSlot, Slot: res, A: one})
	lw.emit(Instr{Op: OpJmp, T1: done})
	lw.setBlock(fB)
	zero := lw.newVReg(0, false)
	lw.emit(Instr{Op: OpConstInt, Dst: zero, Imm: 0})
	lw.emit(Instr{Op: OpStoreSlot, Slot: res, A: zero})
	lw.emit(Instr{Op: OpJmp, T1: done})
	lw.setBlock(done)
	lw.stack, lw.stackPtr = savedStack, savedPtr
	lw.reloadAll(spilled)
	v := lw.newVReg(d, false)
	lw.emit(Instr{Op: OpLoadSlot, Dst: v, Slot: res})
	return v
}

// genAddr computes the address of an lvalue at depth d.
func (lw *lowerer) genAddr(e lang.Expr, d int) VReg {
	switch ex := e.(type) {
	case *lang.Ident:
		v := lw.newVReg(d, true)
		switch obj := lw.info.Uses[ex].(type) {
		case *lang.LocalObj:
			lw.emit(Instr{Op: OpSlotAddr, Dst: v, Slot: obj.SlotID})
		case *lang.GlobalObj:
			lw.emit(Instr{Op: OpGlobalAddr, Dst: v, Sym: obj.Name})
		default:
			fail("dapc: cannot take address of %q", ex.Name)
		}
		return v
	case *lang.Index:
		if d+1 > MaxDepth+1 {
			fail("dapc: expression too deeply nested (indexing at depth %d)", d)
		}
		lw.push(lw.gen(ex.Base, d), true)
		idx := lw.gen(ex.Idx, d+1)
		base := lw.pop()
		scaled := lw.newVReg(d+1, false)
		lw.emit(Instr{Op: OpIMul, Dst: scaled, A: idx, B: lw.constAt(8, d+2)})
		v := lw.newVReg(d, true)
		lw.emit(Instr{Op: OpIAdd, Dst: v, A: base, B: scaled})
		return v
	case *lang.Unary:
		if ex.Op == "*" {
			return lw.gen(ex.X, d)
		}
	}
	fail("dapc: not an addressable expression: %T", e)
	return NoVReg
}

// constAt emits an integer constant at the given depth (the emergency
// depth is allowed here: constants have no interactions).
func (lw *lowerer) constAt(v int64, d int) VReg {
	if d > MaxDepth+2 {
		d = MaxDepth + 2
	}
	r := lw.newVReg(d, false)
	lw.emit(Instr{Op: OpConstInt, Dst: r, Imm: v})
	return r
}

// genCall lowers calls to user functions and builtins. It returns NoVReg
// for void calls.
func (lw *lowerer) genCall(e *lang.Call, d int) VReg {
	// print(literal) gets its pooled string.
	if e.Name == "print" {
		lit := e.Args[0].(*lang.StrLit)
		sym := lw.internString(lit.Val)
		aSlot := lw.newTemp(true)
		av := lw.newVReg(d, true)
		lw.emit(Instr{Op: OpGlobalAddr, Dst: av, Sym: sym})
		lw.emit(Instr{Op: OpStoreSlot, Slot: aSlot, A: av})
		nSlot := lw.newTemp(false)
		nv := lw.newVReg(d, false)
		lw.emit(Instr{Op: OpConstInt, Dst: nv, Imm: int64(len(lit.Val))})
		lw.emit(Instr{Op: OpStoreSlot, Slot: nSlot, A: nv})
		return lw.emitCall("__print", []int{aSlot, nSlot}, false, false, d)
	}
	if e.Name == "spawn" {
		fnID := e.Args[0].(*lang.Ident)
		fSlot := lw.newTemp(false)
		fv := lw.newVReg(d, false)
		lw.emit(Instr{Op: OpFuncAddr, Dst: fv, Sym: fnID.Name})
		lw.emit(Instr{Op: OpStoreSlot, Slot: fSlot, A: fv})
		aSlot := lw.newTemp(false)
		lw.emit(Instr{Op: OpStoreSlot, Slot: aSlot, A: lw.gen(e.Args[1], d)})
		return lw.emitCall("__spawn", []int{fSlot, aSlot}, true, false, d)
	}

	target := e.Name
	hasRet := false
	retPtr := false
	if w, ok := builtinWrapper[e.Name]; ok {
		target = w
		sig := lang.Builtins[e.Name]
		hasRet = sig.Ret.Kind != lang.TypeVoid
		retPtr = sig.Ret.IsPtr()
	} else if fn, ok := lw.info.Funcs[e.Name]; ok {
		hasRet = fn.Ret.Kind != lang.TypeVoid
		retPtr = fn.Ret.IsPtr()
	} else {
		fail("dapc: unknown call target %q", e.Name)
	}

	slots := make([]int, 0, len(e.Args))
	for _, a := range e.Args {
		av := lw.gen(a, d)
		t := lw.info.Types[a]
		slot := lw.newTemp(t != nil && t.IsPtr())
		lw.emit(Instr{Op: OpStoreSlot, Slot: slot, A: av})
		slots = append(slots, slot)
	}
	return lw.emitCall(target, slots, hasRet, retPtr, d)
}

// emitCall spills the evaluation stack, emits the call, and reloads.
func (lw *lowerer) emitCall(target string, argSlots []int, hasRet, retPtr bool, d int) VReg {
	spilled := lw.spillAll()
	dst := NoVReg
	if hasRet {
		dst = lw.newVReg(d, retPtr)
	}
	lw.emit(Instr{
		Op: OpCall, Dst: dst, Sym: target,
		ArgSlots: append([]int(nil), argSlots...),
		Site:     lw.prog.NewSite(),
	})
	lw.reloadAll(spilled)
	return dst
}

func (lw *lowerer) internString(s string) string {
	if sym, ok := lw.strs[s]; ok {
		return sym
	}
	sym := fmt.Sprintf("$str%d", len(lw.prog.Strings))
	lw.strs[s] = sym
	lw.prog.Strings = append(lw.prog.Strings, StrLit{Sym: sym, Data: s})
	return sym
}
