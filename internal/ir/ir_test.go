package ir_test

import (
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/ir"
	"github.com/dapper-sim/dapper/internal/lang"
)

// funcByName finds one of prog's functions.
func funcByName(prog *ir.Program, name string) (*ir.Func, bool) {
	for _, f := range prog.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	file, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := lang.Check(file)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := ir.Lower(file, info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func TestLowerBasics(t *testing.T) {
	prog := lower(t, `
func add(a int, b int) int { return a + b; }
func main() {
	var x int;
	x = add(1, 2) + add(3, 4);
	printi(x);
}`)
	mainFn, ok := funcByName(prog, "main")
	if !ok {
		t.Fatal("no main")
	}
	// main must contain three calls (add, add, __printi) with distinct
	// site ids.
	sites := map[int]bool{}
	calls := 0
	for _, b := range mainFn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls++
				if sites[in.Site] {
					t.Errorf("duplicate site id %d", in.Site)
				}
				sites[in.Site] = true
			}
		}
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3\n%s", calls, prog.Dump())
	}
	if _, ok := funcByName(prog, "_start"); !ok {
		t.Error("missing _start")
	}
	if _, ok := funcByName(prog, "__printi"); !ok {
		t.Error("missing __printi wrapper")
	}
}

// TestNoVRegLiveAcrossCall checks the key invariant: between the last
// spill/arg store and the call there is no vreg consumed after the call
// except the call result (verified structurally: the second add's left
// operand is reloaded from a temp slot after the first call).
func TestSpillAroundCalls(t *testing.T) {
	prog := lower(t, `
func f() int { return 1; }
func main() {
	var x int;
	x = f() + f();
	printi(x);
}`)
	mainFn, _ := funcByName(prog, "main")
	dump := prog.Dump()
	// The left f() result must be stored to a temp slot before the right
	// f() call and reloaded after.
	var sawSpill bool
	for _, b := range mainFn.Blocks {
		seenCalls := 0
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Sym == "f" {
				seenCalls++
			}
			if in.Op == ir.OpStoreSlot && seenCalls == 1 {
				sawSpill = true
			}
		}
	}
	if !sawSpill {
		t.Errorf("no spill between calls:\n%s", dump)
	}
}

func TestCallSiteLiveness(t *testing.T) {
	prog := lower(t, `
func g(v int) int { return v; }
func main() {
	var a int;
	var b int;
	var dead int;
	a = 5;
	b = 6;
	dead = 7;
	a = g(a);     // b live across this call (used later); dead is not
	printi(a + b);
}`)
	mainFn, _ := funcByName(prog, "main")
	slotByName := map[string]int{}
	for _, s := range mainFn.Slots {
		slotByName[s.Name] = s.ID
	}
	var gLive []int
	for _, b := range mainFn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Sym == "g" {
				gLive = in.LiveSlots
			}
		}
	}
	if gLive == nil {
		t.Fatalf("no call to g:\n%s", prog.Dump())
	}
	has := func(id int) bool {
		for _, v := range gLive {
			if v == id {
				return true
			}
		}
		return false
	}
	if !has(slotByName["b"]) {
		t.Errorf("b (slot %d) not live at call: %v", slotByName["b"], gLive)
	}
	if has(slotByName["dead"]) {
		t.Errorf("dead (slot %d) wrongly live at call: %v", slotByName["dead"], gLive)
	}
}

func TestAddressTakenAlwaysLive(t *testing.T) {
	prog := lower(t, `
func use(p *int) { *p = 1; }
func main() {
	var buf[4] int;
	var x int;
	use(&buf[0]);
	x = buf[0];
	printi(x);
}`)
	mainFn, _ := funcByName(prog, "main")
	var bufSlot int = -1
	for _, s := range mainFn.Slots {
		if s.Name == "buf" {
			bufSlot = s.ID
			if s.Kind != ir.SlotArray || s.Size != 32 {
				t.Errorf("buf slot: %+v", s)
			}
		}
	}
	for _, b := range mainFn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				found := false
				for _, v := range in.LiveSlots {
					if v == bufSlot {
						found = true
					}
				}
				if !found {
					t.Errorf("array slot %d not live at call %s: %v", bufSlot, in.Sym, in.LiveSlots)
				}
			}
		}
	}
}

func TestWrapperProperties(t *testing.T) {
	prog := lower(t, `func main() { }`)
	for name, wantBlocking := range map[string]bool{
		"__join": true, "__lock": true, "__recv": true,
		"__unlock": false, "__spawn": false, "__print": false,
	} {
		f, ok := funcByName(prog, name)
		if !ok {
			t.Errorf("missing wrapper %s", name)
			continue
		}
		if f.Blocking != wantBlocking {
			t.Errorf("%s blocking = %v, want %v", name, f.Blocking, wantBlocking)
		}
		if !f.Wrapper {
			t.Errorf("%s not marked wrapper", name)
		}
	}
	// Lock must increment the TLS lock depth after the syscall; unlock
	// must decrement before it.
	lock, _ := funcByName(prog, "__lock")
	order := []ir.Op{}
	for _, in := range lock.Blocks[0].Instrs {
		if in.Op == ir.OpSyscall || in.Op == ir.OpTlsStore {
			order = append(order, in.Op)
		}
	}
	if len(order) != 2 || order[0] != ir.OpSyscall || order[1] != ir.OpTlsStore {
		t.Errorf("__lock op order = %v", order)
	}
	unlock, _ := funcByName(prog, "__unlock")
	order = order[:0]
	for _, in := range unlock.Blocks[0].Instrs {
		if in.Op == ir.OpSyscall || in.Op == ir.OpTlsStore {
			order = append(order, in.Op)
		}
	}
	if len(order) != 2 || order[0] != ir.OpTlsStore || order[1] != ir.OpSyscall {
		t.Errorf("__unlock op order = %v", order)
	}
}

func TestDeepExpression(t *testing.T) {
	// Deeply right-nested expression forces the emergency spill path.
	prog := lower(t, `
func main() {
	var x int;
	x = 1 + (2 + (3 + (4 + (5 + (6 + (7 + (8 + 9)))))));
	printi(x);
}`)
	if prog == nil {
		t.Fatal("nil program")
	}
	// All vreg depths must stay within the emergency bound.
	mainFn, _ := funcByName(prog, "main")
	for v, d := range mainFn.VRegDepth {
		if int(d) > ir.MaxDepth+2 {
			t.Errorf("vreg %d depth %d exceeds bound", v, d)
		}
	}
}

func TestLogicalValueForm(t *testing.T) {
	prog := lower(t, `
func main() {
	var a int;
	var b int;
	a = 1;
	b = (a > 0) && (a < 10);
	printi(b);
}`)
	dump := prog.Dump()
	if !strings.Contains(dump, "br") {
		t.Errorf("expected branching for logical value:\n%s", dump)
	}
}

func TestStringPooling(t *testing.T) {
	prog := lower(t, `
func main() {
	print("hello");
	print("hello");
	print("other");
}`)
	if len(prog.Strings) != 2 {
		t.Errorf("strings = %d, want 2 (pooled)", len(prog.Strings))
	}
}

// TestSyscallArgDepthInvariant pins the contract the backends rely on:
// every OpSyscall argument vreg sits at evaluation depth equal to its
// argument index, so the reverse-order register moves cannot clobber each
// other.
func TestSyscallArgDepthInvariant(t *testing.T) {
	prog := lower(t, `func main() { }`)
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpSyscall {
					continue
				}
				for i, v := range in.Args {
					if int(f.VRegDepth[v]) != i {
						t.Errorf("%s: syscall arg %d at depth %d", f.Name, i, f.VRegDepth[v])
					}
				}
			}
		}
	}
}

// TestEntrySiteIsFirst: every function's entry site id precedes its call
// site ids (the lowering allocates them in order), which LiveUpdate's
// compatibility check depends on for stable matching.
func TestSiteIDsStable(t *testing.T) {
	prog := lower(t, `
func a(x int) int { return x + 1; }
func main() { printi(a(1) + a(2)); }`)
	seen := map[int]bool{}
	for _, f := range prog.Funcs {
		if f.EntrySiteID == 0 || seen[f.EntrySiteID] {
			t.Errorf("%s: bad entry site id %d", f.Name, f.EntrySiteID)
		}
		seen[f.EntrySiteID] = true
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					if in.Site == 0 || seen[in.Site] {
						t.Errorf("%s: bad call site id %d", f.Name, in.Site)
					}
					seen[in.Site] = true
				}
			}
		}
	}
}
