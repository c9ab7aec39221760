package updatecheck_test

import (
	"slices"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/updatecheck"
	"github.com/dapper-sim/dapper/internal/workloads"
)

func toBin(b *compiler.Binary) *updatecheck.Binary {
	return &updatecheck.Binary{Arch: b.Arch, Text: b.Text, Symbols: b.Symbols, Meta: b.Meta}
}

// TestWorkloadSoundness is the pass-1 property test: every workload
// program the repo can compile must verify clean on both architectures —
// the compiler's emitted metadata is the ground truth updatecheck's
// invariants are calibrated against.
func TestWorkloadSoundness(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			pair, err := workloads.CompilePair(w, workloads.ClassS)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []*compiler.Binary{pair.X86, pair.ARM} {
				if r := updatecheck.CheckBinary(toBin(b)); len(r.Violations) > 0 {
					t.Errorf("%s/%v: %v", w.Name, b.Arch, r.Err())
				}
			}
		})
	}
}

// TestWorkloadSoundnessBigFrames covers the compiler's big-offset
// addressing path (frame offsets beyond the direct-immediate range) with
// a larger problem class.
func TestWorkloadSoundnessBigFrames(t *testing.T) {
	w, err := workloads.Get("linpack")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassA)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*compiler.Binary{pair.X86, pair.ARM} {
		if r := updatecheck.CheckBinary(toBin(b)); len(r.Violations) > 0 {
			t.Errorf("linpack-A/%v: %v", b.Arch, r.Err())
		}
	}
}

// TestRecompileDiffSafe: recompiling the identical source must classify
// every function safe — the diff pass's fixed point.
func TestRecompileDiffSafe(t *testing.T) {
	for _, w := range workloads.All()[:4] {
		src := w.Source(workloads.ClassS)
		p1, err := compiler.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := compiler.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		d := updatecheck.Diff(toBin(p1.X86), toBin(p2.X86))
		if len(d.Globals) > 0 {
			t.Errorf("%s: global violations on identical recompile: %v", w.Name, d.Globals)
		}
		for _, fd := range d.Funcs {
			if fd.Class != updatecheck.ClassSafe {
				t.Errorf("%s: func %s classifies %v on identical recompile: %v",
					w.Name, fd.Name, fd.Class, fd.Violations)
			}
			if !fd.Identity {
				t.Errorf("%s: func %s not identity on identical recompile", w.Name, fd.Name)
			}
		}
		if err := updatecheck.Compatible(toBin(p1.X86), toBin(p2.X86)); err != nil {
			t.Errorf("%s: Compatible on identical recompile: %v", w.Name, err)
		}
	}
}

// Two versions of a program whose patch only changes arithmetic between
// equivalence points: state-compatible, so every function must classify
// safe or mappable with no blocking verdict.
const diffV1 = `
var acc int;
var steps int;

func work(n int) int {
	var i int;
	var sum int;
	i = 0;
	sum = 0;
	while i < n {
		sum = sum + i * 2;
		acc = acc + sum;
		steps = steps + 1;
		i = i + 1;
	}
	return sum;
}

func main() {
	var r int;
	r = work(100);
	printi(r);
	printi(acc);
}
`

// diffV2 changes work's arithmetic (the "patch") but keeps the slot and
// site structure.
const diffV2 = `
var acc int;
var steps int;

func work(n int) int {
	var i int;
	var sum int;
	i = 0;
	sum = 0;
	while i < n {
		sum = sum + i * 3 + 1;
		acc = acc + sum;
		steps = steps + 1;
		i = i + 1;
	}
	return sum;
}

func main() {
	var r int;
	r = work(100);
	printi(r);
	printi(acc);
}
`

// diffV2Blocking changes work's arity — a frame-layout-breaking patch.
const diffV2Blocking = `
var acc int;
var steps int;

func work(n int, scale int) int {
	var i int;
	var sum int;
	i = 0;
	sum = 0;
	while i < n {
		sum = sum + i * scale;
		acc = acc + sum;
		steps = steps + 1;
		i = i + 1;
	}
	return sum;
}

func main() {
	var r int;
	r = work(100, 2);
	printi(r);
	printi(acc);
}
`

func TestDiffStateCompatiblePatch(t *testing.T) {
	p1, err := compiler.Compile(diffV1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := compiler.Compile(diffV2)
	if err != nil {
		t.Fatal(err)
	}
	d := updatecheck.Diff(toBin(p1.X86), toBin(p2.X86))
	i := slices.IndexFunc(d.Funcs, func(f updatecheck.FuncDiff) bool { return f.Name == "work" })
	if i < 0 {
		t.Fatal("no diff for work")
	}
	fd := &d.Funcs[i]
	if fd.Class == updatecheck.ClassBlocking {
		t.Fatalf("work classifies blocking: %v", fd.Violations)
	}
	if !fd.Identity {
		t.Errorf("work should be identity-mappable, got %+v", fd)
	}
	if len(fd.SlotMap) == 0 {
		t.Error("work has an empty slot-mapping table")
	}
	if err := updatecheck.Compatible(toBin(p1.X86), toBin(p2.X86)); err != nil {
		t.Errorf("Compatible: %v", err)
	}
}

func TestDiffArityChangeBlocks(t *testing.T) {
	p1, err := compiler.Compile(diffV1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := compiler.Compile(diffV2Blocking)
	if err != nil {
		t.Fatal(err)
	}
	d := updatecheck.Diff(toBin(p1.X86), toBin(p2.X86))
	i := slices.IndexFunc(d.Funcs, func(f updatecheck.FuncDiff) bool { return f.Name == "work" })
	if i < 0 {
		t.Fatal("no diff for work")
	}
	fd := &d.Funcs[i]
	if fd.Class != updatecheck.ClassBlocking {
		t.Fatalf("arity-changing patch classifies %v, want blocking", fd.Class)
	}
	if !hasInvariant(fd.Violations, updatecheck.InvFuncArity) {
		t.Errorf("want %s violation, got %v", updatecheck.InvFuncArity, fd.Violations)
	}
	if err := updatecheck.Compatible(toBin(p1.X86), toBin(p2.X86)); err == nil {
		t.Error("Compatible accepted an arity change")
	}
}

func hasInvariant(vs []updatecheck.Violation, inv string) bool {
	for _, v := range vs {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

// TestShuffledMetadataIdentity: a shuffled layout (same ids, permuted
// offsets) must stay compatible (identity mapping) but lose the safe
// classification — offsets moved.
func TestShuffledMetadataIdentity(t *testing.T) {
	p, err := compiler.Compile(diffV1)
	if err != nil {
		t.Fatal(err)
	}
	shuf := p.Meta.Clone()
	moved := false
	for _, f := range shuf.Funcs {
		// Permute non-param, non-pair-accessed slot offsets by swapping
		// two same-size slots where possible.
		var idx []int
		for i := range f.Slots {
			s := &f.Slots[i]
			if s.ID >= f.NumParams && !s.PairAccessed[0] && s.Size == 8 {
				idx = append(idx, i)
			}
		}
		if len(idx) >= 2 {
			a, b := &f.Slots[idx[0]], &f.Slots[idx[1]]
			a.Off[0], b.Off[0] = b.Off[0], a.Off[0]
			moved = true
		}
	}
	if !moved {
		t.Skip("no shuffleable slots")
	}
	old := toBin(p.X86)
	new_ := &updatecheck.Binary{Arch: p.X86.Arch, Text: p.X86.Text, Symbols: p.X86.Symbols, Meta: shuf}
	if err := updatecheck.Compatible(old, new_); err != nil {
		t.Fatalf("shuffled layout must stay compatible: %v", err)
	}
	d := updatecheck.Diff(old, new_)
	sawMappable := false
	for _, fd := range d.Funcs {
		if fd.Class == updatecheck.ClassBlocking {
			t.Errorf("func %s blocking under shuffle: %v", fd.Name, fd.Violations)
		}
		if fd.Class == updatecheck.ClassMappable {
			sawMappable = true
		}
	}
	if !sawMappable {
		t.Error("no function downgraded to mappable although offsets moved")
	}
}

// TestViolationError pins the error format tests and callers grep for.
func TestViolationError(t *testing.T) {
	v := updatecheck.Violation{Invariant: updatecheck.InvQuiescence, Detail: "x"}
	if got := v.Error(); !strings.HasPrefix(got, "updatecheck: quiescence: ") {
		t.Errorf("Error() = %q", got)
	}
}

var _ = isa.SX86
