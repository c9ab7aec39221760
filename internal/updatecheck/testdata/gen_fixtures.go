//go:build ignore

// gen_fixtures.go regenerates the broken-binary corpus consumed by
// fixtures_test.go: deliberately corrupted DELF binaries, one per
// soundness invariant, plus old/new pairs for the global-layout diff
// invariants:
//
//	go run internal/updatecheck/testdata/gen_fixtures.go internal/updatecheck/testdata
//
// Every fixture starts from a fresh compile of the same base program and
// applies exactly one mutation — to the metadata (decode, mutate,
// re-marshal) or to the SARM text (fixed 4-byte instructions make
// in-place patches length-safe). The expected invariant for each file is
// pinned in fixtures_test.go; keep the two in sync.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/isa/sarm"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// The base program: a pointer-taking function (for the ptr-agree
// fixture), a loop-bearing helper with call-site live state, and two
// globals (for the diff-pair fixtures).
const baseSrc = `
var g1 int;
var g2 int;

func bump(p *int, d int) int {
	*p = *p + d;
	return *p;
}

func helper(a int, n int) int {
	var i int;
	var t int;
	t = a;
	i = 0;
	while i < n {
		t = t + i + g1;
		i = i + 1;
	}
	return t;
}

func main() {
	var x int;
	var y int;
	x = 0;
	y = 0;
	while x < 10 {
		y = helper(y, x) + y;
		y = bump(&x, 1) + y;
		g2 = g2 + y;
		x = x + 1;
	}
	printi(y);
}
`

// movedSrc swaps the globals' declaration order: same program, shifted
// data layout.
const movedSrc = `
var g2 int;
var g1 int;

func bump(p *int, d int) int {
	*p = *p + d;
	return *p;
}

func helper(a int, n int) int {
	var i int;
	var t int;
	t = a;
	i = 0;
	while i < n {
		t = t + i + g1;
		i = i + 1;
	}
	return t;
}

func main() {
	var x int;
	var y int;
	x = 0;
	y = 0;
	while x < 10 {
		y = helper(y, x) + y;
		y = bump(&x, 1) + y;
		g2 = g2 + y;
		x = x + 1;
	}
	printi(y);
}
`

// removedSrc drops g2 entirely.
const removedSrc = `
var g1 int;

func bump(p *int, d int) int {
	*p = *p + d;
	return *p;
}

func helper(a int, n int) int {
	var i int;
	var t int;
	t = a;
	i = 0;
	while i < n {
		t = t + i + g1;
		i = i + 1;
	}
	return t;
}

func main() {
	var x int;
	var y int;
	x = 0;
	y = 0;
	while x < 10 {
		y = helper(y, x) + y;
		y = bump(&x, 1) + y;
		x = x + 1;
	}
	printi(y);
}
`

// outDir is where the fixtures are written, the one argument.
var outDir string

func main() {
	if len(os.Args) != 2 {
		die("usage: gen_fixtures OUTDIR")
	}
	outDir = os.Args[1]
	emit("dangling-site", func(b *compiler.Binary) {
		// An extra call-site record whose return address points into the
		// alignment padding: no CALL precedes it.
		f := fn(b, "main")
		ra := f.Addr + f.Size - 4
		f.CallSites = append(f.CallSites, &stackmap.Site{
			ID: 999, Func: "main", Kind: stackmap.SiteCall,
			PCs: [2]stackmap.SitePCs{{RetAddr: ra}, {RetAddr: ra}},
		})
	})
	emit("mislabeled-ptr", func(b *compiler.Binary) {
		// bump's first parameter is *int; clearing the slot's Ptr flag
		// contradicts the (still-true) live record.
		f := fn(b, "bump")
		s, ok := f.SlotByID(0)
		if !ok || !s.Ptr {
			die("bump slot 0 is not the pointer parameter")
		}
		s.Ptr = false
	})
	emit("unreachable-site", func(b *compiler.Binary) {
		// The checker's trap-guarding JNZ becomes an unconditional JMP:
		// the equivalence point can never fire.
		f := fn(b, "helper")
		trap := f.EntrySite.PCs[1].TrapPC
		in := decodeAt(b, trap-4)
		if in.Op != isa.OpJnz {
			die("instruction before helper's trap is %v, want jnz", in.Op)
		}
		patch(b, trap-4, isa.Inst{Op: isa.OpJmp, Imm: in.Imm})
	})
	emit("trap-op", func(b *compiler.Binary) {
		// The recorded trap PC slides one instruction forward.
		fn(b, "helper").EntrySite.PCs[1].TrapPC += 4
	})
	emit("site-range", func(b *compiler.Binary) {
		// The recorded trap PC leaves the function entirely.
		f := fn(b, "helper")
		f.EntrySite.PCs[1].TrapPC = f.Addr + f.Size + 0x100
	})
	emit("entry-live", func(b *compiler.Binary) {
		// The function claims one more parameter than its entry site
		// records.
		fn(b, "helper").NumParams++
	})
	emit("slot-offset-skew", func(b *compiler.Binary) {
		// A call-site live record disagrees with the slot table about
		// where the value lives.
		f := fn(b, "main")
		if len(f.CallSites) == 0 || len(f.CallSites[0].Live) == 0 {
			die("main's first call site has no live values")
		}
		f.CallSites[0].Live[0].Loc[1].FrameOff += 8
	})
	emit("slot-overlap", func(b *compiler.Binary) {
		// Two locals share a frame offset.
		f := fn(b, "main")
		if len(f.Slots) < 2 {
			die("main has fewer than two slots")
		}
		f.Slots[len(f.Slots)-1].Off[1] = f.Slots[len(f.Slots)-2].Off[1]
	})
	emit("quiescence-spin", func(b *compiler.Binary) {
		// The first post-checker instruction jumps to itself: a reachable
		// loop that never crosses an equivalence point.
		f := fn(b, "helper")
		skip := f.EntrySite.PCs[1].TrapPC + 4
		patch(b, skip, isa.Inst{Op: isa.OpJmp, Imm: int64(skip)})
	})
	emit("branch-range", func(b *compiler.Binary) {
		// A branch targets one past the function's end.
		f := fn(b, "helper")
		skip := f.EntrySite.PCs[1].TrapPC + 4
		patch(b, skip, isa.Inst{Op: isa.OpJmp, Imm: int64(f.Addr + f.Size)})
	})
	emit("ret-site-shift", func(b *compiler.Binary) {
		// A call-site return address slides off the instruction after its
		// CALL.
		f := fn(b, "main")
		if len(f.CallSites) == 0 {
			die("main has no call sites")
		}
		f.CallSites[0].PCs[1].RetAddr += 4
	})
	emit("missing-checker", func(b *compiler.Binary) {
		// The flag-test JZ is lobotomized to a NOP: the entry checker no
		// longer consults the transformation flag.
		f := fn(b, "helper")
		for pc := f.EntrySite.PCs[1].ResumePC; pc < f.EntrySite.PCs[1].TrapPC; pc += 4 {
			if decodeAt(b, pc).Op == isa.OpJz {
				patch(b, pc, isa.Inst{Op: isa.OpNop})
				return
			}
		}
		die("no jz in helper's checker region")
	})

	// Diff pairs: the old side is the pristine base binary.
	writeBin("global-moved.old", compileARM(baseSrc))
	writeBin("global-moved.new", compileARM(movedSrc))
	writeBin("global-removed.old", compileARM(baseSrc))
	writeBin("global-removed.new", compileARM(removedSrc))
	fmt.Println("fixtures written to", outDir)
}

// emit compiles a fresh base binary, applies one mutation, re-marshals.
func emit(name string, mutate func(*compiler.Binary)) {
	b := compileARM(baseSrc)
	mutate(b)
	writeBin(name, b)
}

func compileARM(src string) *compiler.Binary {
	p, err := compiler.Compile(src)
	if err != nil {
		die("compile: %v", err)
	}
	return p.ARM
}

func writeBin(name string, b *compiler.Binary) {
	if err := os.WriteFile(filepath.Join(outDir, name+".delf"), compiler.MarshalBinary(b), 0o644); err != nil {
		die("write %s: %v", name, err)
	}
}

func fn(b *compiler.Binary, name string) *stackmap.Func {
	f, ok := b.Meta.FuncByName(name)
	if !ok {
		die("no metadata for %s", name)
	}
	return f
}

func decodeAt(b *compiler.Binary, pc uint64) isa.Inst {
	in, err := sarm.Coder{}.Decode(b.Text[pc-isa.TextBase:], pc)
	if err != nil {
		die("decode at 0x%x: %v", pc, err)
	}
	return in
}

func patch(b *compiler.Binary, pc uint64, in isa.Inst) {
	enc, err := sarm.Coder{}.Encode(nil, in, pc)
	if err != nil {
		die("encode %v at 0x%x: %v", in, pc, err)
	}
	if len(enc) != 4 {
		die("encoding of %v is %d bytes, want 4", in, len(enc))
	}
	copy(b.Text[pc-isa.TextBase:], enc)
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gen_fixtures: "+format+"\n", args...)
	os.Exit(1)
}
