// Package gadget measures the attack surface of binaries as ROP gadget
// counts, reproducing the paper's Fig. 11 comparison: DAPPER keeps the
// state-transformation logic *outside* the program's address space, while
// Popcorn-Linux-style systems link an in-process migration runtime into
// every binary, inflating its gadget count.
package gadget

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// MaxGadgetLen is the maximum instructions per gadget (industry-standard
// scanners use 3–5).
const MaxGadgetLen = 5

// Count returns the number of distinct ROP gadgets in text: positions from
// which a valid instruction sequence of at most MaxGadgetLen instructions
// ends in a return. On the variable-length SX86 encoding gadgets may start
// at unintended byte offsets (as on real x86); on SARM only word-aligned
// starts decode.
func Count(text []byte, base uint64, arch isa.Arch) int {
	return CountMax(text, base, arch, MaxGadgetLen)
}

// CountMax is Count with an explicit gadget-length bound (the scanner
// sensitivity ablation sweeps it).
func CountMax(text []byte, base uint64, arch isa.Arch, maxLen int) int {
	coder := stackmap.CoderFor(arch)
	step := 1
	if arch == isa.SARM {
		step = 4
	}
	count := 0
	for off := 0; off < len(text); off += step {
		if endsInRet(coder, text, base, off, maxLen) {
			count++
		}
	}
	return count
}

// endsInRet decodes forward from off and reports whether a RET is reached
// within maxLen instructions.
func endsInRet(coder isa.Coder, text []byte, base uint64, off, maxLen int) bool {
	pos := off
	for n := 0; n < maxLen && pos < len(text); n++ {
		inst, err := coder.Decode(text[pos:], base+uint64(pos))
		if err != nil {
			return false
		}
		if inst.Op == isa.OpRet {
			return true
		}
		// Control transfers end the straight-line gadget.
		switch inst.Op {
		case isa.OpJmp, isa.OpCall, isa.OpJz, isa.OpJnz, isa.OpTrap:
			return false
		}
		pos += inst.Len
	}
	return false
}

// Reduction computes the percentage reduction of gadgets going from
// baseline to hardened.
func Reduction(baseline, hardened int) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * float64(baseline-hardened) / float64(baseline)
}

// PopcornRuntimeSrc is a synthetic in-process migration runtime in DapC,
// standing in for the state-transformation code Popcorn Linux injects into
// every application's address space (register-state conversion, stack
// transformation, address-space bookkeeping). Appending it to a program
// before compilation produces the Popcorn-style baseline binary whose
// larger .text carries correspondingly more gadgets.
var PopcornRuntimeSrc = popcornBaseSrc + generatedConverters()

// generatedConverters emits the per-register, per-direction conversion
// routines a real in-process transformer carries (Popcorn's migration
// library converts each architectural register and stack-slot class with
// dedicated code paths).
func generatedConverters() string {
	var sb sbuilder
	for r := 0; r < 6; r++ {
		sb.addf(`
func __pc_x2a_r%d(v int, mode int) int {
	var e int;
	e = (v << %d) | (v >> %d);
	if mode == 1 { e = e ^ %d; }
	if mode == 2 { e = e + %d; }
	__pc_regpool[%d] = e;
	return e;
}

func __pc_a2x_r%d(v int, mode int) int {
	var e int;
	e = (v >> %d) | (v << %d);
	if mode == 1 { e = e - %d; }
	__pc_regpool[%d] = e ^ __pc_regpool[%d];
	return e;
}
`, r, (r%7)+1, 63-(r%7), 0x1111*(r+1), 7919*(r+3), r%64,
			r, (r%5)+1, 63-(r%5), 104729*(r+1), (r+16)%64, r%64)
	}
	for k := 0; k < 3; k++ {
		sb.addf(`
func __pc_slotclass%d(off int, val int) int {
	var h int;
	h = (off * %d + val) & 0xffffff;
	__pc_framebuf[h %% 128] = h;
	if h %% %d == 0 { return __pc_x2a_r%d(val, h %% 3); }
	return __pc_a2x_r%d(val, h %% 3);
}
`, k, 2654435761+k*97, k+2, k%6, (k+5)%6)
	}
	return sb.String()
}

type sbuilder struct{ b []byte }

func (s *sbuilder) addf(format string, args ...any) {
	s.b = append(s.b, []byte(fmt.Sprintf(format, args...))...)
}

func (s *sbuilder) String() string { return string(s.b) }

const popcornBaseSrc = `
var __pc_regpool[64] int;
var __pc_framebuf[128] int;
var __pc_vmalist[48] int;

func __pc_convert_reg(slot int, val int, mode int) int {
	var enc int;
	enc = val;
	if mode == 1 { enc = (val << 8) | (val >> 56); }
	if mode == 2 { enc = val ^ 0x5a5a5a5a; }
	__pc_regpool[slot % 64] = enc;
	return enc;
}

func __pc_regset_convert(mode int) int {
	var i int;
	var acc int;
	for i = 0; i < 64; i = i + 1 {
		acc = acc + __pc_convert_reg(i, acc + i * 3, mode);
	}
	return acc;
}

func __pc_unwind_frame(fp int, depth int) int {
	var slot int;
	var caller int;
	if depth <= 0 { return fp; }
	slot = fp % 128;
	__pc_framebuf[slot] = fp + depth;
	caller = fp - depth * 16;
	return __pc_unwind_frame(caller, depth - 1);
}

func __pc_transform_stack(base int, frames int) int {
	var f int;
	var sum int;
	for f = 0; f < frames; f = f + 1 {
		sum = sum + __pc_unwind_frame(base + f * 64, f % 8);
	}
	return sum;
}

func __pc_map_vma(start int, len int, prot int) int {
	var idx int;
	idx = (start / 4096) % 16;
	__pc_vmalist[idx * 3] = start;
	__pc_vmalist[idx * 3 + 1] = len;
	__pc_vmalist[idx * 3 + 2] = prot;
	return idx;
}

func __pc_share_pages(start int, n int) int {
	var i int;
	var acc int;
	for i = 0; i < n; i = i + 1 {
		acc = acc + __pc_map_vma(start + i * 4096, 4096, 7);
	}
	return acc;
}

func __pc_marshal_state(mode int) int {
	var a int;
	var b int;
	a = __pc_regset_convert(mode);
	b = __pc_transform_stack(a % 100000, 12);
	return a + b + __pc_share_pages(b % 65536, 24);
}

func __pc_migrate_entry(nid int) int {
	var st int;
	st = __pc_marshal_state(nid % 3);
	if st % 2 == 0 {
		st = __pc_marshal_state((nid + 1) % 3);
	}
	return st;
}
`

// PopcornPair compiles a program with the in-process migration runtime
// linked in (the baseline), next to the DAPPER pair of the same program.
func PopcornPair(src string) (*compiler.Pair, error) {
	return compiler.Compile(src + PopcornRuntimeSrc)
}

// Compare counts gadgets in a DAPPER binary versus its Popcorn-style
// counterpart on the same architecture.
type Comparison struct {
	Arch         isa.Arch
	Dapper       int
	Popcorn      int
	ReductionPct float64
}

// CompareBinaries builds the comparison for one architecture.
func CompareBinaries(dapper, popcorn *compiler.Binary) Comparison {
	d := Count(dapper.Text, isa.TextBase, dapper.Arch)
	p := Count(popcorn.Text, isa.TextBase, popcorn.Arch)
	return Comparison{
		Arch:         dapper.Arch,
		Dapper:       d,
		Popcorn:      p,
		ReductionPct: Reduction(p, d),
	}
}
