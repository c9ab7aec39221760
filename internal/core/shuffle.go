package core

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// FuncShuffle reports the shuffle applied to one function's frame.
type FuncShuffle struct {
	Name       string
	Candidates int // shuffle-eligible slots
	Pairs      int // pairwise swaps performed = bits of entropy
	Excluded   int // slots excluded (pair-accessed or wide-offset)
}

// ShuffleReport aggregates a stack-shuffle run (the data behind Figs. 9
// and 10).
type ShuffleReport struct {
	Arch    isa.Arch
	PerFunc []FuncShuffle
	AvgBits float64 // average pairwise shuffles across all functions
	// AvgBitsApp averages over application functions only (runtime
	// wrappers have near-empty frames and would dilute the number; the
	// paper reports per-benchmark frames).
	AvgBitsApp float64
	Patched    int // code bytes rewritten by the SBI pass
	Scanned    int // code bytes disassembled
}

// PossibleFrames returns the number of distinct frame layouts n bits of
// entropy yield: 1 + (2n-1)!! (paper §IV-B).
func PossibleFrames(bits int) uint64 {
	if bits <= 0 {
		return 1
	}
	var v uint64 = 1
	for k := int64(2*bits - 1); k > 0; k -= 2 {
		v *= uint64(k)
	}
	return 1 + v
}

// GuessProbability is an attacker's chance of locating one allocation
// under n bits of entropy: 1/(2n).
func GuessProbability(bits int) float64 {
	if bits <= 0 {
		return 1
	}
	return 1 / float64(2*bits)
}

// BinaryRegistrar is implemented by providers that can publish a modified
// binary (criu.MapProvider does).
type BinaryRegistrar interface {
	Register(path string, b *compiler.Binary)
}

// StackShufflePolicy permutes the stack-slot layout of every function:
// equal-size allocations are paired and swapped, the code pages are
// re-encoded (static binary instrumentation) to use the new frame offsets,
// the stack-map records are updated, and the checkpointed stack memory is
// rewritten to the new layout. Slots accessed by LDP/STP pair instructions
// are excluded, which is why SARM frames gain less entropy than SX86 ones
// — the paper's Fig. 10 asymmetry.
type StackShufflePolicy struct {
	// Seed drives the permutation (the re-randomization interval picks a
	// fresh seed per epoch).
	Seed int64
	// Report, when non-nil, receives the shuffle statistics.
	Report *ShuffleReport
}

// Name implements Policy.
func (StackShufflePolicy) Name() string { return "stack-shuffle" }

var _ Policy = StackShufflePolicy{}

// narrowFits mirrors the backend's load/store displacement limit: wide
// offsets are materialized through MOVZ/MOVK sequences the SBI pass does
// not re-encode, so such slots are excluded from shuffling.
func narrowFits(arch isa.Arch, off int64) bool {
	if arch == isa.SX86 {
		return true
	}
	return -off >= -2048 && -off <= 2047
}

// ShuffleBinary permutes frame layouts for one architecture, returning the
// instrumented binary (new text + metadata) and the report. It does not
// touch any checkpoint; Rewrite combines it with the stack rewrite.
func ShuffleBinary(bin *compiler.Binary, seed int64) (*compiler.Binary, *ShuffleReport, error) {
	arch := bin.Arch
	ai := stackmap.ArchIdx(arch)
	rng := rand.New(rand.NewSource(seed))
	newMeta := bin.Meta.Clone()
	newText := append([]byte(nil), bin.Text...)
	coder := stackmap.CoderFor(arch)
	report := &ShuffleReport{Arch: arch}

	totalBits := 0
	framed := 0
	appBits := 0
	appFramed := 0
	for _, fn := range newMeta.Funcs {
		fs := FuncShuffle{Name: fn.Name}
		// Group candidate slots by size.
		groups := map[int64][]int{} // size -> slot indices in fn.Slots
		for i := range fn.Slots {
			s := &fn.Slots[i]
			if s.PairAccessed[ai] || !narrowFits(arch, s.Off[ai]) {
				fs.Excluded++
				continue
			}
			fs.Candidates++
			groups[s.Size] = append(groups[s.Size], i)
		}
		// Pair within groups and swap offsets. Group keys are visited in
		// sorted order so a given seed is reproducible.
		remap := map[int64]int64{} // old offset -> new offset
		sizes := make([]int64, 0, len(groups))
		for sz := range groups {
			sizes = append(sizes, sz)
		}
		sort.Slice(sizes, func(a, b int) bool { return sizes[a] < sizes[b] })
		for _, sz := range sizes {
			idxs := groups[sz]
			rng.Shuffle(len(idxs), func(a, b int) { idxs[a], idxs[b] = idxs[b], idxs[a] })
			for k := 0; k+1 < len(idxs); k += 2 {
				a, b := &fn.Slots[idxs[k]], &fn.Slots[idxs[k+1]]
				remap[a.Off[ai]] = b.Off[ai]
				remap[b.Off[ai]] = a.Off[ai]
				a.Off[ai], b.Off[ai] = b.Off[ai], a.Off[ai]
				fs.Pairs++
			}
		}
		if len(fn.Slots) > 0 {
			framed++
			totalBits += fs.Pairs
			if !fn.Wrapper && fn.Name != "_start" {
				appFramed++
				appBits += fs.Pairs
			}
		}
		report.PerFunc = append(report.PerFunc, fs)
		if len(remap) == 0 {
			continue
		}
		// Update live-value locations referencing moved slots.
		updateSite := func(site *stackmap.Site) {
			if site == nil {
				return
			}
			for li := range site.Live {
				lv := &site.Live[li]
				if lv.Loc[ai].InReg {
					continue
				}
				if no, ok := remap[lv.Loc[ai].FrameOff]; ok {
					lv.Loc[ai].FrameOff = no
				}
			}
		}
		updateSite(fn.EntrySite)
		for _, cs := range fn.CallSites {
			updateSite(cs)
		}
		// SBI: re-encode frame-relative instructions to the new offsets.
		patched, scanned, err := patchFunc(coder, arch, newText, fn, remap)
		if err != nil {
			return nil, nil, fmt.Errorf("core: shuffle %s: %w", fn.Name, err)
		}
		report.Patched += patched
		report.Scanned += scanned
	}
	newMeta.Index()
	if framed > 0 {
		report.AvgBits = float64(totalBits) / float64(framed)
	}
	if appFramed > 0 {
		report.AvgBitsApp = float64(appBits) / float64(appFramed)
	}
	out := *bin
	out.Text = newText
	out.Meta = newMeta
	return &out, report, nil
}

// patchFunc linearly disassembles one function and rewrites FP-relative
// displacements per remap.
func patchFunc(coder isa.Coder, arch isa.Arch, text []byte, fn *stackmap.Func, remap map[int64]int64) (patched, scanned int, err error) {
	abi := isa.ABIFor(arch)
	start := fn.Addr - isa.TextBase
	end := start + fn.Size
	if end > uint64(len(text)) {
		return 0, 0, fmt.Errorf("function range outside text")
	}
	for off := start; off < end; {
		pc := isa.TextBase + off
		inst, err := coder.Decode(text[off:end], pc)
		if err != nil {
			return patched, scanned, fmt.Errorf("disassemble at 0x%x: %w", pc, err)
		}
		scanned += inst.Len
		frameRef := false
		switch inst.Op {
		case isa.OpLoad, isa.OpStore, isa.OpLea, isa.OpAddImm, isa.OpLoadPair, isa.OpStorePair:
			frameRef = inst.Rn == abi.FP && inst.Imm < 0
		}
		if frameRef {
			if newOff, ok := remap[-inst.Imm]; ok {
				ni := inst
				ni.Imm = -newOff
				enc, err := coder.Encode(nil, ni, pc)
				if err != nil {
					return patched, scanned, fmt.Errorf("re-encode at 0x%x: %w", pc, err)
				}
				if len(enc) != inst.Len {
					return patched, scanned, fmt.Errorf("re-encode at 0x%x: length %d != %d", pc, len(enc), inst.Len)
				}
				copy(text[off:], enc)
				patched += len(enc)
			}
		}
		off += uint64(inst.Len)
	}
	return patched, scanned, nil
}

// Plan implements Policy: the same binary under a freshly drawn frame
// layout, published at the original path — so restore loads the shuffled
// text — once the stacks are in that layout.
func (p StackShufflePolicy) Plan(v *image.View, ctx *Context) (*Plan, error) {
	path := v.Files.ExePath
	bin, err := ctx.Binaries.Open(path)
	if err != nil {
		return nil, err
	}
	shuffled, report, err := ShuffleBinary(bin, p.Seed)
	if err != nil {
		return nil, err
	}
	if p.Report != nil {
		*p.Report = *report
	}
	reg, ok := ctx.Binaries.(BinaryRegistrar)
	if !ok {
		return nil, fmt.Errorf("core: binary provider cannot register the instrumented binary")
	}
	arch := v.Inventory.Arch
	return &Plan{
		Src:  Side{Arch: arch, Meta: bin.Meta},
		Dst:  Side{Arch: arch, Meta: shuffled.Meta},
		Text: shuffled.Text, TextSpan: len(shuffled.Text),
		ExePath: path,
		Finish:  func() { reg.Register(path, shuffled) },
	}, nil
}

// Rewrite implements Policy.
func (p StackShufflePolicy) Rewrite(dir *criu.ImageDir, ctx *Context) error {
	return rewriteDir(dir, ctx, p)
}
