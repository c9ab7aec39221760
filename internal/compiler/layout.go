package compiler

import (
	"encoding/binary"
	"fmt"

	"github.com/dapper-sim/dapper/internal/ir"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/isa/sarm"
	"github.com/dapper-sim/dapper/internal/isa/sx86"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// Binary is a loadable DELF image for one architecture (see
// stackmap.Binary, where the verifiers can reach it too).
type Binary = stackmap.Binary

// Pair is the dual-architecture output of one compilation.
type Pair struct {
	X86  *Binary
	ARM  *Binary
	Meta *stackmap.Metadata
	Prog *ir.Program
}

// ByArch selects one binary of the pair.
func (p *Pair) ByArch(a isa.Arch) *Binary {
	if a == isa.SX86 {
		return p.X86
	}
	return p.ARM
}

// BuildPair lays out and assembles both binaries from one IR program,
// padding every function to a common size so all symbols share addresses
// across architectures, and produces the combined stack-map metadata.
func BuildPair(prog *ir.Program) (*Pair, error) {
	// Data layout: word 0 is the DAPPER transformation flag, then globals,
	// then pooled string literals. The layout is architecture-independent.
	dataOff := map[string]uint64{}
	var dataSize uint64 = 8 // flag
	for _, gd := range prog.Globals {
		dataOff[gd.Name] = dataSize
		dataSize += uint64((gd.Size + 7) / 8 * 8)
	}
	strOff := map[string]uint64{}
	for _, s := range prog.Strings {
		strOff[s.Sym] = dataSize
		dataSize += uint64((len(s.Data) + 7) / 8 * 8)
	}
	data := make([]byte, dataSize)
	for _, s := range prog.Strings {
		copy(data[strOff[s.Sym]:], s.Data)
	}

	// Generate both architectures' fragments for every function.
	type perFunc struct {
		f    *ir.Func
		outs [2]*funcOut
		addr uint64
		size uint64
	}
	coders := [2]isa.Coder{sx86.Coder{}, sarm.Coder{}}
	abis := [2]*isa.ABI{isa.ABISX86, isa.ABISARM}
	funcs := make([]*perFunc, 0, len(prog.Funcs))
	cursor := isa.TextBase
	for _, f := range prog.Funcs {
		pf := &perFunc{f: f}
		maxSize := 0
		for i := 0; i < 2; i++ {
			out, err := genFunc(f, abis[i], coders[i])
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", f.Name, err)
			}
			pf.outs[i] = out
			if s := out.frag.Size(); s > maxSize {
				maxSize = s
			}
		}
		// Pad to a 16-byte multiple: symbol alignment and SARM word size.
		common := (maxSize + 15) / 16 * 16
		for i := 0; i < 2; i++ {
			if err := pf.outs[i].frag.Pad(common); err != nil {
				return nil, fmt.Errorf("pad %s (%s): %w", f.Name, abis[i].Arch, err)
			}
		}
		pf.addr = cursor
		pf.size = uint64(common)
		cursor += pf.size
		funcs = append(funcs, pf)
	}

	// Symbol table shared by both binaries.
	symbols := make(map[string]uint64, len(funcs)+len(dataOff)+len(strOff))
	for _, pf := range funcs {
		symbols[pf.f.Name] = pf.addr
	}
	for name, off := range dataOff {
		symbols[name] = isa.DataBase + off
	}
	for sym, off := range strOff {
		symbols[sym] = isa.DataBase + off
	}
	resolve := func(name string) (uint64, error) {
		if addr, ok := symbols[name]; ok {
			return addr, nil
		}
		return 0, fmt.Errorf("undefined symbol %q", name)
	}

	// Assemble and collect metadata.
	meta := &stackmap.Metadata{}
	texts := [2][]byte{}
	for i := 0; i < 2; i++ {
		texts[i] = make([]byte, 0, cursor-isa.TextBase)
	}
	for _, pf := range funcs {
		mf := &stackmap.Func{
			Name:      pf.f.Name,
			Addr:      pf.addr,
			Size:      pf.size,
			NumParams: pf.f.NumParams,
			Blocking:  pf.f.Blocking,
			Wrapper:   pf.f.Wrapper,
		}
		// Slots with per-ISA offsets.
		for _, s := range pf.f.Slots {
			slot := stackmap.Slot{
				ID: s.ID, Name: s.Name, Size: s.Size, Ptr: s.Ptr,
				Kind: slotKind(s.Kind),
			}
			for i := 0; i < 2; i++ {
				slot.Off[i] = pf.outs[i].slotOff[s.ID]
				slot.PairAccessed[i] = pf.outs[i].pairSlots[s.ID]
			}
			mf.Slots = append(mf.Slots, slot)
		}
		entry := &stackmap.Site{ID: pf.f.EntrySiteID, Func: pf.f.Name, Kind: stackmap.SiteEntry}
		for p := 0; p < pf.f.NumParams; p++ {
			lv := stackmap.LiveValue{SlotID: p, Ptr: pf.f.ParamPtr[p]}
			for i := 0; i < 2; i++ {
				lv.Loc[i] = stackmap.Location{InReg: true, DwarfReg: abis[i].DwarfReg(abis[i].ArgRegs[p])}
			}
			entry.Live = append(entry.Live, lv)
		}
		mf.EntrySite = entry

		callSiteMetas := make([][]*stackmap.Site, 2)
		for i := 0; i < 2; i++ {
			mf.FrameLocal[i] = pf.outs[i].frameLocal
			code, labels, err := pf.outs[i].frag.Assemble(pf.addr, resolve)
			if err != nil {
				return nil, fmt.Errorf("assemble %s (%s): %w", pf.f.Name, abis[i].Arch, err)
			}
			if uint64(len(code)) != pf.size {
				return nil, fmt.Errorf("assemble %s (%s): size %d != %d", pf.f.Name, abis[i].Arch, len(code), pf.size)
			}
			texts[i] = append(texts[i], code...)
			entry.PCs[i] = stackmap.SitePCs{
				TrapPC:   labels[pf.outs[i].entry.trap],
				ResumePC: labels[pf.outs[i].entry.checkerStart],
			}
			for _, cs := range pf.outs[i].callSites {
				site := &stackmap.Site{ID: cs.siteID, Func: pf.f.Name, Kind: stackmap.SiteCall}
				site.PCs[i] = stackmap.SitePCs{RetAddr: labels[cs.retAddr]}
				callSiteMetas[i] = append(callSiteMetas[i], site)
			}
		}
		// Merge the two architectures' call-site PC views by site id.
		if len(callSiteMetas[0]) != len(callSiteMetas[1]) {
			return nil, fmt.Errorf("%s: call-site count mismatch across ISAs", pf.f.Name)
		}
		liveBySite := map[int][]int{}
		for _, b := range pf.f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					liveBySite[in.Site] = in.LiveSlots
				}
			}
		}
		for j, s0 := range callSiteMetas[0] {
			s1 := callSiteMetas[1][j]
			if s0.ID != s1.ID {
				return nil, fmt.Errorf("%s: call-site order mismatch across ISAs", pf.f.Name)
			}
			s0.PCs[1] = s1.PCs[1]
			for _, slotID := range liveBySite[s0.ID] {
				sd := pf.f.Slots[slotID]
				lv := stackmap.LiveValue{SlotID: slotID, Ptr: sd.Ptr}
				for i := 0; i < 2; i++ {
					lv.Loc[i] = stackmap.Location{FrameOff: pf.outs[i].slotOff[slotID]}
				}
				s0.Live = append(s0.Live, lv)
			}
			mf.CallSites = append(mf.CallSites, s0)
		}
		meta.Funcs = append(meta.Funcs, mf)
	}
	meta.Index()

	// The data section's flag word must start zeroed.
	binary.LittleEndian.PutUint64(data[0:], 0)

	mkBin := func(i int, arch isa.Arch) *Binary {
		return &Binary{
			Arch:       arch,
			Text:       texts[i],
			Data:       data,
			Entry:      symbols["_start"],
			ThreadExit: symbols["__thread_exit"],
			Symbols:    symbols,
			Meta:       meta,
		}
	}
	return &Pair{X86: mkBin(0, isa.SX86), ARM: mkBin(1, isa.SARM), Meta: meta, Prog: prog}, nil
}

func slotKind(k ir.SlotKind) stackmap.SlotKind {
	switch k {
	case ir.SlotParam:
		return stackmap.SlotParam
	case ir.SlotArray:
		return stackmap.SlotArray
	case ir.SlotTemp:
		return stackmap.SlotTemp
	default:
		return stackmap.SlotLocal
	}
}
