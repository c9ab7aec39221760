// Package stackmap defines the compile-time metadata DAPPER inserts into
// binaries to guide runtime state transformation: per-function frame
// layouts (slots) and per-equivalence-point live-value records (sites),
// with locations for *both* architectures, mirroring the paper's LLVM
// stack-map records (Fig. 4).
//
// Its img struct tags are the DELF wire format of the metadata section
// (internal/imgproto).
//
// The metadata is consumed by three parties: the runtime monitor (to
// validate trap PCs and roll blocked threads back to wrapper entries), the
// process rewriter (to translate registers and rebuild stacks across
// ABIs), and the stack shuffler (to permute slot offsets and re-encode
// frame-relative instructions).
package stackmap

import (
	"fmt"
	"sort"

	"github.com/dapper-sim/dapper/internal/isa"
)

// ArchIdx indexes the per-architecture arrays in this package.
func ArchIdx(a isa.Arch) int {
	if a == isa.SX86 {
		return 0
	}
	return 1
}

// Location says where a live value resides at a site on one architecture.
type Location struct {
	// InReg: the value is in the register with the given DWARF number.
	InReg    bool `img:"1"`
	DwarfReg int  `img:"2,zigzag"`
	// Otherwise it is in the frame slot at FP - FrameOff.
	FrameOff int64 `img:"3,zigzag"`
}

func (l Location) String() string {
	if l.InReg {
		return fmt.Sprintf("reg(dwarf %d)", l.DwarfReg)
	}
	return fmt.Sprintf("frame(fp-%d)", l.FrameOff)
}

// LiveValue is one live value record at a site.
type LiveValue struct {
	// SlotID identifies the value (parameter i uses slot id i).
	SlotID int `img:"1"`
	// Ptr marks pointer-typed values whose stack references must be
	// remapped when frames are rebuilt for the other ABI.
	Ptr bool `img:"2"`
	// Loc gives the value's location per architecture (ArchIdx order).
	Loc [2]Location `img:"3"`
}

// SiteKind distinguishes equivalence-point flavors.
type SiteKind uint8

// Site kinds.
const (
	SiteEntry SiteKind = iota + 1 // function entry (trap location)
	SiteCall                      // call site (return-address record)
)

// SitePCs are the per-architecture program counters of a site.
type SitePCs struct {
	// TrapPC is the address of the TRAP instruction (entry sites).
	TrapPC uint64 `img:"1,fixed"`
	// ResumePC is where execution resumes after a transform: the checker
	// start for entry sites (the checker re-reads the now-clear flag).
	ResumePC uint64 `img:"2,fixed"`
	// RetAddr is the return address of a call site (the PC immediately
	// after the CALL/BL instruction).
	RetAddr uint64 `img:"3,fixed"`
}

// Site is one equivalence point.
type Site struct {
	ID   int         `img:"1"`
	Func string      `img:"2"`
	Kind SiteKind    `img:"3"`
	PCs  [2]SitePCs  `img:"4"`
	Live []LiveValue `img:"5"`
}

// SlotKind classifies frame slots.
type SlotKind uint8

// Slot kinds.
const (
	SlotParam SlotKind = iota + 1
	SlotLocal
	SlotArray
	SlotTemp // compiler spill temporaries
)

// Slot describes one frame slot of a function.
type Slot struct {
	ID   int      `img:"1"`
	Name string   `img:"2"`
	Kind SlotKind `img:"3"`
	// Size in bytes (8 for scalars, 8*len for arrays).
	Size int64 `img:"4,zigzag"`
	// Ptr marks pointer-typed scalar slots.
	Ptr bool `img:"5"`
	// Off is the per-architecture frame offset: the slot occupies
	// [FP-Off, FP-Off+Size).
	Off [2]int64 `img:"6,zigzag,split"`
	// PairAccessed marks slots touched by LDP/STP pair instructions on
	// the given architecture; the stack shuffler excludes them (the
	// paper's explanation for the lower aarch64 entropy). Indexed like
	// Off.
	PairAccessed [2]bool `img:"8,split"`
}

// Func is the per-function metadata record.
type Func struct {
	Name string `img:"1"`
	// Addr and Size are identical across architectures (the aligned
	// unified address space).
	Addr uint64 `img:"2,fixed"`
	Size uint64 `img:"3,fixed"`
	// NumParams counts declared parameters (slots 0..NumParams-1).
	NumParams int `img:"4"`
	// Blocking marks runtime wrappers around blocking syscalls: threads
	// found blocked inside one are rolled back to its entry site.
	Blocking bool `img:"5"`
	// Wrapper marks all compiler-emitted runtime functions.
	Wrapper bool `img:"6"`
	// FrameLocal is the per-architecture size of the locals area
	// (excluding the fixed saved-FP/return-address header).
	FrameLocal [2]int64 `img:"7,zigzag,split"`
	Slots      []Slot   `img:"9"`
	// EntrySite is the function's entry equivalence point; CallSites are
	// within its body.
	EntrySite *Site   `img:"10"`
	CallSites []*Site `img:"11"`
}

// SlotByID returns the slot record with the given id.
func (f *Func) SlotByID(id int) (*Slot, bool) {
	for i := range f.Slots {
		if f.Slots[i].ID == id {
			return &f.Slots[i], true
		}
	}
	return nil, false
}

// Metadata is the program-level stack map, embedded in both binaries.
type Metadata struct {
	Funcs []*Func `img:"1"`

	byName    map[string]*Func
	byRetAddr [2]map[uint64]*Site
	byTrapPC  [2]map[uint64]*Site
}

// Index builds the lookup tables; call once after construction or decode.
func (m *Metadata) Index() {
	m.byName = make(map[string]*Func, len(m.Funcs))
	for i := 0; i < 2; i++ {
		m.byRetAddr[i] = make(map[uint64]*Site)
		m.byTrapPC[i] = make(map[uint64]*Site)
	}
	for _, f := range m.Funcs {
		m.byName[f.Name] = f
		for i := 0; i < 2; i++ {
			if f.EntrySite != nil {
				m.byTrapPC[i][f.EntrySite.PCs[i].TrapPC] = f.EntrySite
			}
			for _, s := range f.CallSites {
				m.byRetAddr[i][s.PCs[i].RetAddr] = s
			}
		}
	}
	sort.Slice(m.Funcs, func(i, j int) bool { return m.Funcs[i].Addr < m.Funcs[j].Addr })
}

// FuncByName looks a function up by name.
func (m *Metadata) FuncByName(name string) (*Func, bool) {
	f, ok := m.byName[name]
	return f, ok
}

// FuncByPC returns the function containing pc (address ranges are
// architecture-independent).
func (m *Metadata) FuncByPC(pc uint64) (*Func, bool) {
	i := sort.Search(len(m.Funcs), func(i int) bool { return m.Funcs[i].Addr+m.Funcs[i].Size > pc })
	if i < len(m.Funcs) && pc >= m.Funcs[i].Addr {
		return m.Funcs[i], true
	}
	return nil, false
}

// SiteByTrapPC resolves a trapped thread's PC to its entry site.
func (m *Metadata) SiteByTrapPC(arch isa.Arch, pc uint64) (*Site, bool) {
	s, ok := m.byTrapPC[ArchIdx(arch)][pc]
	return s, ok
}

// SiteByRetAddr resolves a return address found during stack unwinding.
func (m *Metadata) SiteByRetAddr(arch isa.Arch, pc uint64) (*Site, bool) {
	s, ok := m.byRetAddr[ArchIdx(arch)][pc]
	return s, ok
}

// Clone deep-copies the metadata (with fresh indexes). The stack shuffler
// clones before permuting slot offsets so the original binary's metadata
// stays valid for the source side of the rewrite.
func (m *Metadata) Clone() *Metadata {
	out := &Metadata{Funcs: make([]*Func, 0, len(m.Funcs))}
	for _, f := range m.Funcs {
		nf := &Func{
			Name: f.Name, Addr: f.Addr, Size: f.Size, NumParams: f.NumParams,
			Blocking: f.Blocking, Wrapper: f.Wrapper, FrameLocal: f.FrameLocal,
			Slots: append([]Slot(nil), f.Slots...),
		}
		nf.EntrySite = cloneSite(f.EntrySite)
		for _, s := range f.CallSites {
			nf.CallSites = append(nf.CallSites, cloneSite(s))
		}
		out.Funcs = append(out.Funcs, nf)
	}
	out.Index()
	return out
}

func cloneSite(s *Site) *Site {
	if s == nil {
		return nil
	}
	ns := *s
	ns.Live = append([]LiveValue(nil), s.Live...)
	return &ns
}
