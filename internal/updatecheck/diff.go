package updatecheck

import (
	"fmt"
	"sort"

	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// Class is the verdict for one old→new function pair.
type Class uint8

// Verdicts, from best to worst.
const (
	// ClassSafe: the state contract is bit-identical — same slot ids,
	// offsets on both architectures, site ids and PCs. A paused frame of
	// the old binary is byte-for-byte a frame of the new one.
	ClassSafe Class = iota + 1
	// ClassMappable: slots were renumbered, renamed, or relocated but map
	// bijectively onto the new frame; the SlotMap table tells an
	// OSR-style executor where each old value goes.
	ClassMappable
	// ClassBlocking: arity, live-set, or slot-shape changed in a way no
	// mapping can bridge; a live frame of this function must drain before
	// the update can land.
	ClassBlocking
)

func (c Class) String() string {
	switch c {
	case ClassSafe:
		return "safe"
	case ClassMappable:
		return "mappable"
	case ClassBlocking:
		return "blocking"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// SlotMapping is one row of the machine-readable slot-mapping table: how
// one old frame slot lands in the new frame. OldOff/NewOff are indexed
// by stackmap.ArchIdx.
type SlotMapping struct {
	Name   string
	OldID  int
	NewID  int
	Kind   stackmap.SlotKind
	Size   int64
	Ptr    bool
	OldOff [2]int64
	NewOff [2]int64
}

// FuncDiff is the classification of one old-binary function against the
// new binary.
type FuncDiff struct {
	Name  string
	Class Class
	// Identity is true when the mapping is the identity on slot ids, site
	// ids, and live sets — the condition for today's exact-match live
	// update executor, which transfers state by id without consulting a
	// mapping table. Frame *offsets* may still differ (the stack shuffler
	// relies on this: the rewriter reads and writes through each side's
	// own metadata).
	Identity bool
	// SlotMap maps every paired slot; for ClassMappable frames it is the
	// transformation recipe, for ClassSafe it is the identity.
	SlotMap []SlotMapping
	// Violations names each broken invariant (ClassBlocking only).
	Violations []Violation
}

// DiffReport is the full cross-version classification: one FuncDiff per
// old-binary function in address order, plus global-layout violations in
// address order.
type DiffReport struct {
	Funcs   []FuncDiff
	Globals []Violation
}

// Func returns the diff for one function, or nil.
func (d *DiffReport) Func(name string) *FuncDiff {
	for i := range d.Funcs {
		if d.Funcs[i].Name == name {
			return &d.Funcs[i]
		}
	}
	return nil
}

// Blocking returns the diffs classified blocking.
func (d *DiffReport) Blocking() []*FuncDiff {
	var out []*FuncDiff
	for i := range d.Funcs {
		if d.Funcs[i].Class == ClassBlocking {
			out = append(out, &d.Funcs[i])
		}
	}
	return out
}

// Err returns nil when the update can be applied at all — no blocking
// function and an unchanged global layout — and an error naming every
// violated invariant otherwise.
func (d *DiffReport) Err() error {
	r := &Report{}
	for i := range d.Funcs {
		if d.Funcs[i].Class == ClassBlocking {
			r.Violations = append(r.Violations, d.Funcs[i].Violations...)
		}
	}
	r.Violations = append(r.Violations, d.Globals...)
	return r.Err()
}

// Diff classifies every function of the old binary against the new one.
// Only metadata and symbols are consulted (Text and Arch may be zero):
// the state contract lives entirely in the stack maps.
func Diff(oldB, newB *Binary) *DiffReport {
	d := &DiffReport{}
	var oldFuncs []*stackmap.Func
	if oldB.Meta != nil {
		oldFuncs = append(oldFuncs, oldB.Meta.Funcs...)
	}
	sort.Slice(oldFuncs, func(i, j int) bool { return oldFuncs[i].Addr < oldFuncs[j].Addr })
	newByName := make(map[string]*stackmap.Func)
	if newB.Meta != nil {
		for _, f := range newB.Meta.Funcs {
			newByName[f.Name] = f
		}
	}
	for _, of := range oldFuncs {
		nf, ok := newByName[of.Name]
		if !ok {
			d.Funcs = append(d.Funcs, FuncDiff{
				Name:  of.Name,
				Class: ClassBlocking,
				Violations: []Violation{{InvFuncRemoved,
					fmt.Sprintf("func %s (0x%x) has no counterpart in the new binary", of.Name, of.Addr)}},
			})
			continue
		}
		d.Funcs = append(d.Funcs, diffFunc(of, nf))
	}
	d.Globals = diffGlobals(oldB.Symbols, newB.Symbols)
	return d
}

// diffFunc builds the slot bijection and compares the site structure of
// one function pair.
func diffFunc(of, nf *stackmap.Func) FuncDiff {
	fd := FuncDiff{Name: of.Name, Identity: true}
	add := func(inv, format string, args ...any) {
		fd.Violations = append(fd.Violations, Violation{inv, fmt.Sprintf(format, args...)})
	}

	if of.NumParams != nf.NumParams {
		add(InvFuncArity, "func %s: %d parameters -> %d; a live caller's argument frame cannot be re-shaped",
			of.Name, of.NumParams, nf.NumParams)
		fd.Class = ClassBlocking
		return fd
	}

	// Slot bijection. Parameters pair positionally (slot i is parameter
	// i on both sides); other slots pair by name first — DapC slot names
	// are the unique source-level variable (or spill temp) names — then
	// leftovers pair by shape in declaration order.
	mapTo := make(map[int]int, len(of.Slots))
	usedNew := make(map[int]bool, len(nf.Slots))
	pair := func(os, ns *stackmap.Slot) {
		if os.Kind != ns.Kind || os.Size != ns.Size || os.Ptr != ns.Ptr {
			add(InvSlotShape, "func %s: slot %q changes shape (kind %d size %d ptr %v -> kind %d size %d ptr %v)",
				of.Name, os.Name, os.Kind, os.Size, os.Ptr, ns.Kind, ns.Size, ns.Ptr)
			return
		}
		mapTo[os.ID] = ns.ID
		usedNew[ns.ID] = true
		if os.ID != ns.ID {
			fd.Identity = false
		}
		fd.SlotMap = append(fd.SlotMap, SlotMapping{
			Name: os.Name, OldID: os.ID, NewID: ns.ID,
			Kind: os.Kind, Size: os.Size, Ptr: os.Ptr,
			OldOff: os.Off, NewOff: ns.Off,
		})
	}
	for id := 0; id < of.NumParams; id++ {
		os, ok1 := of.SlotByID(id)
		ns, ok2 := nf.SlotByID(id)
		if !ok1 || !ok2 {
			add(InvSlotShape, "func %s: parameter slot %d missing from the slot table", of.Name, id)
			continue
		}
		pair(os, ns)
	}
	newLocalByName := make(map[string]*stackmap.Slot)
	for i := range nf.Slots {
		if s := &nf.Slots[i]; s.ID >= nf.NumParams {
			newLocalByName[s.Name] = s
		}
	}
	var oldLeft []*stackmap.Slot
	for i := range of.Slots {
		s := &of.Slots[i]
		if s.ID < of.NumParams {
			continue
		}
		if ns, ok := newLocalByName[s.Name]; ok && !usedNew[ns.ID] {
			pair(s, ns)
		} else {
			oldLeft = append(oldLeft, s)
		}
	}
	for _, s := range oldLeft {
		for i := range nf.Slots {
			ns := &nf.Slots[i]
			if ns.ID >= nf.NumParams && !usedNew[ns.ID] &&
				ns.Kind == s.Kind && ns.Size == s.Size && ns.Ptr == s.Ptr {
				fd.Identity = false // paired across a rename
				pair(s, ns)
				break
			}
		}
	}

	// An unpaired old slot is only fatal if its value is live somewhere:
	// dead locals may come and go freely.
	liveOld := make(map[int]bool)
	forEachSite(of, func(s *stackmap.Site) {
		for _, lv := range s.Live {
			liveOld[lv.SlotID] = true
		}
	})
	for i := range of.Slots {
		s := &of.Slots[i]
		if _, ok := mapTo[s.ID]; !ok && liveOld[s.ID] {
			add(InvSlotShape, "func %s: live slot %d (%s) has no counterpart in the new frame",
				of.Name, s.ID, s.Name)
		}
	}

	// Site structure: the equivalence points a paused frame can be
	// sitting at must correspond one-to-one, with live sets that agree
	// through the slot mapping.
	switch {
	case (of.EntrySite == nil) != (nf.EntrySite == nil):
		add(InvSiteStructure, "func %s: entry equivalence point added or removed", of.Name)
	case of.EntrySite != nil:
		diffSite(&fd, of, of.EntrySite, nf.EntrySite, mapTo, add)
	}
	if len(of.CallSites) != len(nf.CallSites) {
		add(InvSiteStructure, "func %s: %d call sites -> %d; a paused frame's site index is ambiguous",
			of.Name, len(of.CallSites), len(nf.CallSites))
	} else {
		for i := range of.CallSites {
			diffSite(&fd, of, of.CallSites[i], nf.CallSites[i], mapTo, add)
		}
	}

	if len(fd.Violations) > 0 {
		fd.Class = ClassBlocking
		return fd
	}
	if fd.Identity && sameLayout(of, nf) {
		fd.Class = ClassSafe
	} else {
		fd.Class = ClassMappable
	}
	return fd
}

// diffSite compares one paired equivalence point's live sets through the
// slot mapping.
func diffSite(fd *FuncDiff, of *stackmap.Func, os, ns *stackmap.Site, mapTo map[int]int, add func(string, string, ...any)) {
	if os.Kind != ns.Kind {
		add(InvSiteStructure, "func %s: site %d kind changes (%d -> %d)", of.Name, os.ID, os.Kind, ns.Kind)
		return
	}
	if os.ID != ns.ID {
		fd.Identity = false
	}
	want := make(map[int]bool, len(os.Live))
	for _, lv := range os.Live {
		nid, ok := mapTo[lv.SlotID]
		if !ok {
			// Already reported as an unpaired live slot.
			return
		}
		want[nid] = true
		if nid != lv.SlotID {
			fd.Identity = false
		}
	}
	got := make(map[int]bool, len(ns.Live))
	for _, lv := range ns.Live {
		got[lv.SlotID] = true
	}
	for nid := range want {
		if !got[nid] {
			add(InvLiveSet, "func %s: site %d: old live value (new slot %d) is dead in the new binary; its state would be dropped",
				of.Name, os.ID, nid)
		}
	}
	for nid := range got {
		if !want[nid] {
			add(InvLiveSet, "func %s: site %d: new binary expects slot %d live, but the old frame holds no value for it",
				of.Name, os.ID, nid)
		}
	}
}

// sameLayout reports whether the physical layout — addresses, frame
// sizes, slot offsets on both architectures, and site PCs — is
// unchanged, the extra condition that upgrades mappable to safe.
func sameLayout(of, nf *stackmap.Func) bool {
	if of.Addr != nf.Addr || of.Size != nf.Size || of.FrameLocal != nf.FrameLocal || len(of.Slots) != len(nf.Slots) {
		return false
	}
	for i := range of.Slots {
		ns, ok := nf.SlotByID(of.Slots[i].ID)
		if !ok || of.Slots[i].Off != ns.Off {
			return false
		}
	}
	same := true
	n := 0
	forEachSite(of, func(s *stackmap.Site) { n++ })
	i := 0
	nsites := make([]*stackmap.Site, 0, n)
	forEachSite(nf, func(s *stackmap.Site) { nsites = append(nsites, s) })
	forEachSite(of, func(s *stackmap.Site) {
		if i >= len(nsites) || s.PCs != nsites[i].PCs {
			same = false
		}
		i++
	})
	return same && i == len(nsites)
}

// forEachSite visits the entry site then the call sites.
func forEachSite(f *stackmap.Func, visit func(*stackmap.Site)) {
	if f.EntrySite != nil {
		visit(f.EntrySite)
	}
	for _, s := range f.CallSites {
		visit(s)
	}
}

// diffGlobals checks the unified data-section layout: DAPPER's global
// address space guarantee means a pointer to a global stays valid across
// a rewrite only if the update neither moves nor removes it. Appending
// new globals is always fine.
func diffGlobals(oldSyms, newSyms map[string]uint64) []Violation {
	type global struct {
		name string
		addr uint64
	}
	var gs []global
	for name, addr := range oldSyms {
		if addr >= isa.DataBase && addr < isa.HeapBase {
			gs = append(gs, global{name, addr})
		}
	}
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].addr != gs[j].addr {
			return gs[i].addr < gs[j].addr
		}
		return gs[i].name < gs[j].name
	})
	var out []Violation
	for _, g := range gs {
		naddr, ok := newSyms[g.name]
		switch {
		case !ok:
			out = append(out, Violation{InvGlobalRemoved,
				fmt.Sprintf("update removes global %q (0x%x); live pointers to it would dangle", g.name, g.addr)})
		case naddr != g.addr:
			out = append(out, Violation{InvGlobalMoved,
				fmt.Sprintf("update moves global %q (0x%x -> 0x%x); live pointers would read the wrong word", g.name, g.addr, naddr)})
		}
	}
	return out
}

// Compatible reports whether the new binary can adopt live state
// checkpointed against the old one under the *current* executor, which
// transfers state by slot id with no mapping table: every function must
// classify safe or identity-mappable, and the global layout must be
// unchanged. This is the classifier core.LiveUpdatePolicy runs.
func Compatible(oldB, newB *Binary) error {
	d := Diff(oldB, newB)
	r := &Report{}
	for i := range d.Funcs {
		fd := &d.Funcs[i]
		switch {
		case fd.Class == ClassBlocking:
			r.Violations = append(r.Violations, fd.Violations...)
		case !fd.Identity:
			r.add(InvLiveSet, "func %s: state contract is mappable but not identical; the live-update executor requires an identity mapping",
				fd.Name)
		}
	}
	r.Violations = append(r.Violations, d.Globals...)
	return r.Err()
}
