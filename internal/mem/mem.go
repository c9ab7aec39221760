// Package mem implements the simulated virtual address space shared by the
// kernel, the interpreters, and the CRIU layer.
//
// An AddressSpace is a set of VMAs (virtual memory areas) backed by 4 KiB
// pages that are populated on demand. Pages can also be populated by a
// fault handler, which is how post-copy ("lazy") migration retrieves
// missing pages from the source node's page server. The CRIU dumper walks
// VMAs and populated pages to produce the pagemap/pages images, exactly
// mirroring the structure of CRIU's memory dump.
//
// Word accesses — the interpreter's loads and stores — go through a small
// software TLB (see tlbEntry): a hit costs one compare and touches neither
// the VMA list nor the page table. Every method that changes what a page
// index means flushes it.
package mem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/dapper-sim/dapper/internal/isa"
)

// PageSize is the size of a simulated page.
const PageSize = isa.PageSize

// VMAKind classifies a virtual memory area.
type VMAKind uint8

// VMA kinds.
const (
	VMAText VMAKind = iota + 1
	VMAData
	VMAHeap
	VMAStack
	VMATLS
)

func (k VMAKind) String() string {
	switch k {
	case VMAText:
		return "text"
	case VMAData:
		return "data"
	case VMAHeap:
		return "heap"
	case VMAStack:
		return "stack"
	case VMATLS:
		return "tls"
	default:
		return fmt.Sprintf("VMAKind(%d)", uint8(k))
	}
}

// Prot bits for a VMA.
const (
	ProtRead  = 1 << 0
	ProtWrite = 1 << 1
	ProtExec  = 1 << 2
)

// VMA describes one mapped region. Start and End are page-aligned;
// End is exclusive.
type VMA struct {
	Start uint64
	End   uint64
	Kind  VMAKind
	Prot  uint8
	// TID associates stack and TLS areas with their thread.
	TID int
}

// Contains reports whether addr falls inside the area.
func (v VMA) Contains(addr uint64) bool { return addr >= v.Start && addr < v.End }

// FaultError reports an access outside any VMA (or a failed lazy fetch).
type FaultError struct {
	Addr  uint64
	Write bool
	Cause error
}

func (e *FaultError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	if e.Cause != nil {
		return fmt.Sprintf("mem: page fault on %s at 0x%x: %v", op, e.Addr, e.Cause)
	}
	return fmt.Sprintf("mem: segmentation fault on %s at 0x%x", op, e.Addr)
}

func (e *FaultError) Unwrap() error { return e.Cause }

// Page is one populated page of one address space: Data is its frame and
// Version its write version (used by the interpreter, together with the
// Page's identity, to invalidate its predecoded tables when code pages are
// rewritten or replaced). The frame may be a window of a buffer the space
// did not allocate and shares copy-on-write (InstallPages, or a frame a
// MappedPages callback kept): shared says so until the first write breaks
// the share by pointing the Page at a private copy. The Page itself is the
// space's own.
type Page struct {
	Data    *[PageSize]byte
	Version uint64
	shared  bool
}

// FaultHandler populates a missing page on first access. It fills frame,
// a zeroed frame the space allocated, which the space then installs as it
// is; on error the frame is dropped and the access faults. The handler
// must not keep frame. A nil handler means missing pages are demand-zero.
type FaultHandler func(pageAddr uint64, frame *[PageSize]byte) error

// tlbWays is the size of each software TLB. One entry each is not
// enough: a guest alternates between its stack, its globals, the heap and
// its TLS block, and with one entry consecutive loads evict each other
// (docs/perf.md, "Interpreter budget", has the miss counts).
const tlbWays = 64

// tlbEntry caches the verdict of the slow path for one page: tag is the
// page index plus one (so the zero value matches nothing), page the
// resident Page behind it and data that Page's frame, so a hit loads the
// bytes without going through the Page.
//
// An entry of the read TLB says the page is mapped and resident. An entry
// of the write TLB says in addition that the frame is private (not a
// copy-on-write share) and already marked soft-dirty, or that tracking is
// off — everything a store would otherwise have to establish — so a store
// that hits is a bounds check, PutUint64 and Version++.
type tlbEntry struct {
	tag  uint64
	data *[PageSize]byte
	page *Page
}

// tlbSlot spreads page indices over the ways. The address-space layout
// puts text, data, heap, TLS and stacks 2^28 bytes or more apart with
// equal low index bits, so the bits above the low sixteen are folded in.
func tlbSlot(idx uint64) uint64 { return (idx ^ idx>>16) % tlbWays }

// AddressSpace is a simulated virtual address space.
type AddressSpace struct {
	vmas []VMA // sorted by Start
	// table is the page table, in address order: table[i][j] is the page
	// at index vmas[i].Start/PageSize+j, or nil. A page outside every VMA
	// has no slot: it is never kept.
	table    [][]*Page
	resident int

	// rtlb and wtlb serve ReadU64 and WriteU64; they are separate so that
	// loads and stores do not evict each other. Instruction fetch has no
	// entry here: the interpreter holds its code frames itself and
	// revalidates them against epoch.
	rtlb, wtlb [tlbWays]tlbEntry
	// epoch counts TLB flushes, i.e. moments after which a page index may
	// name a different frame, or none.
	epoch uint64
	// tlbMisses counts word accesses that left the hit path.
	tlbMisses uint64

	fault FaultHandler
	lazy  []PageRange // SetLazyPages

	// tracking/dirty implement soft-dirty page tracking (see softdirty.go):
	// while tracking is on, every store records its page index in dirty.
	tracking bool
	dirty    map[uint64]bool

	// shared counts resident pages whose frame is shared: with the image
	// directory the space was restored from (InstallPages adopts its
	// pages.img, so N restores of one directory share it) or with a
	// checkpoint of this one (a dump's pages.img aliases the frames).
	shared    int
	cowBreaks uint64
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// SetFaultHandler installs a lazy-page handler; pass nil to restore
// demand-zero behaviour.
func (as *AddressSpace) SetFaultHandler(h FaultHandler) {
	as.fault = h
	as.flushTLB()
}

// PageRange is the pages with indices in [Start, End).
type PageRange struct{ Start, End uint64 }

// SetLazyPages records, sorted and disjoint, the pages a post-copy restore
// left on its source: absent here, and the fault handler's to fetch, ahead
// of their own faults if it likes.
func (as *AddressSpace) SetLazyPages(r []PageRange) { as.lazy = r }

// LazyPages returns what SetLazyPages recorded.
func (as *AddressSpace) LazyPages() []PageRange { return as.lazy }

// flushTLB forgets every cached verdict. Each method that changes what a
// page index means — which frame is behind it, whether it is mapped,
// shared or soft-dirty — calls it, so a hit never has to re-check.
func (as *AddressSpace) flushTLB() {
	as.rtlb = [tlbWays]tlbEntry{}
	as.wtlb = [tlbWays]tlbEntry{}
	as.epoch++
}

// Epoch changes whenever a page index may have come to name a different
// Page or none (a mapping change, a page installed or dropped). A caller
// that holds on to Pages CodePage gave it — the interpreter's predecoded
// code pages — must ask again once it moves. A copy-on-write break keeps
// the Page and moves its Version instead.
func (as *AddressSpace) Epoch() uint64 { return as.epoch }

// TLBMisses reports how many ReadU64/WriteU64 calls took the slow path
// (VMA search and page-table lookup) since the space was created.
func (as *AddressSpace) TLBMisses() uint64 { return as.tlbMisses }

// Map adds a VMA. It returns an error if the range is empty, unaligned, or
// overlaps an existing area.
func (as *AddressSpace) Map(v VMA) error {
	if v.Start >= v.End || v.Start%PageSize != 0 || v.End%PageSize != 0 {
		return fmt.Errorf("mem: bad VMA [0x%x, 0x%x)", v.Start, v.End)
	}
	for _, old := range as.vmas {
		if v.Start < old.End && old.Start < v.End {
			return fmt.Errorf("mem: VMA [0x%x, 0x%x) overlaps [0x%x, 0x%x)", v.Start, v.End, old.Start, old.End)
		}
	}
	i, _ := slices.BinarySearchFunc(as.vmas, v.Start, func(o VMA, start uint64) int { return cmp.Compare(o.Start, start) })
	as.vmas = slices.Insert(as.vmas, i, v)
	as.table = slices.Insert(as.table, i, make([]*Page, (v.End-v.Start)/PageSize))
	as.flushTLB()
	return nil
}

// Resize grows or shrinks the VMA whose start matches start (used by sbrk).
// A shrink drops the frames it unmaps, so a regrow maps demand-zero pages,
// and marks the range soft-dirty, as Linux does a re-mapped one: a parent
// dump's bytes for those pages are stale.
func (as *AddressSpace) Resize(start, newEnd uint64) error {
	for i, v := range as.vmas {
		if v.Start == start {
			if newEnd <= start || newEnd%PageSize != 0 {
				return fmt.Errorf("mem: bad resize of 0x%x to 0x%x", start, newEnd)
			}
			if i+1 < len(as.vmas) && newEnd > as.vmas[i+1].Start {
				return fmt.Errorf("mem: resize of 0x%x to 0x%x overlaps next VMA", start, newEnd)
			}
			for idx := newEnd / PageSize; idx < v.End/PageSize; idx++ {
				as.set(idx, nil) // a regrow must find the slot empty
				as.markDirty(idx)
			}
			n, t := int((newEnd-start)/PageSize), as.table[i]
			as.table[i] = slices.Grow(t[:min(n, len(t))], max(n-len(t), 0))[:n] // in place: a shrink left the tail nil
			as.vmas[i].End = newEnd
			as.flushTLB()
			return nil
		}
	}
	return fmt.Errorf("mem: no VMA starts at 0x%x", start)
}

// VMAs returns a copy of the area list, sorted by start address.
func (as *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

// FindVMA returns the area containing addr.
func (as *AddressSpace) FindVMA(addr uint64) (VMA, bool) {
	if i := as.vmaAt(addr); i >= 0 {
		return as.vmas[i], true
	}
	return VMA{}, false
}

// vmaAt returns the index of the area containing addr, or -1. There are a
// dozen or so, sorted: the first one ending above addr decides.
func (as *AddressSpace) vmaAt(addr uint64) int {
	for i := range as.vmas {
		if v := &as.vmas[i]; addr < v.End {
			if addr >= v.Start {
				return i
			}
			break
		}
	}
	return -1
}

// slot returns where the page table keeps page idx, its VMA's slot, or
// nil if no VMA contains it.
func (as *AddressSpace) slot(idx uint64) **Page {
	if i := as.vmaAt(idx * PageSize); i >= 0 {
		return &as.table[i][idx-as.vmas[i].Start/PageSize]
	}
	return nil
}

// set makes p (nil: none) the page at idx, keeping the counts. Outside
// every VMA there is no page to drop, and p is not kept.
func (as *AddressSpace) set(idx uint64, p *Page) {
	if s := as.slot(idx); s != nil {
		as.count(*s, -1)
		as.count(p, 1)
		*s = p
	}
}

// count adds n to the resident count, and to the shared one if p is a share.
func (as *AddressSpace) count(p *Page, n int) {
	if p != nil {
		as.resident += n
		if p.shared {
			as.shared += n
		}
	}
}

// page returns the page containing addr, populating it on demand, or a
// FaultError if no VMA contains addr: one area search decides both.
func (as *AddressSpace) page(addr uint64, write bool) (*Page, error) {
	i := as.vmaAt(addr)
	if i < 0 {
		return nil, &FaultError{Addr: addr, Write: write}
	}
	s := &as.table[i][(addr-as.vmas[i].Start)/PageSize]
	if *s == nil {
		frame := new([PageSize]byte)
		if as.fault != nil {
			if err := as.fault(addr/PageSize*PageSize, frame); err != nil {
				return nil, &FaultError{Addr: addr, Cause: err}
			}
		}
		as.fill(s, frame)
	}
	return *s, nil
}

// fill installs frame as the page of the empty slot s, as a fault does:
// private, and with nothing cached to flush.
func (as *AddressSpace) fill(s **Page, frame *[PageSize]byte) {
	*s = &Page{Data: frame}
	as.resident++
}

// FillPage installs frame, which the space then owns, as page idx exactly
// as a fault installs its handler's frame, if idx is in a VMA and has no
// page: it never replaces one. A fault handler may call it for other pages
// (criu's post-copy handler lands the rest of a fetched run this way).
func (as *AddressSpace) FillPage(idx uint64, frame *[PageSize]byte) bool {
	s := as.slot(idx)
	if s == nil || *s != nil {
		return false
	}
	as.fill(s, frame)
	return true
}

// ReadU64 reads an 8-byte little-endian word.
func (as *AddressSpace) ReadU64(addr uint64) (uint64, error) {
	idx, off := addr/PageSize, addr%PageSize
	if e := &as.rtlb[tlbSlot(idx)]; e.tag == idx+1 && off <= PageSize-8 {
		return binary.LittleEndian.Uint64(e.data[off:]), nil
	}
	return as.readU64Slow(addr)
}

func (as *AddressSpace) readU64Slow(addr uint64) (uint64, error) {
	as.tlbMisses++
	idx, off := addr/PageSize, addr%PageSize
	if off <= PageSize-8 {
		p, err := as.page(addr, false)
		if err != nil {
			return 0, err
		}
		as.rtlb[tlbSlot(idx)] = tlbEntry{tag: idx + 1, data: p.Data, page: p}
		return binary.LittleEndian.Uint64(p.Data[off:]), nil
	}
	// VMAs are page-aligned: a word across a page end needs two verdicts.
	if as.vmaAt(addr) < 0 || as.vmaAt(addr+7) < 0 {
		return 0, &FaultError{Addr: addr}
	}
	var buf [8]byte
	if err := as.ReadBytes(addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// pageForWrite returns the page containing addr, breaking a
// copy-on-write share first, so the store never reaches the directory,
// the other restores or the dump still reading the shared frame. The
// break is in place: the Page takes a private copy of its frame (not
// zeroed first), and only the read TLB slot that held the shared frame
// is cleared — no write entry can name a shared page. The store that
// follows moves Version, which is what the interpreter's code tables
// check. Every mutating path must come through here.
func (as *AddressSpace) pageForWrite(addr uint64) (*Page, error) {
	p, err := as.page(addr, true)
	if err != nil {
		return nil, err
	}
	if p.shared {
		p.Data = (*[PageSize]byte)(bytes.Clone(p.Data[:]))
		p.shared = false
		as.shared--
		as.cowBreaks++
		as.rtlb[tlbSlot(addr/PageSize)] = tlbEntry{}
	}
	return p, nil
}

// WriteU64 writes an 8-byte little-endian word.
func (as *AddressSpace) WriteU64(addr, v uint64) error {
	idx, off := addr/PageSize, addr%PageSize
	if e := &as.wtlb[tlbSlot(idx)]; e.tag == idx+1 && off <= PageSize-8 {
		binary.LittleEndian.PutUint64(e.data[off:], v)
		e.page.Version++
		return nil
	}
	return as.writeU64Slow(addr, v)
}

func (as *AddressSpace) writeU64Slow(addr, v uint64) error {
	as.tlbMisses++
	idx, off := addr/PageSize, addr%PageSize
	if off <= PageSize-8 {
		p, err := as.pageForWrite(addr)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(p.Data[off:], v)
		p.Version++
		as.markDirty(idx)
		// The frame is now private, resident and marked: later stores to
		// the page need none of the above until something flushes.
		as.wtlb[tlbSlot(idx)] = tlbEntry{tag: idx + 1, data: p.Data, page: p}
		return nil
	}
	if as.vmaAt(addr) < 0 || as.vmaAt(addr+7) < 0 {
		return &FaultError{Addr: addr, Write: true}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return as.WriteBytes(addr, buf[:])
}

// ReadBytes fills p from memory starting at addr. VMAs are page-aligned,
// so a page either is readable to its end or faults at its first byte.
func (as *AddressSpace) ReadBytes(addr uint64, p []byte) error {
	for len(p) > 0 {
		pg, err := as.page(addr, false)
		if err != nil {
			return err
		}
		n := copy(p, pg.Data[addr%PageSize:])
		addr += uint64(n)
		p = p[n:]
	}
	return nil
}

// ReadAvail reads up to len(p) bytes, stopping at the first unmapped
// address, and returns the number of bytes read. Used by the interpreter to
// fetch instruction bytes near the end of the text area.
func (as *AddressSpace) ReadAvail(addr uint64, p []byte) int {
	read := 0
	for len(p) > 0 {
		pg, err := as.page(addr, false)
		if err != nil {
			return read
		}
		off := addr % PageSize
		n := copy(p, pg.Data[off:])
		addr += uint64(n)
		p = p[n:]
		read += n
	}
	return read
}

// WriteBytes copies p into memory starting at addr.
func (as *AddressSpace) WriteBytes(addr uint64, p []byte) error {
	for len(p) > 0 {
		pg, err := as.pageForWrite(addr)
		if err != nil {
			return err
		}
		off := addr % PageSize
		n := copy(pg.Data[off:], p)
		pg.Version++
		as.markDirty(addr / PageSize)
		addr += uint64(n)
		p = p[n:]
	}
	return nil
}

// CodePage returns the page with index idx for instruction fetch. The
// page must be inside a mapped VMA. The answer holds until Epoch moves;
// its bytes until its Version does.
func (as *AddressSpace) CodePage(idx uint64) (*Page, error) {
	return as.page(idx*PageSize, false)
}

// MappedPages calls fn for every resident page inside a VMA, in address
// order, with its VMA, index and frame (read-only, as PageData); a frame fn
// keeps (returns true for) becomes a copy-on-write share, with one TLB
// flush and no copy: a dump keeps those frames as its snapshot
// (criu.Dump), and the space's next store to one of the pages privatizes
// a copy instead.
func (as *AddressSpace) MappedPages(fn func(v VMA, idx uint64, data []byte) (keep bool)) {
	shared := as.shared
	for i, v := range as.vmas {
		for j, p := range as.table[i] {
			if p != nil && fn(v, v.Start/PageSize+uint64(j), p.Data[:]) && !p.shared {
				p.shared = true
				as.shared++
			}
		}
	}
	if as.shared != shared {
		as.flushTLB()
	}
}

// PageData returns the contents of page idx if it is resident: the frame
// itself, read-only, which a store changes unless MappedPages kept it.
func (as *AddressSpace) PageData(idx uint64) ([]byte, bool) {
	if s := as.slot(idx); s != nil && *s != nil {
		return (*s).Data[:], true
	}
	return nil, false
}

// InstallPage populates page idx with a private copy of data (up to
// PageSize bytes; nil yields a zero page) without going through the fault
// handler (used by restore, which maps an image's VMAs first: a page
// outside every VMA is not kept).
func (as *AddressSpace) InstallPage(idx uint64, data []byte) {
	as.markDirty(idx)
	p := &Page{Data: new([PageSize]byte), Version: 1}
	copy(p.Data[:], data)
	as.set(idx, p)
	as.flushTLB()
}

// InstallPages adopts data(i), exactly PageSize bytes, as the frame of
// page idxs[i] for every i — restore's install, which copies nothing. The
// bytes stay the caller's: every page is a copy-on-write share, so the
// space reads them in place and its first store to a page copies that
// page alone, and N spaces adopting one buffer share it by construction.
// The caller must never write through them again, and they stay alive
// until the last space's share of each is broken or dropped. The Pages
// are the space's own, one allocation, and what the pages mean changes
// once, so the TLBs are flushed once however many pages land.
func (as *AddressSpace) InstallPages(idxs []uint64, data func(i int) []byte) {
	pages := make([]Page, len(idxs))
	for i, idx := range idxs {
		p := &pages[i]
		p.Data, p.Version, p.shared = (*[PageSize]byte)(data(i)), 1, true
		as.markDirty(idx)
		as.set(idx, p)
	}
	as.flushTLB()
}

// SharedResidentPages reports how many resident pages are still
// copy-on-write shares (adopted by InstallPages or kept by MappedPages,
// not yet written).
func (as *AddressSpace) SharedResidentPages() int { return as.shared }

// CowBreaks reports how many shared pages this space has privatized on
// first write.
func (as *AddressSpace) CowBreaks() uint64 { return as.cowBreaks }

// ResidentBytes returns the number of bytes in populated pages.
func (as *AddressSpace) ResidentBytes() uint64 { return uint64(as.resident) * PageSize }
