// Package image defines DAPPER's checkpoint image formats: the typed
// views of the files in an image directory (core-<tid>, mm, pagemap,
// pages, files, inventory) in a protobuf-style wire format, the in-memory
// ImageDir holding them, and the editable PageSet over pagemap+pages.
//
// The decomposition mirrors CRIU's: per-thread register state in core
// images, the VMA list in mm, resident page runs in pagemap+pages, and
// the executable path in files — the exact files the DAPPER process
// rewriter edits. The package is the one reader of an image directory:
// View (view.go) decodes every file once, and dump, restore, the
// rewriter, CRIT and the static verifiers all work from it. It sits below
// internal/criu, whose images.go keeps a few of these names alive as
// aliases, so a verifier reads images without pulling in the
// checkpoint/restore machinery.
package image

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
)

// CoreImage is core-<tid>.img: one thread's architectural state.
type CoreImage struct {
	TID       int         `json:"tid"`
	Arch      isa.Arch    `json:"arch"`
	Regs      isa.RegFile `json:"regs"`
	StackLow  uint64      `json:"stackLow"`
	StackHigh uint64      `json:"stackHigh"`
	TLSBlock  uint64      `json:"tlsBlock"`
}

// Marshal encodes the image.
func (c *CoreImage) Marshal() []byte {
	var e imgproto.Encoder
	e.Uint64(1, uint64(c.TID))
	e.Uint64(2, uint64(c.Arch))
	for _, r := range c.Regs.R {
		e.Fixed64(3, r)
	}
	e.Fixed64(4, c.Regs.PC)
	e.Fixed64(5, c.Regs.TLS)
	e.Fixed64(6, c.StackLow)
	e.Fixed64(7, c.StackHigh)
	e.Fixed64(8, c.TLSBlock)
	return e.Bytes()
}

// UnmarshalCore decodes a core image.
func UnmarshalCore(b []byte) (*CoreImage, error) {
	c := &CoreImage{}
	nreg := 0
	err := imgproto.NewDecoder(b).Each(func(f uint32, d *imgproto.Decoder) error {
		v, err := d.FieldUint64()
		if err != nil {
			return err
		}
		switch f {
		case 1:
			c.TID = int(v)
		case 2:
			c.Arch = isa.Arch(v)
		case 3:
			if nreg < isa.NumRegs {
				c.Regs.R[nreg] = v
				nreg++
			}
		case 4:
			c.Regs.PC = v
		case 5:
			c.Regs.TLS = v
		case 6:
			c.StackLow = v
		case 7:
			c.StackHigh = v
		case 8:
			c.TLSBlock = v
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("image: core image: %w", err)
	}
	return c, nil
}

// VMAEntry describes one mapped area in the mm image.
type VMAEntry struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	Kind  uint8  `json:"kind"`
	Prot  uint8  `json:"prot"`
	TID   int    `json:"tid,omitempty"`
}

// MMImage is mm.img: the address-space description.
type MMImage struct {
	VMAs []VMAEntry `json:"vmas"`
	Brk  uint64     `json:"brk"`
}

// Marshal encodes the image.
func (m *MMImage) Marshal() []byte {
	var e imgproto.Encoder
	for _, v := range m.VMAs {
		e.Message(1, func(n *imgproto.Encoder) {
			n.Fixed64(1, v.Start)
			n.Fixed64(2, v.End)
			n.Uint64(3, uint64(v.Kind))
			n.Uint64(4, uint64(v.Prot))
			n.Uint64(5, uint64(v.TID))
		})
	}
	e.Fixed64(2, m.Brk)
	return e.Bytes()
}

// UnmarshalMM decodes an mm image.
func UnmarshalMM(b []byte) (*MMImage, error) {
	m := &MMImage{}
	err := imgproto.NewDecoder(b).Each(func(f uint32, d *imgproto.Decoder) error {
		switch f {
		case 1:
			var v VMAEntry
			if err := d.FieldMessage(func(nf uint32, nd *imgproto.Decoder) error {
				u, err := nd.FieldUint64()
				if err != nil {
					return err
				}
				switch nf {
				case 1:
					v.Start = u
				case 2:
					v.End = u
				case 3:
					v.Kind = uint8(u)
				case 4:
					v.Prot = uint8(u)
				case 5:
					v.TID = int(u)
				}
				return nil
			}); err != nil {
				return err
			}
			m.VMAs = append(m.VMAs, v)
		case 2:
			u, err := d.FieldUint64()
			if err != nil {
				return err
			}
			m.Brk = u
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("image: mm image: %w", err)
	}
	return m, nil
}

// PagemapEntry describes a run of pages. Lazy entries have no bytes in
// pages.img; their content stays on the source node and is served on
// demand by the page server (post-copy migration). InParent entries
// (incremental dumps, CRIU's in_parent flag) carry no bytes either: the
// content is unchanged since the parent checkpoint and resolves through
// the chain. Zero entries mark all-zero pages whose bytes are elided;
// restore leaves them demand-zero. Delta entries (pre-copy XOR encoding)
// DO carry bytes in pages.img, but the bytes are the XOR of the page's
// content with its content at the parent checkpoint: a re-dirtied page
// whose bytes barely changed encodes as mostly zeros, which the wire
// codec compresses away. Resolving a delta page therefore needs the
// parent chain, like in_parent but with local bytes.
type PagemapEntry struct {
	Vaddr    uint64 `json:"vaddr"`
	NrPages  uint32 `json:"nrPages"`
	Lazy     bool   `json:"lazy,omitempty"`
	InParent bool   `json:"inParent,omitempty"`
	Zero     bool   `json:"zero,omitempty"`
	// Delta marks the run's pages.img bytes as XORed against the same
	// page's content in the parent chain (incremental dumps only).
	Delta bool `json:"delta,omitempty"`
}

// ErrRetiredField is what UnmarshalPagemap returns for an entry carrying
// field 6 or 7, the within-dump dedup back-reference older builds wrote.
var ErrRetiredField = errors.New("retired field")

// Class is the one reading of an entry's flags. A well-formed entry sets
// at most one (imgcheck's pagemap-flags invariant refuses the rest before
// anything acts on the class), so the order below decides nothing for an
// image that was verified.
func (en PagemapEntry) Class() PageClass {
	switch {
	case en.Lazy:
		return PageLazy
	case en.InParent:
		return PageParent
	case en.Zero:
		return PageZero
	case en.Delta:
		return PageDelta
	}
	return PageData
}

// PagemapImage is pagemap.img: the index into pages.img.
type PagemapImage struct {
	Entries []PagemapEntry `json:"entries"`
}

// EachPage calls fn for every page the pagemap describes, in file order,
// with the page's class. Data and delta pages are the ones with bytes in
// pages.img, in this order.
func (p *PagemapImage) EachPage(fn func(addr uint64, class PageClass)) {
	for _, en := range p.Entries {
		class := en.Class()
		for i := uint64(0); i < uint64(en.NrPages); i++ {
			fn(en.Vaddr+i*mem.PageSize, class)
		}
	}
}

// Counts returns how many pages the pagemap describes of each class,
// indexed by PageClass.
func (p *PagemapImage) Counts() (n [PageDelta + 1]int) {
	for _, en := range p.Entries {
		n[en.Class()] += int(en.NrPages)
	}
	return n
}

// Marshal encodes the image.
func (p *PagemapImage) Marshal() []byte {
	var e imgproto.Encoder
	for _, en := range p.Entries {
		e.Message(1, func(n *imgproto.Encoder) {
			n.Fixed64(1, en.Vaddr)
			n.Uint64(2, uint64(en.NrPages))
			n.Bool(3, en.Lazy)
			n.Bool(4, en.InParent)
			n.Bool(5, en.Zero)
			// Field 8 appears only on delta runs, so non-delta images keep
			// the historical byte-identical encoding. Fields 6 and 7 are
			// retired (see UnmarshalPagemap).
			if en.Delta {
				n.Bool(8, true)
			}
		})
	}
	return e.Bytes()
}

// UnmarshalPagemap decodes a pagemap image.
func UnmarshalPagemap(b []byte) (*PagemapImage, error) {
	p := &PagemapImage{}
	err := imgproto.NewDecoder(b).Each(func(f uint32, d *imgproto.Decoder) error {
		if f != 1 {
			return nil
		}
		var en PagemapEntry
		if err := d.FieldMessage(func(nf uint32, nd *imgproto.Decoder) error {
			switch nf {
			case 1:
				u, err := nd.FieldUint64()
				en.Vaddr = u
				return err
			case 2:
				u, err := nd.FieldUint64()
				en.NrPages = uint32(u)
				return err
			case 3:
				v, err := nd.FieldBool()
				en.Lazy = v
				return err
			case 4:
				v, err := nd.FieldBool()
				en.InParent = v
				return err
			case 5:
				v, err := nd.FieldBool()
				en.Zero = v
				return err
			case 6, 7:
				// Skipping these like an unknown field would decode the entry
				// as a data run whose bytes pages.img never carried.
				return fmt.Errorf("entry at 0x%x: %w %d (page dedup back-reference; re-dump the process with this build)", en.Vaddr, ErrRetiredField, nf)
			case 8:
				v, err := nd.FieldBool()
				en.Delta = v
				return err
			}
			return nil
		}); err != nil {
			return err
		}
		p.Entries = append(p.Entries, en)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("image: pagemap image: %w", err)
	}
	return p, nil
}

// FilesImage is files.img: the open files (here, the executable).
type FilesImage struct {
	ExePath string `json:"exePath"`
}

// Marshal encodes the image.
func (f *FilesImage) Marshal() []byte {
	var e imgproto.Encoder
	e.String(1, f.ExePath)
	return e.Bytes()
}

// UnmarshalFiles decodes a files image.
func UnmarshalFiles(b []byte) (*FilesImage, error) {
	f := &FilesImage{}
	err := imgproto.NewDecoder(b).Each(func(fl uint32, d *imgproto.Decoder) error {
		if fl == 1 {
			s, err := d.FieldString()
			f.ExePath = s
			return err
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("image: files image: %w", err)
	}
	return f, nil
}

// MutexEntry is a held mutex recorded in the inventory.
type MutexEntry struct {
	ID      uint64 `json:"id"`
	Holder  int    `json:"holder"`
	Recurse int    `json:"recurse"`
}

// InventoryImage is inventory.img: dump-wide facts.
type InventoryImage struct {
	Arch    isa.Arch     `json:"arch"`
	TIDs    []int        `json:"tids"`
	Mutexes []MutexEntry `json:"mutexes,omitempty"`
}

// Marshal encodes the image.
func (iv *InventoryImage) Marshal() []byte {
	var e imgproto.Encoder
	e.Uint64(1, uint64(iv.Arch))
	for _, t := range iv.TIDs {
		e.Uint64(2, uint64(t))
	}
	for _, m := range iv.Mutexes {
		e.Message(3, func(n *imgproto.Encoder) {
			n.Uint64(1, m.ID)
			n.Uint64(2, uint64(m.Holder))
			n.Uint64(3, uint64(m.Recurse))
		})
	}
	return e.Bytes()
}

// UnmarshalInventory decodes an inventory image.
func UnmarshalInventory(b []byte) (*InventoryImage, error) {
	iv := &InventoryImage{}
	err := imgproto.NewDecoder(b).Each(func(f uint32, d *imgproto.Decoder) error {
		switch f {
		case 1:
			u, err := d.FieldUint64()
			iv.Arch = isa.Arch(u)
			return err
		case 2:
			u, err := d.FieldUint64()
			iv.TIDs = append(iv.TIDs, int(u))
			return err
		case 3:
			var m MutexEntry
			if err := d.FieldMessage(func(nf uint32, nd *imgproto.Decoder) error {
				u, err := nd.FieldUint64()
				if err != nil {
					return err
				}
				switch nf {
				case 1:
					m.ID = u
				case 2:
					m.Holder = int(u)
				case 3:
					m.Recurse = int(u)
				}
				return nil
			}); err != nil {
				return err
			}
			iv.Mutexes = append(iv.Mutexes, m)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("image: inventory image: %w", err)
	}
	return iv, nil
}

// ImageDir is the checkpoint directory (held in memory, like the paper's
// tmpfs checkpoint target).
//
// pages.img has two forms. A received stream and Put hold it flat, as one
// buffer. A dump and PageSet.Store leave it as the ordered list of page
// slices (EncodePages) — a dump's alias the paused source's frames, which
// its address space keeps copy-on-write, and a stored set's are the pages
// it held — so a rewrite that touched a few pages moves none of the
// others; the list becomes contiguous where the bytes must be anyway, in
// Marshal. Payload reads either form without joining it, and
// Get("pages.img") joins a list into a fresh buffer on every call —
// nothing is cached, so concurrent readers of one directory never write
// to it.
type ImageDir struct {
	files map[string][]byte
	// pageList is pages.img in list form; files["pages.img"] is then a nil
	// placeholder that keeps the name in the directory.
	pageList [][]byte
}

// NewImageDir returns an empty directory.
func NewImageDir() *ImageDir { return &ImageDir{files: make(map[string][]byte)} }

// Put stores a file.
func (d *ImageDir) Put(name string, data []byte) {
	if name == PagesName {
		d.pageList = nil
	}
	d.files[name] = data
}

// PutPages stores pages.img as the concatenation of pages, one slice of
// mem.PageSize bytes per page, without copying them: the directory keeps
// the slices, so the caller must never write through them again.
func (d *ImageDir) PutPages(pages [][]byte) {
	d.files[PagesName] = nil
	d.pageList = pages
}

// Get reads a file. The bytes are the directory's own, except for a
// pages.img held in list form, which is joined into a new buffer.
func (d *ImageDir) Get(name string) ([]byte, bool) {
	b, ok := d.files[name]
	if name == PagesName && len(d.pageList) > 0 {
		b = bytes.Join(d.pageList, nil)
	}
	return b, ok
}

// Payload is pages.img as a directory holds it, readable page by page in
// either form. The bytes belong to the directory: read-only.
type Payload struct {
	flat []byte
	list [][]byte // one slice per page
}

// Payload returns pages.img without joining it, and whether the file is
// present.
func (d *ImageDir) Payload() (Payload, bool) {
	flat, ok := d.files[PagesName]
	return Payload{flat: flat, list: d.pageList}, ok
}

// Len returns the file's size in bytes.
func (p Payload) Len() int {
	n := len(p.flat)
	for _, pg := range p.list {
		n += len(pg)
	}
	return n
}

// Page returns the i'th page of the file, capped so an append cannot run
// into its neighbour. The caller bounds i by Len.
func (p Payload) Page(i int) []byte {
	if len(p.list) > 0 {
		pg := p.list[i]
		return pg[:len(pg):len(pg)]
	}
	off := i * mem.PageSize
	return p.flat[off : off+mem.PageSize : off+mem.PageSize]
}

// Names lists files in sorted order.
func (d *ImageDir) Names() []string {
	out := make([]string, 0, len(d.files))
	for n := range d.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns total bytes across all image files (drives the copy-time
// model).
func (d *ImageDir) Size() uint64 {
	var n uint64
	for _, b := range d.files {
		n += uint64(len(b))
	}
	for _, pg := range d.pageList {
		n += uint64(len(pg))
	}
	return n
}

// FrameFile encodes one directory entry exactly as it appears inside
// Marshal's output: concatenating FrameFile over Names() in sorted
// order reproduces Marshal() byte for byte.
func FrameFile(name string, data []byte) []byte {
	return bytes.Join([][]byte{frameHeader(name, len(data)), data}, nil)
}

// frameHeader returns the bytes that precede a file's data in its frame:
// the entry's tag and length, the name field, and the data field's tag
// and length (parseFrameHeader reads them back).
func frameHeader(name string, dataLen int) []byte {
	const lenDelimited = byte(imgproto.WireBytes)
	var e imgproto.Encoder
	e.String(1, name)
	inner := imgproto.AppendUvarint(append(e.Bytes(), 2<<3|lenDelimited), uint64(dataLen))
	hdr := imgproto.AppendUvarint([]byte{1<<3 | lenDelimited}, uint64(len(inner)+dataLen))
	return append(hdr, inner...)
}

// Marshal flattens the directory into one blob for network transfer:
// bytes.Join sizes the blob up front and copies each frame header and
// each file's bytes into place exactly once, into memory it does not
// zero first. A pages.img in list form is gathered here, page by page,
// straight to its place in the blob — the one copy it gets between the
// rewriter and the wire. Padding in front of the blob, outside it, starts
// pages.img's data on a page boundary (the Go heap page-aligns allocations
// over 32 KiB): a restore adopting the received pages reads aligned words.
func (d *ImageDir) Marshal() []byte {
	names := d.Names()
	parts := make([][]byte, 1, 1+2*len(names)+len(d.pageList))
	at, pad := 0, 0 // the next part's offset in the blob; the padding
	for _, name := range names {
		file := [][]byte{d.files[name]}
		if name == PagesName && len(d.pageList) > 0 {
			file = d.pageList
		}
		size := Payload{list: file}.Len()
		hdr := frameHeader(name, size)
		if name == PagesName {
			pad = -(at + len(hdr)) & (mem.PageSize - 1)
		}
		parts = append(append(parts, hdr), file...)
		at += len(hdr) + size
	}
	parts[0] = blobPadding[:pad]
	return bytes.Join(parts, nil)[pad:]
}

var blobPadding [mem.PageSize]byte // what Marshal puts in front of a blob

// UnmarshalImageDir parses a directory blob: the stream splitter run over
// the whole blob at once, so a blob at rest and a blob arriving in
// segments go through the same frame parser. The directory aliases b —
// every file in it is a slice of b, nothing is copied — so b must not be
// written again. (The callers under cmd/ each parse a buffer they just
// read from a file and use for nothing else.)
func UnmarshalImageDir(b []byte) (*ImageDir, error) {
	sp := NewStreamSplitter(len(b))
	_, _ = sp.Write(b) // a refusal poisons the splitter, so Close returns it
	dir, err := sp.Close()
	if err != nil {
		return nil, fmt.Errorf("image: image dir: %w", err)
	}
	return dir, nil
}

// PageSet is an editable view of pagemap.img + pages.img: the rewriter
// loads it, mutates page contents, and stores it back.
//
// Page bytes are copy-on-write. A loaded set aliases the pages.img it was
// loaded from, and views and chain merges share pages between sets; the
// set copies a page the first time it writes to it (WriteU64) unless it
// already holds the only reference. A write through a PageSet therefore
// never reaches the directory it was loaded from, and a stage that only
// reads pays for no page it does not touch.
//
// Store does not copy either: the directory stored into keeps the set's
// page slices and the set's ownership ends, so a write after Store cannot
// reach that directory.
//
// Every page-aligned address is in at most one of the two maps, so a page
// has exactly one class. Read with Class, Data and ReadU64; mutate with
// Put, WriteU64, InstallPage and DropRange.
type PageSet struct {
	// pages holds every page of the set but the lazy ones.
	pages map[uint64]setPage
	// LazyPages records pages left on the source node. A lazy page carries
	// no bytes, and the set never resolves, reads or writes through one, so
	// it needs no record: it stays a plain set of addresses, which callers
	// outside this module (bench/staged.go) count and range over. Read only;
	// Put is what makes a page lazy or not.
	LazyPages map[uint64]bool
}

// setPage is one non-lazy page of a PageSet.
type setPage struct {
	// data is the page's pages.img bytes — content, or the XOR for
	// PageDelta — and nil for zero and in_parent pages.
	data  *[mem.PageSize]byte
	class PageClass
	// owned marks bytes this set allocated itself and nothing else
	// references; every other page is borrowed and is copied on its first
	// write.
	owned bool
}

// PageClass names how a page is represented in pagemap.img + pages.img.
type PageClass uint8

// Page classes. Data and delta pages carry bytes in pages.img; the rest
// live in the pagemap alone.
const (
	PageAbsent PageClass = iota // not part of the image
	PageData
	PageZero
	PageParent
	PageLazy
	PageDelta
)

// Class reports how the set represents the page at a.
func (ps *PageSet) Class(a uint64) PageClass {
	if p, ok := ps.pages[a]; ok {
		return p.class
	}
	if ps.LazyPages[a] {
		return PageLazy
	}
	return PageAbsent
}

// Data returns the bytes of the data page at a, and nil for every other
// class. The bytes are read-only: they may belong to an image directory or
// another set.
func (ps *PageSet) Data(a uint64) []byte {
	if p := ps.pages[a]; p.class == PageData {
		return p.data[:]
	}
	return nil
}

// Put makes the page at a one of class; PageAbsent removes it. For
// PageData and PageDelta, data is the page's bytes, exactly one page, and
// the set borrows it: it copies the bytes before its first write to the
// page. Other classes ignore data.
func (ps *PageSet) Put(a uint64, class PageClass, data []byte) {
	var pg *[mem.PageSize]byte
	if data != nil {
		pg = (*[mem.PageSize]byte)(data)
	}
	ps.put(a, setPage{data: pg, class: class})
}

// put is Put with the record built: every mutation of the set ends here.
func (ps *PageSet) put(a uint64, p setPage) {
	switch p.class {
	case PageLazy:
		delete(ps.pages, a)
		ps.LazyPages[a] = true
		return
	case PageAbsent:
		delete(ps.pages, a)
	default:
		ps.pages[a] = p
	}
	delete(ps.LazyPages, a)
}

// Pagemap decodes pagemap.img alone, for a reader that needs no other file
// of the directory.
func (d *ImageDir) Pagemap() (*PagemapImage, error) {
	if raw, ok := d.files[PagemapName]; ok {
		return UnmarshalPagemap(raw)
	}
	return nil, fmt.Errorf("image: %w %s", ErrMissing, PagemapName)
}

// LoadPageSet parses the pagemap/pages pair from a directory: the page set
// of a view opened for nothing else.
func LoadPageSet(dir *ImageDir) (*PageSet, error) { return Open(dir).PageSet() }

// newPageSet builds the set a pagemap and its payload describe. Nothing is
// copied or joined: every data and delta page aliases its 4K of pages.img
// in whichever form the directory holds it.
func newPageSet(pm *PagemapImage, pages Payload) (*PageSet, error) {
	// Per-class page counts size both maps exactly once, and the payload
	// total bounds-checks pages.img up front so the loop below never
	// re-checks per page.
	n := pm.Counts()
	if want := (n[PageData] + n[PageDelta]) * mem.PageSize; want > pages.Len() {
		return nil, fmt.Errorf("image: pages.img truncated: pagemap describes %d data bytes, file carries %d", want, pages.Len())
	}
	ps := sizedPageSet(n)
	next := 0 // index into pages.img of the next data page
	pm.EachPage(func(addr uint64, class PageClass) {
		var pg []byte
		if class == PageData || class == PageDelta {
			pg = pages.Page(next)
			next++
		}
		ps.Put(addr, class, pg)
	})
	return ps, nil
}

// sizedPageSet returns an empty set with room for n pages of each class.
func sizedPageSet(n [PageDelta + 1]int) *PageSet {
	return &PageSet{
		pages:     make(map[uint64]setPage, n[PageData]+n[PageDelta]+n[PageParent]+n[PageZero]),
		LazyPages: make(map[uint64]bool, n[PageLazy]),
	}
}

// NewPageSet returns an empty page set: the set of an empty pagemap.
func NewPageSet() *PageSet { return sizedPageSet([PageDelta + 1]int{}) }

// Store serializes the page set back into the directory, coalescing
// contiguous same-class (data/lazy/in_parent/zero/delta) runs. The
// emitted pagemap depends only on the page-set contents (addresses are
// sorted), never on map iteration. No page is copied: pages.img goes into
// the directory as the list of the set's page slices (ImageDir.PutPages),
// and since the directory shares them from here on the set stops owning
// any — its next write to a page copies it.
func (ps *PageSet) Store(dir *ImageDir) {
	addrs := make([]uint64, 0, len(ps.pages)+len(ps.LazyPages))
	for a := range ps.pages {
		addrs = append(addrs, a)
	}
	for a := range ps.LazyPages {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	recs := make([]PageRecord, len(addrs))
	for i, a := range addrs {
		p, ok := ps.pages[a]
		if !ok {
			recs[i] = PageRecord{Addr: a, Class: PageLazy}
			continue
		}
		recs[i] = PageRecord{Addr: a, Class: p.class}
		if p.data != nil {
			recs[i].Data = p.data[:]
		}
		if p.owned {
			p.owned = false
			ps.pages[a] = p
		}
	}
	EncodePages(dir, recs)
}

// PageRecord is one page of the sequence EncodePages encodes.
type PageRecord struct {
	Addr  uint64
	Class PageClass
	// Data is the page's pages.img bytes (content, or the XOR for
	// PageDelta); read only for PageData and PageDelta.
	Data []byte
}

// EncodePages writes pagemap.img and pages.img for a page sequence sorted
// by address (PageAbsent records are skipped): the one encoder behind
// criu.Dump and PageSet.Store. Contiguous same-class pages coalesce into
// runs, and pages.img goes into the directory as the list of the data and
// delta records' slices (ImageDir.PutPages) — no page is copied, so the
// directory owns the slices from here on.
func EncodePages(dir *ImageDir, recs []PageRecord) {
	var pm PagemapImage
	nPayload := 0
	for _, r := range recs {
		if r.Class == PageData || r.Class == PageDelta {
			nPayload++
		}
	}
	payload := make([][]byte, 0, nPayload)
	for i := 0; i < len(recs); {
		r := recs[i]
		if r.Class == PageAbsent {
			i++
			continue
		}
		j := i
		for ; j < len(recs) && recs[j].Addr == r.Addr+uint64(j-i)*mem.PageSize && recs[j].Class == r.Class; j++ {
			if r.Class == PageData || r.Class == PageDelta {
				payload = append(payload, recs[j].Data)
			}
		}
		pm.Entries = append(pm.Entries, PagemapEntry{
			Vaddr: r.Addr, NrPages: uint32(j - i),
			Lazy: r.Class == PageLazy, InParent: r.Class == PageParent, Zero: r.Class == PageZero,
			Delta: r.Class == PageDelta,
		})
		i = j
	}
	dir.Put(PagemapName, pm.Marshal())
	dir.PutPages(payload)
}

// ReadU64 reads a word from the page set (for the stack rewriter). Zero
// pages read as zero; lazy and in_parent pages have no local bytes.
func (ps *PageSet) ReadU64(addr uint64) (uint64, error) {
	base := addr / mem.PageSize * mem.PageSize
	off := addr % mem.PageSize
	if off+8 > mem.PageSize {
		return 0, fmt.Errorf("image: unaligned word read at 0x%x crosses page", addr)
	}
	switch p := ps.pages[base]; p.class {
	case PageData:
		return binary.LittleEndian.Uint64(p.data[off:]), nil
	case PageZero:
		return 0, nil
	case PageParent:
		return 0, fmt.Errorf("image: address 0x%x is in the parent checkpoint (flatten the chain first)", addr)
	case PageDelta:
		return 0, fmt.Errorf("image: address 0x%x holds an XOR delta against the parent (flatten the chain first)", addr)
	}
	return 0, fmt.Errorf("image: address 0x%x not in dumped pages", addr)
}

// WriteU64 writes a word, populating the page if absent or lazy (zero
// pages materialize as zeros) and copying it first if the set only borrows
// its bytes. Writing into an in_parent or delta page is an error: the
// local set does not hold its content, so the chain must be flattened
// first. A refused write leaves the set as it was.
func (ps *PageSet) WriteU64(addr, v uint64) error {
	base := addr / mem.PageSize * mem.PageSize
	off := addr % mem.PageSize
	if off+8 > mem.PageSize {
		return fmt.Errorf("image: unaligned word write at 0x%x crosses page", addr)
	}
	p := ps.pages[base]
	switch {
	case p.class == PageParent:
		return fmt.Errorf("image: write at 0x%x hits an in-parent page (flatten the chain first)", addr)
	case p.class == PageDelta:
		return fmt.Errorf("image: write at 0x%x hits an XOR-delta page (flatten the chain first)", addr)
	case p.class != PageData || !p.owned:
		pg := new([mem.PageSize]byte)
		if p.class == PageData {
			*pg = *p.data
		}
		p = setPage{data: pg, class: PageData, owned: true}
		ps.put(base, p)
	}
	binary.LittleEndian.PutUint64(p.data[off:], v)
	return nil
}

// DropRange removes pages overlapping [start, end) from the set.
func (ps *PageSet) DropRange(start, end uint64) {
	dropRange(ps.pages, start, end)
	dropRange(ps.LazyPages, start, end)
}

func dropRange[V any](m map[uint64]V, start, end uint64) {
	for a := range m {
		if a >= start && a < end {
			delete(m, a)
		}
	}
}

// InstallPage sets a page's full contents.
func (ps *PageSet) InstallPage(addr uint64, data []byte) {
	pg := new([mem.PageSize]byte)
	copy(pg[:], data)
	ps.put(addr/mem.PageSize*mem.PageSize, setPage{data: pg, class: PageData, owned: true})
}

// XorPages returns a ⊕ b over min(len(a), len(b)) bytes into a fresh
// page-sized buffer — the delta encoder (page content vs parent content)
// and its inverse are the same operation.
func XorPages(a, b []byte) []byte {
	out := make([]byte, mem.PageSize)
	n := copy(out, a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		out[i] ^= b[i]
	}
	return out
}
