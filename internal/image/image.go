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
	"fmt"
	"maps"
	"slices"
	"sort"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
)

// CoreImage is core-<tid>.img: one thread's architectural state.
type CoreImage struct {
	TID       int         `json:"tid" img:"1"`
	Arch      isa.Arch    `json:"arch" img:"2"`
	Regs      isa.RegFile `json:"regs" img:",inline"` // fields 3-5
	StackLow  uint64      `json:"stackLow" img:"6,fixed"`
	StackHigh uint64      `json:"stackHigh" img:"7,fixed"`
	TLSBlock  uint64      `json:"tlsBlock" img:"8,fixed"`
}

// VMAEntry describes one mapped area in the mm image.
type VMAEntry struct {
	Start uint64 `json:"start" img:"1,fixed"`
	End   uint64 `json:"end" img:"2,fixed"`
	Kind  uint8  `json:"kind" img:"3"`
	Prot  uint8  `json:"prot" img:"4"`
	TID   int    `json:"tid,omitempty" img:"5"`
}

// MMImage is mm.img: the address-space description.
type MMImage struct {
	VMAs []VMAEntry `json:"vmas" img:"1"`
	Brk  uint64     `json:"brk" img:"2,fixed"`
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
	// Fields 6 and 7 were the within-dump page dedup back-reference older
	// builds wrote. An entry carrying one is refused: skipped like an
	// unknown field, it would decode as a data run whose bytes pages.img
	// never carried.
	_ struct{} `img:"6,retired"`
	_ struct{} `img:"7,retired"`

	Vaddr    uint64 `json:"vaddr" img:"1,fixed"`
	NrPages  uint32 `json:"nrPages" img:"2"`
	Lazy     bool   `json:"lazy,omitempty" img:"3"`
	InParent bool   `json:"inParent,omitempty" img:"4"`
	Zero     bool   `json:"zero,omitempty" img:"5"`
	// Delta marks the run's pages.img bytes as XORed against the same
	// page's content in the parent chain (incremental dumps only). It is
	// written only on delta runs, so other images keep the encoding they
	// had before delta runs existed.
	Delta bool `json:"delta,omitempty" img:"8,omitempty"`
}

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
	Entries []PagemapEntry `json:"entries" img:"1"`
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

// FilesImage is files.img: the open files (here, the executable).
type FilesImage struct {
	ExePath string `json:"exePath" img:"1"`
}

// MutexEntry is a held mutex recorded in the inventory.
type MutexEntry struct {
	ID      uint64 `json:"id" img:"1"`
	Holder  int    `json:"holder" img:"2"`
	Recurse int    `json:"recurse" img:"3"`
}

// InventoryImage is inventory.img: dump-wide facts. TIDs are the live
// threads, each with a core image. Exited are the threads that have
// exited: the kernel keeps an exited thread's record, and a join of it
// returns at once, so the image keeps the record too. An exited thread
// has no core.
type InventoryImage struct {
	Arch    isa.Arch     `json:"arch" img:"1"`
	TIDs    []int        `json:"tids" img:"2"`
	Mutexes []MutexEntry `json:"mutexes,omitempty" img:"3"`
	Exited  []int        `json:"exited,omitempty" img:"4"`
}

// ImageDir is the checkpoint directory (held in memory, like the paper's
// tmpfs checkpoint target).
//
// pages.img has two forms. A received stream and Put hold it flat, as one
// buffer. A dump and PageSet.Store leave it as the ordered list of page
// slices (EncodePages) — a dump's alias the paused source's frames, which
// its address space keeps copy-on-write, and a stored set's are the pages
// it held — so a rewrite that touched a few pages moves none of the
// others; the list becomes contiguous where the bytes must be anyway: in
// Marshal, or on a TCP receiver. Payload reads either form unjoined, and
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

// Share returns a second directory over d's bytes: a new file map whose
// entries are d's slices, and d's page list, all by reference. No image
// byte is copied, so both directories are bound by PutPages' contract —
// nobody writes through a slice of either again; a restore adopts the
// pages copy-on-write, so each process that maps them breaks a share on
// its own first store. Put and PutPages on one leave the other as it was.
func (d *ImageDir) Share() *ImageDir {
	return &ImageDir{files: maps.Clone(d.files), pageList: d.pageList}
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

// Len returns the file's size in bytes. A list holds one page per slice
// (PutPages), so it is not summed.
func (p Payload) Len() int {
	return len(p.flat) + len(p.list)*mem.PageSize
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
	return n + uint64(len(d.pageList))*mem.PageSize
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
	inner := imgproto.AppendUvarint([]byte{1<<3 | lenDelimited}, uint64(len(name)))
	inner = imgproto.AppendUvarint(append(append(inner, name...), 2<<3|lenDelimited), uint64(dataLen))
	hdr := imgproto.AppendUvarint([]byte{1<<3 | lenDelimited}, uint64(len(inner)+dataLen))
	return append(hdr, inner...)
}

// Parts returns the slices Marshal joins, in order: each frame header,
// then the file's bytes (pages.img's pages, in list form). Read-only.
func (d *ImageDir) Parts() [][]byte {
	parts, _ := d.parts()
	return parts[1:]
}

// Marshal flattens the directory into one blob: bytes.Join of Parts
// sizes it up front and copies each part into place exactly once, into
// memory it does not zero first — a pages.img in list form page by page,
// the one copy it gets between the rewriter and an in-process wire.
// Padding in front of the blob, outside it, starts pages.img's data on a
// page boundary (the Go heap page-aligns allocations over 32 KiB): a
// restore adopting the received pages reads aligned words.
func (d *ImageDir) Marshal() []byte {
	parts, pad := d.parts()
	parts[0] = blobPadding[:pad]
	return bytes.Join(parts, nil)[pad:]
}

// parts lists Parts after a free slot and returns the padding Marshal
// puts there.
func (d *ImageDir) parts() ([][]byte, int) {
	names := d.Names()
	parts := make([][]byte, 1, 1+2*len(names)+len(d.pageList))
	at, pad := 0, 0 // the next part's offset in the blob; the padding
	for _, name := range names {
		file, size := [][]byte{d.files[name]}, len(d.files[name])
		if name == PagesName && len(d.pageList) > 0 {
			file, size = d.pageList, len(d.pageList)*mem.PageSize
		}
		hdr := frameHeader(name, size)
		if name == PagesName {
			pad = -(at + len(hdr)) & (mem.PageSize - 1)
		}
		parts = append(append(parts, hdr), file...)
		at += len(hdr) + size
	}
	return parts, pad
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
// Every page, lazy ones included, is one record of pages, so a page has
// exactly one class. Read with Class, Data and ReadU64; mutate with Put,
// WriteU64, InstallPage and DropRange.
type PageSet struct {
	// pages holds every page of the set, sorted by address: loaded in
	// pagemap order by appending, stored without a sort.
	pages []setPage
	// LazyPages is no part of the set, which neither reads nor writes it:
	// criu.LoadPageSet fills it from the pagemap for bench/staged.go, which
	// ranges over it to pick the pages it probes. It goes with ROADMAP item
	// 2(d)'s rewrite of bench/.
	LazyPages map[uint64]bool
}

// setPage is one page of a PageSet.
type setPage struct {
	addr uint64
	// data is the page's pages.img bytes — content, or the XOR for
	// PageDelta — and nil for zero, lazy and in_parent pages.
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

// find returns where the page at a is or would go in ps.pages, and whether
// it is there. A page past the last one takes no search.
func (ps *PageSet) find(a uint64) (int, bool) {
	i := len(ps.pages)
	if i > 0 && ps.pages[i-1].addr >= a {
		i = sort.Search(i, func(k int) bool { return ps.pages[k].addr >= a })
	}
	return i, i < len(ps.pages) && ps.pages[i].addr == a
}

// get returns the record of the page at a, of class PageAbsent if there is
// none.
func (ps *PageSet) get(a uint64) setPage {
	if i, ok := ps.find(a); ok {
		return ps.pages[i]
	}
	return setPage{}
}

// bytes returns the record's pages.img bytes, nil if it has none.
func (p *setPage) bytes() []byte {
	if p.data == nil {
		return nil
	}
	return p.data[:]
}

// Class reports how the set represents the page at a.
func (ps *PageSet) Class(a uint64) PageClass { return ps.get(a).class }

// Data returns the bytes of the data page at a, and nil for every other
// class. The bytes are read-only: they may belong to an image directory or
// another set.
func (ps *PageSet) Data(a uint64) []byte {
	if p := ps.get(a); p.class == PageData {
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
	p.addr = a
	i, ok := ps.find(a)
	switch {
	case p.class == PageAbsent:
		if ok {
			ps.pages = slices.Delete(ps.pages, i, i+1)
		}
	case ok:
		ps.pages[i] = p
	default: // appends when a is past the last page, as a load in pagemap order is
		ps.pages = slices.Insert(ps.pages, i, p)
	}
}

// Pagemap decodes pagemap.img alone, for a reader that needs no other file
// of the directory.
func (d *ImageDir) Pagemap() (*PagemapImage, error) {
	if raw, ok := d.files[PagemapName]; ok {
		return decode[PagemapImage](PagemapName, raw)
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
	// Per-class page counts size the set exactly once, and the payload
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
	return &PageSet{pages: make([]setPage, 0, n[PageData]+n[PageDelta]+n[PageParent]+n[PageZero]+n[PageLazy])}
}

// Store serializes the page set back into the directory, coalescing
// contiguous same-class (data/lazy/in_parent/zero/delta) runs. The
// emitted pagemap depends only on the set's contents, which are kept in
// address order. No page is copied: pages.img goes into the directory as
// the list of the set's page slices (ImageDir.PutPages), and since the
// directory shares them from here on the set stops owning any — its next
// write to a page copies it.
func (ps *PageSet) Store(dir *ImageDir) {
	recs := make([]PageRecord, len(ps.pages))
	for i := range ps.pages {
		p := &ps.pages[i]
		recs[i] = PageRecord{Addr: p.addr, Class: p.class, Data: p.bytes()}
		p.owned = false
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
	dir.Put(PagemapName, imgproto.Marshal(&pm))
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
	switch p := ps.get(base); p.class {
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
	p := ps.get(base)
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
	i, _ := ps.find(start)
	j, _ := ps.find(end)
	ps.pages = slices.Delete(ps.pages, i, max(i, j))
}

// InstallPage sets a page's full contents.
func (ps *PageSet) InstallPage(addr uint64, data []byte) {
	pg := new([mem.PageSize]byte)
	copy(pg[:], data)
	ps.put(addr/mem.PageSize*mem.PageSize, setPage{data: pg, class: PageData, owned: true})
}

// XorPages returns a ⊕ b over min(len(a), len(b)) bytes into a fresh
// page-sized buffer, the rest of a after them — the delta encoder (page
// content vs parent content) and its inverse are the same operation. It
// works a 64-bit word at a time.
func XorPages(a, b []byte) []byte {
	out := make([]byte, mem.PageSize)
	n := min(len(a), len(b), len(out))
	le := binary.LittleEndian
	i := 0
	for ; i+8 <= n; i += 8 {
		le.PutUint64(out[i:], le.Uint64(a[i:])^le.Uint64(b[i:]))
	}
	for ; i < n; i++ {
		out[i] = a[i] ^ b[i]
	}
	copy(out[n:], a[n:])
	return out
}
