package criu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// DumpOpts controls the dump.
type DumpOpts struct {
	// Lazy leaves heap/data page contents on the source node (post-copy
	// migration): only stack, TLS, and execution-context code pages are
	// dumped eagerly; the rest are marked lazy in the pagemap and served
	// by a page server. This mirrors the paper's extension of CRIU
	// lazy-migration that additionally dumps the stack pages so
	// cross-architecture rewriting still works.
	Lazy bool
	// Parent makes the dump incremental (CRIU's --prev-images-dir): pages
	// unchanged since the parent checkpoint — per the soft-dirty tracker —
	// become in_parent pagemap entries with no bytes. Parent must be the
	// directory produced by the previous dump of the same process, taken
	// with TrackMem so tracking covered the interval. Incompatible with
	// Lazy.
	Parent *ImageDir
	// TrackMem re-arms soft-dirty tracking once the pages are collected
	// (CRIU's --track-mem), so the next Dump can pass this directory as
	// Parent.
	TrackMem bool
	// DeltaBase, if set alongside Parent, enables XOR-delta encoding of
	// dirty pages: a dirty page the parent chain also holds is stored as
	// the XOR of its bytes with the chain's resolved content for that
	// address (mostly zeros for small mutations — the wire codec's best
	// case), marked with the pagemap delta flag. DeltaBase must be the
	// chain's resolved page content up to and including Parent; maintain
	// it across rounds with AdvanceBase. A dirty page whose XOR comes out
	// all-zero (a soft-dirty false positive) is demoted to in_parent,
	// eliding its bytes entirely.
	DeltaBase *PageSet
	// Obs, if set, receives dump telemetry: per-class page counters
	// (dumped / zero / lazy / elided-as-in_parent) and the host wall time
	// of the dump. Nil disables recording.
	Obs *obs.Registry
}

// Dump checkpoints a stopped process whose live threads are all parked at
// equivalence points (SIGTRAP), producing the image directory.
func Dump(p *kernel.Process, opts DumpOpts) (*ImageDir, error) {
	start := time.Now()
	if !p.Stopped {
		return nil, fmt.Errorf("criu: process %d not stopped (send SIGSTOP first)", p.PID)
	}
	if opts.Parent != nil && opts.Lazy {
		return nil, fmt.Errorf("criu: incremental dumps are incompatible with lazy dumps")
	}
	if opts.DeltaBase != nil && opts.Parent == nil {
		return nil, fmt.Errorf("criu: delta encoding requires an incremental dump (set Parent)")
	}
	var parent []image.PagemapEntry // the parent's runs not yet passed by the walk below
	if opts.Parent != nil {
		if !p.AS.DirtyTracking() {
			return nil, fmt.Errorf("criu: incremental dump of pid %d without dirty tracking (take the parent dump with TrackMem)", p.PID)
		}
		pm, err := opts.Parent.Pagemap()
		if err != nil {
			return nil, fmt.Errorf("criu: parent images: %w", err)
		}
		parent = pm.Entries
	}
	dir := image.NewImageDir()
	inv := &image.InventoryImage{Arch: p.Arch}
	for _, t := range p.Threads {
		if t.State == kernel.ThreadExited {
			inv.Exited = append(inv.Exited, t.TID)
			continue
		}
		if t.State != kernel.ThreadTrapped {
			return nil, fmt.Errorf("criu: thread %d in state %v, not at an equivalence point", t.TID, t.State)
		}
		inv.TIDs = append(inv.TIDs, t.TID)
		core := &image.CoreImage{
			TID: t.TID, Arch: p.Arch, Regs: t.Regs,
			StackLow: t.StackLow, StackHigh: t.StackHigh, TLSBlock: t.TLSBlock,
		}
		dir.Put(image.CoreName(t.TID), imgproto.Marshal(core))
	}
	if len(inv.TIDs) == 0 {
		return nil, fmt.Errorf("criu: no live threads to dump")
	}
	for _, id := range p.HeldMutexes() {
		holder, recurse := p.MutexState(id)
		inv.Mutexes = append(inv.Mutexes, image.MutexEntry{ID: id, Holder: holder, Recurse: recurse})
	}
	dir.Put(image.InventoryName, imgproto.Marshal(inv))

	mm := &image.MMImage{Brk: p.Brk}
	for _, v := range p.AS.VMAs() {
		mm.VMAs = append(mm.VMAs, image.VMAEntry{Start: v.Start, End: v.End, Kind: uint8(v.Kind), Prot: v.Prot, TID: v.TID})
	}
	dir.Put(image.MMName, imgproto.Marshal(mm))

	dir.Put(image.FilesName, imgproto.Marshal(&image.FilesImage{ExePath: p.ExePath}))

	execPages := execContextPages(p)
	// Classify the resident pages in address order. A data page is the
	// frame itself, which the walk keeps: the dump is a snapshot. The
	// parent's pagemap is in address order too, so one cursor over its
	// runs answers whether the parent holds a page: it names every page
	// the chain holds as of that dump, of any class.
	ps := image.NewPageSet(int(p.AS.ResidentBytes() / mem.PageSize))
	var perClass [image.PageDelta + 1]uint64
	p.AS.MappedPages(func(vma mem.VMA, idx uint64, data []byte) bool {
		addr := idx * mem.PageSize
		for len(parent) > 0 && parent[0].Vaddr+uint64(parent[0].NrPages)*mem.PageSize <= addr {
			parent = parent[1:]
		}
		inParent := len(parent) > 0 && parent[0].Vaddr <= addr
		class := image.PageData
		switch {
		case vma.Kind == mem.VMAText && !execPages[addr]:
			// CRIU only dumps the execution-context code page(s); the rest
			// reload from the executable on page faults.
			return false
		case opts.Lazy && vma.Kind != mem.VMAText && vma.Kind != mem.VMAStack && vma.Kind != mem.VMATLS && addr != isa.DataBase:
			// Post-copy keeps data/heap contents behind, except the first
			// data page: it holds the DAPPER flag, which the restored
			// process must read (cleared) without a network fault.
			class = image.PageLazy
		case inParent && !p.AS.Dirty(idx):
			// Unchanged since the parent checkpoint: the chain holds it.
			class = image.PageParent
		case allZero(data):
			class = image.PageZero
		case inParent && opts.DeltaBase != nil:
			// Dirty page with known parent content: ship the XOR. A zero
			// base page would XOR to the page itself, and an unresolved
			// one has no usable bytes: Data is nil for both.
			if basePg := opts.DeltaBase.Data(addr); basePg != nil {
				if bytes.Equal(data, basePg) {
					// Soft-dirty false positive: content is unchanged, so
					// the chain still holds it — no bytes at all.
					class = image.PageParent
				} else {
					class, data = image.PageDelta, image.XorPages(data, basePg)
				}
			}
		}
		ps.Put(addr, class, data)
		perClass[class]++
		return class == image.PageData
	})
	ps.Store(dir)
	if opts.TrackMem {
		p.AS.StartDirtyTracking()
	}
	// All obs calls are nil-safe: with no registry this block is four
	// no-op lookups on a cold path.
	opts.Obs.Counter("dump.count").Inc()
	opts.Obs.Counter("dump.pages_dumped").Add(perClass[image.PageData] + perClass[image.PageDelta])
	opts.Obs.Counter("dump.pages_zero").Add(perClass[image.PageZero])
	opts.Obs.Counter("dump.pages_lazy").Add(perClass[image.PageLazy])
	opts.Obs.Counter("dump.pages_parent").Add(perClass[image.PageParent])
	opts.Obs.Counter("dump.pages_delta").Add(perClass[image.PageDelta])
	opts.Obs.Histogram("dump.wall_ns").Observe(time.Since(start))
	return dir, nil
}

// allZero reports whether a page's bytes are all zero (the zero pagemap
// flag: such pages restore demand-zero and need no bytes in pages.img).
// It compares a word at a time; a data page usually fails on its first.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// execContextPages returns the page addresses holding each live thread's
// current instruction.
func execContextPages(p *kernel.Process) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, t := range p.Threads {
		if t.State == kernel.ThreadExited {
			continue
		}
		out[t.Regs.PC/mem.PageSize*mem.PageSize] = true
	}
	return out
}
