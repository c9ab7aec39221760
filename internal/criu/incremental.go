package criu

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/mem"
)

// Incremental checkpoint chains (pre-copy migration). Each dump taken with
// DumpOpts.Parent records unchanged pages as in_parent entries; the chain
// is resolved newest-wins into a single self-contained directory before
// restore, mirroring CRIU's parent-image directories. Dumps taken with
// DumpOpts.DeltaBase additionally ship re-dirtied pages as XOR deltas
// against the chain's resolved content, which FlattenChain undoes.

// CoveredPages returns every page address the directory's pagemap
// mentions, regardless of entry kind. Because each dump in a chain emits
// an entry (data, zero, or in_parent) for every dumpable resident page,
// an address covered by the immediate parent is — by induction — always
// resolvable through the chain.
func CoveredPages(dir *ImageDir) (map[uint64]bool, error) {
	v := image.Open(dir)
	if err := v.Fault(image.PagemapName); err != nil {
		return nil, fmt.Errorf("criu: %w", err)
	}
	total := 0
	for _, n := range v.Pagemap.Counts() {
		total += n
	}
	out := make(map[uint64]bool, total)
	v.Pagemap.EachPage(func(addr uint64, _ image.PageClass) { out[addr] = true })
	return out, nil
}

// DumpedPages returns the number of pages whose bytes the directory
// actually carries (the data and delta pages of pages.img) — the size of
// a pre-copy round's delta, which the convergence heuristics watch.
func DumpedPages(dir *ImageDir) int {
	pages, _ := dir.Payload()
	return pages.Len() / mem.PageSize
}

// errChainAbsent reports an address that fell off the bottom of the
// chain without resolving.
var errChainAbsent = fmt.Errorf("criu: page absent from the chain")

// resolveChain returns the content of addr as of chain link i: its class
// — data, zero or lazy — and for data the bytes, XOR deltas applied
// recursively.
func resolveChain(sets []*PageSet, addr uint64, i int) (image.PageClass, []byte, error) {
	for j := i; j >= 0; j-- {
		switch class := sets[j].Class(addr); class {
		case image.PageParent:
			continue // defer to the next-older link
		case image.PageDelta:
			base, basePg, err := resolveChain(sets, addr, j-1)
			if err != nil {
				return 0, nil, err
			}
			if base == image.PageLazy {
				return 0, nil, fmt.Errorf("criu: delta page 0x%x in chain link %d resolves to a lazy page", addr, j)
			}
			// XOR against a zero page (no bytes) is the delta itself.
			return image.PageData, XorPages(sets[j].Pages[addr], basePg), nil
		case image.PageAbsent:
			return 0, nil, errChainAbsent
		default:
			return class, sets[j].Pages[addr], nil
		}
	}
	return 0, nil, errChainAbsent
}

// FlattenChain squashes an incremental checkpoint chain — ordered oldest
// (the full parent) to newest (the final delta) — into one self-contained
// directory. Non-page images come from the newest dump; each page address
// in the newest pagemap resolves newest-wins down the chain, applying
// XOR deltas against the older content they were encoded from. The
// result restores exactly as a full dump taken at the newest checkpoint
// would. Every link is loaded without copying and the flattened set
// borrows the pages it resolves to; the store does not copy them either,
// so the flattened directory still aliases the links' pages.img buffers
// (plus the few pages an XOR delta resolved into) and no link is ever
// written.
func FlattenChain(chain []*ImageDir) (*ImageDir, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("criu: empty checkpoint chain")
	}
	var newest *image.View
	sets := make([]*PageSet, len(chain))
	for i, dir := range chain {
		newest = image.Open(dir)
		ps, err := newest.PageSet()
		if err != nil {
			return nil, fmt.Errorf("criu: chain link %d: %w", i, err)
		}
		sets[i] = ps
	}
	out := NewPageSet()
	var failed error
	newest.Pagemap.EachPage(func(addr uint64, marked image.PageClass) {
		switch class, pg, err := resolveChain(sets, addr, len(sets)-1); {
		case err == errChainAbsent && marked == image.PageDelta:
			failed = fmt.Errorf("criu: page 0x%x marked delta but its base is absent from the chain", addr)
		case err == errChainAbsent:
			failed = fmt.Errorf("criu: page 0x%x marked in_parent but absent from the chain", addr)
		case err != nil:
			failed = err
		case class == image.PageData:
			out.Pages[addr] = pg
		case class == image.PageZero:
			out.ZeroPages[addr] = true
		default:
			out.LazyPages[addr] = true
		}
	})
	if failed != nil {
		return nil, failed
	}

	flat := NewImageDir()
	last := chain[len(chain)-1]
	for _, name := range last.Names() {
		if name == image.PagemapName || name == image.PagesName {
			continue
		}
		raw, _ := last.Get(name)
		flat.Put(name, raw)
	}
	out.Store(flat)
	return flat, nil
}

// AdvanceBase folds one just-taken incremental dump into the chain's
// resolved page content, returning the base for the NEXT round's
// DumpOpts.DeltaBase. Pass base=nil with the chain's first (full) dump;
// thereafter pass the previous return value and the newest dump. The
// returned set holds plain content only (no delta, parent, or lazy
// entries) — exactly what the delta encoder XORs against — and may share
// storage with base.
func AdvanceBase(base *PageSet, dir *ImageDir) (*PageSet, error) {
	ps, err := LoadPageSet(dir)
	if err != nil {
		return nil, fmt.Errorf("criu: delta base: %w", err)
	}
	if len(ps.LazyPages) > 0 {
		return nil, fmt.Errorf("criu: delta base: %d lazy pages in an incremental dump", len(ps.LazyPages))
	}
	if base == nil {
		if len(ps.ParentPages) > 0 || len(ps.DeltaPages) > 0 {
			return nil, fmt.Errorf("criu: delta base: the chain's first dump has %d parent and %d delta pages",
				len(ps.ParentPages), len(ps.DeltaPages))
		}
		return ps, nil
	}
	for addr, pg := range ps.Pages {
		if ps.DeltaPages[addr] {
			old, ok := deltaBaseContent(base, addr)
			if !ok {
				if !base.ZeroPages[addr] {
					return nil, fmt.Errorf("criu: delta base: page 0x%x has no content to apply its delta to", addr)
				}
				old = nil
			}
			pg = XorPages(pg, old)
		}
		// Plain pages stay inside dir's pages.img; the base only borrows.
		base.SharePage(addr, pg)
		delete(base.ZeroPages, addr)
	}
	for addr := range ps.ZeroPages {
		delete(base.Pages, addr)
		delete(base.DeltaPages, addr)
		base.ZeroPages[addr] = true
	}
	// in_parent entries: the base already holds the chain's content.
	return base, nil
}
