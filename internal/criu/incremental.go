package criu

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/mem"
)

// Incremental checkpoint chains (pre-copy migration). Each dump taken with
// DumpOpts.Parent records unchanged pages as in_parent entries: a page the
// parent's pagemap names and the soft-dirty tracker has not marked since,
// found by walking the parent's runs alongside the dump's own address
// order. The chain is folded link by link (image.FoldLink) into a single
// self-contained directory before restore, mirroring CRIU's parent-image
// directories.
// Dumps taken with DumpOpts.DeltaBase additionally ship re-dirtied pages as
// XOR deltas against the chain's resolved content, which the fold undoes.

// DumpedPages returns the number of pages whose bytes the directory
// actually carries (the data and delta pages of pages.img) — the size of
// a pre-copy round's delta, which the convergence heuristics watch.
func DumpedPages(dir *ImageDir) int {
	pages, _ := dir.Payload()
	return pages.Len() / mem.PageSize
}

// FlattenChain squashes an incremental checkpoint chain — ordered oldest
// (the full parent) to newest (the final delta) — into one self-contained
// directory that restores exactly as a full dump taken at the newest
// checkpoint would. It is a loop over imgcheck.Chain, so a chain flattens
// iff VerifyChain accepts it and a refusal is VerifyChain's. No page is
// copied: the result aliases the links' pages.img buffers (plus the few
// pages an XOR delta resolved into) and no link is ever written.
func FlattenChain(chain []*ImageDir) (*ImageDir, error) {
	var c imgcheck.Chain
	for _, dir := range chain {
		_ = c.Push(image.Open(dir)) // Verify returns the first refusal
	}
	if err := c.Verify(); err != nil {
		return nil, fmt.Errorf("criu: flatten chain: %w", err)
	}
	return c.Flatten()
}

// AdvanceBase folds one just-taken incremental dump into the chain's
// resolved page content, returning the base for the NEXT round's
// DumpOpts.DeltaBase. Pass base=nil with the chain's first (full) dump;
// thereafter pass the previous return value and the newest dump. The
// result is the chain as of dir — what a destination's Chain holds after
// pushing the same link — and shares pages with base and dir.
func AdvanceBase(base *PageSet, dir *ImageDir) (next *PageSet, err error) {
	var refused []uint64
	pm, err := dir.Pagemap()
	if err == nil {
		pages, _ := dir.Payload()
		next, err = image.FoldLink(base, pm, pages, func(addr uint64, _ image.PageClass) { refused = append(refused, addr) })
	}
	if err == nil && len(refused) > 0 {
		err = fmt.Errorf("%d in_parent or delta pages (first 0x%x) have nothing in the base to resolve against", len(refused), refused[0])
	}
	if err != nil {
		return nil, fmt.Errorf("criu: delta base: %w", err)
	}
	return next, nil
}
