package image

import (
	"fmt"
	"maps"

	"github.com/dapper-sim/dapper/internal/mem"
)

// FoldLink is the chain rule, stated once: it applies one link of an
// incremental chain — pagemap and pages.img — to older, the chain's
// resolved content as of the link before (nil before the root), and returns
// the content as of this link. Resolved content is a PageSet of data, zero
// and lazy pages only, page for page what a full dump at that checkpoint
// holds:
//
//   - a data, zero or lazy page is what the link says it is;
//   - an in_parent page is whatever older holds at that address;
//   - a delta page is its bytes XORed onto older's data, or onto zero; a
//     lazy page has no bytes to apply it to;
//   - a page the link does not mention is gone, so both resolve against
//     the immediately older state, never a link further back.
//
// A page with nothing to resolve against is left out and handed to refuse
// with the class the link marked it, PageParent or PageDelta. No page is
// copied — the result borrows the link's and older's — except an applied
// XOR. The error is a pages.img shorter than the pagemap describes.
func FoldLink(older *PageSet, pm *PagemapImage, pages Payload, refuse func(addr uint64, marked PageClass)) (*PageSet, error) {
	n := pm.Counts()
	if want := (n[PageData] + n[PageDelta]) * mem.PageSize; want > pages.Len() {
		return nil, fmt.Errorf("image: pages.img truncated: pagemap describes %d data bytes, file carries %d", want, pages.Len())
	}
	if older == nil {
		older = &PageSet{}
	}
	state := sizedPageSet(n)
	next := 0 // index into pages.img of the next data or delta page
	pm.EachPage(func(addr uint64, marked PageClass) {
		var pg []byte
		if marked == PageData || marked == PageDelta {
			pg = pages.Page(next)
			next++
		}
		class := marked
		switch marked {
		case PageParent:
			class, pg = older.Class(addr), older.Data(addr)
		case PageDelta:
			switch older.Class(addr) {
			case PageData:
				class, pg = PageData, XorPages(pg, older.Data(addr))
			case PageZero:
				class = PageData // the XOR of zeros is the delta itself
			}
		}
		switch class { // PageParent, PageDelta: nothing resolved it; PageAbsent: older has no such page
		case PageData, PageZero, PageLazy:
			state.Put(addr, class, pg)
		default:
			refuse(addr, marked)
		}
	})
	return state, nil
}

// Flatten returns the self-contained directory of a chain whose newest
// link is v and whose resolved content is state: v's files by reference,
// with state stored (no page copied) over the pagemap and pages.
func (v *View) Flatten(state *PageSet) *ImageDir {
	flat := &ImageDir{files: maps.Clone(v.dir.files)}
	state.Store(flat)
	return flat
}
