package imgcheck_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
)

// TestFlagsToClass pins the one flag → class decision over all sixteen
// settings of lazy/in_parent/zero/delta: what PagemapEntry.Class answers
// (its order among several flags is arbitrary, and written down here so a
// change to it is a visible one), that the page iterator and the counts
// hand every consumer that same answer, and that imgcheck refuses every
// entry with more than one flag under pagemap-flags — the reason the order
// never decides anything for an image that was verified.
func TestFlagsToClass(t *testing.T) {
	ok := loadFixture(t, filepath.Join("testdata", "ok_minimal.json"))[0]
	for bits := 0; bits < 16; bits++ {
		en := image.PagemapEntry{
			Vaddr: 0x10000000, NrPages: 1,
			Lazy: bits&1 != 0, InParent: bits&2 != 0, Zero: bits&4 != 0, Delta: bits&8 != 0,
		}
		want := image.PageData
		switch {
		case en.Lazy:
			want = image.PageLazy
		case en.InParent:
			want = image.PageParent
		case en.Zero:
			want = image.PageZero
		case en.Delta:
			want = image.PageDelta
		}
		if got := en.Class(); got != want {
			t.Errorf("flags %04b: Class() = %d, want %d", bits, got, want)
		}
		pm := &image.PagemapImage{Entries: []image.PagemapEntry{en}}
		pm.EachPage(func(addr uint64, class image.PageClass) {
			if addr != en.Vaddr || class != want {
				t.Errorf("flags %04b: EachPage yields 0x%x class %d", bits, addr, class)
			}
		})
		if n := pm.Counts(); n[want] != 1 {
			t.Errorf("flags %04b: Counts() = %v, want one page of class %d", bits, n, want)
		}

		doc, err := criu.Decode(ok)
		if err != nil {
			t.Fatal(err)
		}
		doc.Pagemap.Entries[0] = en
		err = imgcheck.Verify(criu.Encode(doc))
		multi := bits&(bits-1) != 0
		if named := err != nil && strings.Contains(err.Error(), imgcheck.InvPagemapFlags); named != multi {
			t.Errorf("flags %04b: %s named = %v, want %v (%v)", bits, imgcheck.InvPagemapFlags, named, multi, err)
		}
		if err != nil && strings.Contains(err.Error(), "dedup") {
			t.Errorf("flags %04b: the refusal still lists the retired dedup flag: %v", bits, err)
		}
	}
}
