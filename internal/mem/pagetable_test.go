package mem_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dapper-sim/dapper/internal/mem"
)

// modelFrame is a page of the naive model TestAddressSpaceMatchesModel
// checks an AddressSpace against: the frame the page must have (nil: a
// fresh one, learned after the step), the frame it had before the step,
// which a fresh one must differ from, and whether it is a copy-on-write
// share.
type modelFrame struct {
	frame, was *byte
	shared     bool
}

// TestAddressSpaceMatchesModel runs seeded random sequences of Map,
// growing and shrinking Resize, InstallPage and InstallPages (also at
// indices outside every VMA, which keep no page), MappedPages keeping
// some frames, share-breaking WriteU64 and WriteBytes, and loads that
// fault pages in through a handler, against a map of modelFrame keyed by
// page index. After every step MappedPages must walk the model's indices
// in order, PageData return the model's frame, and SharedResidentPages,
// ResidentBytes and CowBreaks the model's counts.
func TestAddressSpaceMatchesModel(t *testing.T) {
	const lo, hi = 8, 88 // page indices the steps pick from
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		as := mem.NewAddressSpace()
		vmas := [][2]uint64{} // mapped [first, end) page ranges, unsorted
		model := map[uint64]*modelFrame{}
		var breaks uint64
		mappedIdx := func(idx uint64) bool {
			for _, v := range vmas {
				if idx >= v[0] && idx < v[1] {
					return true
				}
			}
			return false
		}
		fresh := func(idx uint64) {
			m := &modelFrame{}
			if old := model[idx]; old != nil {
				m.was = old.frame
			}
			model[idx] = m
		}
		// write models a store into page idx of the space.
		write := func(idx uint64) {
			switch m := model[idx]; {
			case m == nil:
				fresh(idx)
			case m.shared:
				breaks++
				fresh(idx)
			}
		}
		mapRange := func(first, end uint64) error {
			err := as.Map(mem.VMA{Start: first * mem.PageSize, End: end * mem.PageSize, Kind: mem.VMAData})
			if err == nil {
				vmas = append(vmas, [2]uint64{first, end})
			}
			return err
		}
		if err := mapRange(16, 32); err != nil {
			t.Fatal(err)
		}
		if err := mapRange(48, 56); err != nil {
			t.Fatal(err)
		}
		as.SetFaultHandler(func(addr uint64, frame *[mem.PageSize]byte) error {
			if addr/mem.PageSize%7 == 0 {
				return errors.New("page server down")
			}
			copy(frame[:], pageOf(byte(addr/mem.PageSize)))
			return nil
		})
		for step := 0; step < 600; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			idx := uint64(lo + rng.Intn(hi-lo))
			switch op := rng.Intn(100); {
			case op < 5: // map a new area wherever it fits
				first := idx
				end := first + 1 + uint64(rng.Intn(12))
				overlaps := false
				for i := first; i < end; i++ {
					overlaps = overlaps || mappedIdx(i)
				}
				if err := mapRange(first, end); (err == nil) == overlaps {
					t.Fatalf("%s: Map [%d,%d) with overlap %v: %v", where, first, end, overlaps, err)
				}
			case op < 12: // resize an area, either way, up to its neighbour
				v := &vmas[rng.Intn(len(vmas))]
				limit := uint64(hi)
				for _, o := range vmas {
					if o[0] >= v[1] && o[0] < limit {
						limit = o[0]
					}
				}
				newEnd := v[0] + 1 + uint64(rng.Intn(int(limit-v[0])))
				if err := as.Resize(v[0]*mem.PageSize, newEnd*mem.PageSize); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				for i := newEnd; i < v[1]; i++ {
					delete(model, i)
				}
				v[1] = newEnd
			case op < 20:
				as.InstallPage(idx, pageOf(byte(step)))
				if mappedIdx(idx) {
					fresh(idx)
				}
			case op < 30: // adopt a run of pages of one buffer
				n := 1 + rng.Intn(4)
				buf := make([]byte, n*mem.PageSize)
				idxs := make([]uint64, n)
				for i := range idxs {
					idxs[i] = idx + uint64(i)
					if mappedIdx(idxs[i]) {
						model[idxs[i]] = &modelFrame{frame: &buf[i*mem.PageSize], shared: true}
					}
				}
				as.InstallPages(idxs, func(i int) []byte { return buf[i*mem.PageSize : (i+1)*mem.PageSize] })
			case op < 42: // share some resident pages, as a dump does
				as.MappedPages(func(_ mem.VMA, i uint64, _ []byte) bool {
					keep := rng.Intn(2) == 0
					model[i].shared = model[i].shared || keep
					return keep
				})
			case op < 70: // word store, sometimes across a page boundary
				off := uint64(rng.Intn(mem.PageSize/8)) * 8
				if rng.Intn(6) == 0 {
					off = mem.PageSize - 4
				}
				straddles := off > mem.PageSize-8
				ok := mappedIdx(idx) && (!straddles || mappedIdx(idx+1)) && (model[idx] != nil || idx%7 != 0)
				if straddles && ok && model[idx+1] == nil && (idx+1)%7 == 0 {
					// The second page's fetch fails after the first page is
					// written.
					write(idx)
					ok = false
				}
				err := as.WriteU64(idx*mem.PageSize+off, rng.Uint64())
				if (err == nil) != ok {
					t.Fatalf("%s: store to page %d+%d: %v", where, idx, off, err)
				}
				if ok {
					write(idx)
					if straddles {
						write(idx + 1)
					}
				}
			case op < 80: // WriteBytes over up to three pages; stops at the first fault
				n := uint64(1 + rng.Intn(3))
				err := as.WriteBytes(idx*mem.PageSize+mem.PageSize/2, make([]byte, (n-1)*mem.PageSize+1))
				var failed bool
				for i := idx; i < idx+n && !failed; i++ {
					if failed = !mappedIdx(i) || model[i] == nil && i%7 == 0; !failed {
						write(i)
					}
				}
				if (err != nil) != failed {
					t.Fatalf("%s: WriteBytes from page %d over %d pages: %v", where, idx, n, err)
				}
			default: // load, faulting a missing page in through the handler
				_, err := as.ReadU64(idx * mem.PageSize)
				ok := mappedIdx(idx) && (model[idx] != nil || idx%7 != 0)
				if (err == nil) != ok {
					t.Fatalf("%s: load from page %d: %v", where, idx, err)
				}
				if ok && model[idx] == nil {
					fresh(idx)
				}
			}
			checkModel(t, where, as, model, breaks)
		}
	}
}

// checkModel compares the space with the model, learning the frames the
// step allocated.
func checkModel(t *testing.T, where string, as *mem.AddressSpace, model map[uint64]*modelFrame, breaks uint64) {
	t.Helper()
	want := make([]uint64, 0, len(model))
	shared := 0
	for idx, m := range model {
		want = append(want, idx)
		if m.shared {
			shared++
		}
	}
	slices.Sort(want)
	var got []uint64
	as.MappedPages(func(_ mem.VMA, idx uint64, _ []byte) bool { got = append(got, idx); return false })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: MappedPages walks %v, model %v", where, got, want)
	}
	for _, idx := range want {
		m := model[idx]
		data, ok := as.PageData(idx)
		if !ok || len(data) != mem.PageSize {
			t.Fatalf("%s: PageData(%d) = %d bytes, %v", where, idx, len(data), ok)
		}
		switch {
		case m.frame == nil && &data[0] == m.was:
			t.Fatalf("%s: page %d kept its frame; the step must have replaced it", where, idx)
		case m.frame == nil:
			m.frame = &data[0]
		case &data[0] != m.frame:
			t.Fatalf("%s: page %d moved to another frame", where, idx)
		}
	}
	if got := as.SharedResidentPages(); got != shared {
		t.Fatalf("%s: SharedResidentPages = %d, model %d", where, got, shared)
	}
	if got := as.ResidentBytes(); got != uint64(len(model))*mem.PageSize {
		t.Fatalf("%s: ResidentBytes = %d, model %d pages", where, got, len(model))
	}
	if got := as.CowBreaks(); got != breaks {
		t.Fatalf("%s: CowBreaks = %d, model %d", where, got, breaks)
	}
}

// TestMappedPagesWalk: the dump's walk yields every resident page in
// address order with its area and frame, as FindVMA and PageData name
// them, and the frames it keeps become copy-on-write shares while the
// rest stay as they were.
func TestMappedPagesWalk(t *testing.T) {
	as := mem.NewAddressSpace()
	for _, v := range []mem.VMA{{Start: 0x30000, End: 0x34000, Kind: mem.VMAHeap}, {Start: 0x10000, End: 0x14000, Kind: mem.VMAData}} {
		if err := as.Map(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range []uint64{0x33, 0x11, 0x30, 0x13} {
		as.InstallPage(idx, pageOf(byte(idx)))
	}
	adopt(as, 0x12, pageOf(0x12))
	var walked []uint64
	as.MappedPages(func(v mem.VMA, idx uint64, data []byte) bool {
		if want, _ := as.FindVMA(idx * mem.PageSize); v != want {
			t.Errorf("page %#x walked in %+v, FindVMA says %+v", idx, v, want)
		}
		if frame, _ := as.PageData(idx); &frame[0] != &data[0] {
			t.Errorf("page %#x walked with another frame than PageData's", idx)
		}
		walked = append(walked, idx)
		return idx%2 == 1
	})
	if want := []uint64{0x11, 0x12, 0x13, 0x30, 0x33}; !slices.Equal(walked, want) {
		t.Fatalf("walked %#x, want the mapped resident pages %#x", walked, want)
	}
	if got := as.SharedResidentPages(); got != 4 {
		t.Errorf("SharedResidentPages = %d, want 4", got)
	}
}

// TestResizeRegrowsInPlace: a heap's slots grow in place, so an sbrk that
// regrows what a shrink gave back allocates nothing.
func TestResizeRegrowsInPlace(t *testing.T) {
	const base, pages = 0x2000_0000, 1024
	as := mem.NewAddressSpace()
	if err := as.Map(mem.VMA{Start: base, End: base + pages*mem.PageSize, Kind: mem.VMAHeap, Prot: mem.ProtRead | mem.ProtWrite}); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(base+(pages-1)*mem.PageSize, 7); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := as.Resize(base, base+mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := as.Resize(base, base+pages*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("shrink and regrow of a %d-page heap: %v allocations, want 0", pages, allocs)
	}
	if v, err := as.ReadU64(base + (pages-1)*mem.PageSize); err != nil || v != 0 {
		t.Errorf("regrown page reads %d, %v; want a demand-zero page", v, err)
	}
}
