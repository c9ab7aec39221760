package mem_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/dapper-sim/dapper/internal/mem"
)

const (
	tlbBase = uint64(0x10000) // start of the test VMA
	tlbPage = tlbBase + 2*mem.PageSize
	tlbIdx  = tlbPage / mem.PageSize
)

// prime fills the read and the write TLB entry of tlbPage and checks that
// further accesses of each kind hit.
func prime(t *testing.T, as *mem.AddressSpace) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if err := as.WriteU64(tlbPage+8, 0xAA); err != nil {
			t.Fatal(err)
		}
		if _, err := as.ReadU64(tlbPage + 8); err != nil {
			t.Fatal(err)
		}
	}
	misses := as.TLBMisses()
	if err := as.WriteU64(tlbPage+8, 0xAA); err != nil {
		t.Fatal(err)
	}
	if _, err := as.ReadU64(tlbPage + 8); err != nil {
		t.Fatal(err)
	}
	if as.TLBMisses() != misses {
		t.Fatal("accesses to a primed page still miss")
	}
}

func pageOf(b byte) []byte {
	data := make([]byte, mem.PageSize)
	for i := range data {
		data[i] = b
	}
	return data
}

func readWord(t *testing.T, as *mem.AddressSpace, addr uint64) uint64 {
	t.Helper()
	v, err := as.ReadU64(addr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestTLBFlushPoints primes the read and write entries of one page, then
// changes what the page index means in each of the ways the address space
// allows, and checks that the next access sees the new state rather than
// the cached verdict — and that Epoch, which the interpreter's code
// tables are validated against, moved. A copy-on-write break is the one
// change that keeps the Page: it moves the Page's Version, not the epoch.
func TestTLBFlushPoints(t *testing.T) {
	cases := map[string]func(t *testing.T, as *mem.AddressSpace){
		"Map": func(t *testing.T, as *mem.AddressSpace) {
			if err := as.Map(mem.VMA{Start: 0x40000, End: 0x41000, Kind: mem.VMAData}); err != nil {
				t.Fatal(err)
			}
			if err := as.WriteU64(0x40010, 3); err != nil {
				t.Errorf("store into the new area: %v", err)
			}
		},
		"Resize": func(t *testing.T, as *mem.AddressSpace) {
			if err := as.Resize(tlbBase, tlbBase+mem.PageSize); err != nil {
				t.Fatal(err)
			}
			var fe *mem.FaultError
			if _, err := as.ReadU64(tlbPage + 8); !errors.As(err, &fe) || fe.Addr != tlbPage+8 || fe.Write {
				t.Errorf("load from the shrunk-away page: %v", err)
			}
			if err := as.WriteU64(tlbPage+8, 1); !errors.As(err, &fe) || !fe.Write {
				t.Errorf("store to the shrunk-away page: %v", err)
			}
		},
		"InstallPage": func(t *testing.T, as *mem.AddressSpace) {
			as.InstallPage(tlbIdx, pageOf(0x11))
			checkReplaced(t, as, 0x11)
		},
		"InstallPages": func(t *testing.T, as *mem.AddressSpace) {
			as.InstallPages([]uint64{tlbIdx + 1, tlbIdx}, func(i int) []byte { return pageOf(0x21 + byte(i)) })
			checkReplaced(t, as, 0x22)
		},
		"InstallSharedPage": func(t *testing.T, as *mem.AddressSpace) {
			shared := pageOf(0x33)
			adopt(as, tlbIdx, shared)
			if v := readWord(t, as, tlbPage+8); v != 0x3333333333333333 {
				t.Errorf("load after the install = %#x, want the adopted bytes", v)
			}
			for i := uint64(0); i < 3; i++ {
				if err := as.WriteU64(tlbPage+8*i, i); err != nil {
					t.Fatal(err)
				}
			}
			if as.CowBreaks() != 1 || as.SharedResidentPages() != 0 {
				t.Errorf("three stores broke the share %d times, want exactly once", as.CowBreaks())
			}
			if !bytes.Equal(shared, pageOf(0x33)) {
				t.Error("a store reached the adopted bytes")
			}
		},
		"COW break": func(t *testing.T, as *mem.AddressSpace) {
			shared := pageOf(0x44)
			adopt(as, tlbIdx, shared)
			// Prime the read entry on the shared frame; the store must
			// not leave later loads looking at it.
			for i := 0; i < 2; i++ {
				readWord(t, as, tlbPage+8)
			}
			before, err := as.CodePage(tlbIdx)
			if err != nil {
				t.Fatal(err)
			}
			version, epoch := before.Version, as.Epoch()
			if err := as.WriteU64(tlbPage+8, 99); err != nil {
				t.Fatal(err)
			}
			// The break is in place: the same Page, a private frame behind
			// it, and the store's Version move is what code tables see.
			after, err := as.CodePage(tlbIdx)
			if err != nil {
				t.Fatal(err)
			}
			if after != before || after.Version == version {
				t.Errorf("the break replaced the Page (%v) or left its Version at %d", after != before, version)
			}
			if as.Epoch() != epoch {
				t.Error("the break flushed the TLBs")
			}
			if v := readWord(t, as, tlbPage+8); v != 99 {
				t.Errorf("load after the break = %#x, want the stored 99", v)
			}
			if v := readWord(t, as, tlbPage+16); v != 0x4444444444444444 {
				t.Errorf("private copy lost the shared bytes: %#x", v)
			}
			if !bytes.Equal(shared, pageOf(0x44)) || as.CowBreaks() != 1 {
				t.Errorf("shared bytes written or %d breaks", as.CowBreaks())
			}
		},
		"MappedPages keep": func(t *testing.T, as *mem.AddressSpace) {
			// The write entry still points at the frame; a store through it
			// would reach the snapshot.
			snap, _ := as.PageData(tlbIdx)
			as.MappedPages(func(_ mem.VMA, idx uint64, _ []byte) bool { return idx == tlbIdx })
			if err := as.WriteU64(tlbPage+8, 0x77); err != nil {
				t.Fatal(err)
			}
			if snap[8] != 0xAA {
				t.Errorf("a store after the share reached the snapshot (%#x)", snap[8])
			}
			if v := readWord(t, as, tlbPage+8); v != 0x77 {
				t.Errorf("load after the break = %#x, want the stored 0x77", v)
			}
			if as.CowBreaks() != 1 || as.SharedResidentPages() != 0 {
				t.Errorf("%d breaks, %d shares left; want one break, none left", as.CowBreaks(), as.SharedResidentPages())
			}
		},
		"SetFaultHandler": func(t *testing.T, as *mem.AddressSpace) {
			as.SetFaultHandler(func(_ uint64, frame *[mem.PageSize]byte) error {
				copy(frame[:], pageOf(0x66))
				return nil
			})
			if v := readWord(t, as, tlbPage+8); v != 0xAA {
				t.Errorf("resident page re-faulted: %#x", v)
			}
			if v := readWord(t, as, tlbPage+mem.PageSize); v != 0x6666666666666666 {
				t.Errorf("missing page not filled by the new handler: %#x", v)
			}
		},
		"StartDirtyTracking": func(t *testing.T, as *mem.AddressSpace) {
			as.StartDirtyTracking()
			checkStoreMarks(t, as)
		},
		"StopDirtyTracking": func(t *testing.T, as *mem.AddressSpace) {
			// No cached verdict goes wrong when tracking stops (a write
			// entry holds with tracking off); the flush is the uniform
			// rule, and all there is to see of it is the epoch.
			as.StartDirtyTracking()
			prime(t, as)
			epoch := as.Epoch()
			as.StopDirtyTracking()
			if as.Epoch() == epoch {
				t.Error("stopping did not move the epoch")
			}
			if err := as.WriteU64(tlbPage+8, 1); err != nil {
				t.Fatal(err)
			}
			as.StartDirtyTracking()
			checkStoreMarks(t, as)
		},
		"restart tracking": func(t *testing.T, as *mem.AddressSpace) {
			as.StartDirtyTracking()
			prime(t, as)
			as.StartDirtyTracking()
			checkStoreMarks(t, as)
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			as := mapped(t)
			prime(t, as)
			epoch := as.Epoch()
			mutate(t, as)
			if as.Epoch() == epoch {
				t.Error("the epoch did not move")
			}
		})
	}
}

// adopt installs data as page idx's frame the way restore does: shared,
// copy-on-write, without a copy.
func adopt(as *mem.AddressSpace, idx uint64, data []byte) {
	as.InstallPages([]uint64{idx}, func(int) []byte { return data })
}

// checkReplaced: the page was replaced by a frame filled with b; loads see
// it and stores land in it, not in the frame the TLB knew.
func checkReplaced(t *testing.T, as *mem.AddressSpace, b byte) {
	t.Helper()
	want := uint64(b) * 0x0101010101010101
	if v := readWord(t, as, tlbPage+8); v != want {
		t.Errorf("load after the install = %#x, want %#x", v, want)
	}
	if err := as.WriteU64(tlbPage+8, 5); err != nil {
		t.Fatal(err)
	}
	data, _ := as.PageData(tlbIdx)
	if data[8] != 5 || data[16] != b {
		t.Errorf("store after the install did not land in the installed frame (%#x %#x)", data[8], data[16])
	}
}

// checkStoreMarks: with tracking on and the set empty, a store to the
// primed page must mark it dirty.
func checkStoreMarks(t *testing.T, as *mem.AddressSpace) {
	t.Helper()
	if as.Dirty(tlbIdx) {
		t.Fatal("primed page dirty before the store")
	}
	if err := as.WriteU64(tlbPage+8, 2); err != nil {
		t.Fatal(err)
	}
	if !as.Dirty(tlbIdx) {
		t.Errorf("page %d not dirty after a store", tlbIdx)
	}
}

// TestSoftDirtyMatchesNaiveModel drives random sequences of stores, loads,
// tracking switches, page installs, adoptions, dumps and resizes, and
// compares the pages Dirty reports after every step with a set
// the test keeps by the obvious rule: while tracking is on, anything that
// writes or unmaps a page adds it. The write TLB skips markDirty on a hit; this is
// the test that it only does so when the mark is already there. A dump
// keeps every resident page's frame and shares it, as criu.Dump does, and
// the last few dumps' pages and adopted buffers must keep their
// bytes through everything after: stores that hit, miss or straddle,
// WriteBytes, installs, shares and resizes.
func TestSoftDirtyMatchesNaiveModel(t *testing.T) {
	const pages = 24
	first := tlbBase / mem.PageSize
	type kept struct{ page, was []byte }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		as := mem.NewAddressSpace()
		if err := as.Map(mem.VMA{Start: tlbBase, End: tlbBase + pages*mem.PageSize, Kind: mem.VMAData}); err != nil {
			t.Fatal(err)
		}
		end := first + pages // one past the last mapped page index
		tracking := false
		model := map[uint64]bool{}
		mark := func(idx uint64) {
			if tracking {
				model[idx] = true
			}
		}
		var dumps []map[uint64]kept // the last four, oldest first
		var adopted []kept          // the last four adopted buffers
		unchanged := func(step int, idxs ...uint64) {
			for d, dump := range dumps {
				for _, idx := range idxs {
					if k, ok := dump[idx]; ok && !bytes.Equal(k.page, k.was) {
						t.Fatalf("seed %d step %d: page %d of dump %d changed under it", seed, step, idx, d)
					}
				}
			}
			for _, k := range adopted {
				if !bytes.Equal(k.page, k.was) {
					t.Fatalf("seed %d step %d: an adopted buffer changed", seed, step)
				}
			}
		}
		for step := 0; step < 2000; step++ {
			idx := first + uint64(rng.Intn(pages))
			inside := idx < end
			switch op := rng.Intn(100); {
			case op < 40: // word store, sometimes across a page boundary
				off := uint64(rng.Intn(mem.PageSize/8)) * 8
				if rng.Intn(8) == 0 {
					off = mem.PageSize - 4
				}
				err := as.WriteU64(idx*mem.PageSize+off, rng.Uint64())
				straddles := off > mem.PageSize-8
				switch {
				case !inside || straddles && idx+1 == end:
					if err == nil {
						t.Fatalf("seed %d step %d: store past the VMA end succeeded", seed, step)
					}
				case err != nil:
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				default:
					mark(idx)
					if straddles {
						mark(idx + 1)
					}
				}
			case op < 58:
				if _, err := as.ReadU64(idx * mem.PageSize); (err == nil) != inside {
					t.Fatalf("seed %d step %d: load from page %d, VMA ending at %d: %v", seed, step, idx, end, err)
				}
			case op < 65:
				err := as.WriteBytes(idx*mem.PageSize+100, []byte{1, 2, 3})
				if (err == nil) != inside {
					t.Fatalf("seed %d step %d: WriteBytes to page %d, VMA ending at %d: %v", seed, step, idx, end, err)
				}
				if err == nil {
					mark(idx)
				}
			case op < 72:
				as.StartDirtyTracking()
				tracking, model = true, map[uint64]bool{}
			case op < 74:
				as.StopDirtyTracking()
				tracking, model = false, map[uint64]bool{}
			case op < 78:
				as.InstallPage(idx, pageOf(byte(step)))
				mark(idx)
			case op < 86: // adopt one or two pages of one buffer
				buf := pageOf(byte(step))
				buf = append(buf, pageOf(^byte(step))...)
				idxs := []uint64{idx}
				if idx+1 < first+pages {
					idxs = append(idxs, idx+1)
				}
				as.InstallPages(idxs, func(i int) []byte { return buf[i*mem.PageSize:] })
				for _, i := range idxs {
					mark(i)
				}
				if adopted = append(adopted, kept{buf, bytes.Clone(buf)}); len(adopted) > 4 {
					adopted = adopted[1:]
				}
			case op < 90: // dump
				dump := make(map[uint64]kept)
				as.MappedPages(func(_ mem.VMA, i uint64, pg []byte) bool { dump[i] = kept{pg, bytes.Clone(pg)}; return true })
				if dumps = append(dumps, dump); len(dumps) > 4 {
					dumps = dumps[1:]
				}
			default: // sbrk, either way; a shrink marks what it unmaps
				newEnd := first + 1 + uint64(rng.Intn(pages))
				if err := as.Resize(tlbBase, newEnd*mem.PageSize); err != nil {
					t.Fatal(err)
				}
				for i := newEnd; i < end; i++ {
					mark(i)
				}
				end = newEnd
			}
			// Only the pages a step names can be written by it.
			unchanged(step, idx, idx+1)
			want := make([]uint64, 0, len(model))
			for idx := range model {
				want = append(want, idx)
			}
			slices.Sort(want)
			if got := dirtyPages(as, first, pages); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: dirty set %v, model %v", seed, step, got, want)
			}
		}
		for i := first; i < first+pages; i++ {
			unchanged(-1, i)
		}
	}
}
