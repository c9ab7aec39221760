package image_test

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/mem"
)

// TestMarshalEqualsFrameFiles pins Marshal's contract at its corners —
// no files, an empty file, a file past the sink's 8 MiB preallocation
// bound: the blob is the concatenation of FrameFile over Names(), sized
// exactly, and it round-trips.
func TestMarshalEqualsFrameFiles(t *testing.T) {
	big := image.NewImageDir()
	big.Put("mm.img", []byte{1, 2, 3})
	big.Put("pages.img", bytes.Repeat([]byte{0x5a, 0xa5, 0}, (8<<20)/3+4096))
	empty := image.NewImageDir()
	empty.Put("inventory.img", nil)
	empty.Put("pages.img", []byte{})
	for name, dir := range map[string]*image.ImageDir{
		"no files": image.NewImageDir(), "empty files": empty, "framing corners": testDir(), "file over 8 MiB": big,
	} {
		var want []byte
		for _, n := range dir.Names() {
			data, _ := dir.Get(n)
			want = append(want, image.FrameFile(n, data)...)
		}
		got := dir.Marshal()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Marshal is %d bytes, FrameFile concatenation %d, or they differ", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: Marshal allocated %d bytes for a %d-byte blob", name, cap(got), len(got))
		}
		back, err := image.UnmarshalImageDir(got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(back.Marshal(), got) {
			t.Errorf("%s: blob does not round-trip", name)
		}
	}
}

// TestMarshalAlignsPayload: whether pages.img is held flat or as a page
// list, the blob Marshal returns puts its first data byte on a 4 KiB
// boundary of memory, so the frames a restore adopts from the received
// blob are aligned, and the blob is still exactly the FrameFile
// concatenation (TestMarshalEqualsFrameFiles; the golden digests pin the
// real images).
func TestMarshalAlignsPayload(t *testing.T) {
	list, _ := cowDir(t, 16)
	flat := image.NewImageDir()
	for _, dir := range []*image.ImageDir{list, flat} {
		dir.Put("core-1.img", []byte{1, 2, 3}) // odd sizes put pages.img anywhere
		dir.Put("mm.img", bytes.Repeat([]byte{7}, 555))
	}
	pages, _ := list.Get("pages.img")
	flat.Put("pages.img", pages)
	for name, dir := range map[string]*image.ImageDir{"list": list, "flat": flat} {
		blob := dir.Marshal()
		back, err := image.UnmarshalImageDir(blob)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := back.Payload()
		first := got.Page(0)
		if addr := uintptr(unsafe.Pointer(unsafe.SliceData(first))); addr%mem.PageSize != 0 {
			t.Errorf("%s: pages.img data starts at %#x, %d bytes past a page boundary", name, addr, addr%mem.PageSize)
		}
		if at := len(blob) - len(pages); &blob[at] != &first[0] || !bytes.Equal(blob[at:], pages) {
			t.Errorf("%s: pages.img is not the blob's tail", name)
		}
	}
}

const cowBase = 0x10000

// cowDir stores n data pages at cowBase (page i filled with byte i+1)
// followed by one zero page, and returns the directory with a private
// copy of its pages.img to compare against later.
func cowDir(t *testing.T, n int) (*image.ImageDir, []byte) {
	t.Helper()
	ps := image.NewPageSet(0)
	for i := 0; i < n; i++ {
		ps.InstallPage(cowBase+uint64(i)*mem.PageSize, bytes.Repeat([]byte{byte(i + 1)}, mem.PageSize))
	}
	ps.Put(cowBase+uint64(n)*mem.PageSize, image.PageZero, nil)
	dir := image.NewImageDir()
	ps.Store(dir)
	pages, _ := dir.Get("pages.img")
	return dir, bytes.Clone(pages)
}

// TestPageSetCopyOnWrite is the invariant the alias-not-copy LoadPageSet
// rests on: no write through a PageSet, by any of its mutators, reaches
// the directory it was loaded from.
func TestPageSetCopyOnWrite(t *testing.T) {
	page := func(i int) uint64 { return cowBase + uint64(i)*mem.PageSize }
	mutations := map[string]func(t *testing.T, ps *image.PageSet){
		"WriteU64": func(t *testing.T, ps *image.PageSet) {
			for _, a := range []uint64{page(0), page(2) + 8, page(2) + 4088} {
				if err := ps.WriteU64(a, 0xdeadbeefcafef00d); err != nil {
					t.Fatal(err)
				}
			}
			if v, _ := ps.ReadU64(page(2) + 8); v != 0xdeadbeefcafef00d {
				t.Errorf("read back 0x%x through the writing set", v)
			}
			if v, _ := ps.ReadU64(page(2) + 16); v != 0x0303030303030303 {
				t.Errorf("the rest of a copied page reads 0x%x, want its loaded content", v)
			}
		},
		"WriteU64 into the zero page": func(t *testing.T, ps *image.PageSet) {
			if err := ps.WriteU64(page(4)+64, 7); err != nil {
				t.Fatal(err)
			}
		},
		"InstallPage": func(t *testing.T, ps *image.PageSet) {
			ps.InstallPage(page(1), bytes.Repeat([]byte{0xee}, mem.PageSize))
			if err := ps.WriteU64(page(1), 1); err != nil {
				t.Fatal(err)
			}
		},
		"DropRange then write": func(t *testing.T, ps *image.PageSet) {
			ps.DropRange(page(1), page(3))
			if err := ps.WriteU64(page(1)+8, 2); err != nil {
				t.Fatal(err)
			}
			if err := ps.WriteU64(page(3)+8, 3); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			dir, want := cowDir(t, 4)
			ps, err := image.LoadPageSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			mutate(t, ps)
			if got, _ := dir.Get("pages.img"); !bytes.Equal(got, want) {
				t.Fatal("a write through the PageSet reached the pages.img it was loaded from")
			}
			// The edits themselves must survive a store into another
			// directory, again without touching the source.
			out := image.NewImageDir()
			ps.Store(out)
			if got, _ := dir.Get("pages.img"); !bytes.Equal(got, want) {
				t.Fatal("Store wrote into the source pages.img")
			}
			stored, _ := out.Get("pages.img")
			if bytes.Equal(stored, want) {
				t.Error("the stored pages.img carries none of the edits")
			}
			// Store copied nothing: out holds the set's own page slices,
			// the ones it allocated for the edits above included. Its
			// ownership ended there, so writing every page again must
			// reach neither directory.
			blob := out.Marshal()
			pm, err := out.Pagemap()
			if err != nil {
				t.Fatal(err)
			}
			pm.EachPage(func(a uint64, class image.PageClass) {
				if class != image.PageData {
					return
				}
				if err := ps.WriteU64(a+24, 0x1111111111111111); err != nil {
					t.Fatal(err)
				}
			})
			if got, _ := out.Get("pages.img"); !bytes.Equal(got, stored) || !bytes.Equal(out.Marshal(), blob) {
				t.Fatal("a write after Store reached the directory stored into")
			}
			if got, _ := dir.Get("pages.img"); !bytes.Equal(got, want) {
				t.Fatal("a write after Store reached the pages.img the set was loaded from")
			}
		})
	}
}

// TestImageDirConcurrentReaders: clone fan-out and the fleet restore one
// directory from many goroutines, and a rewritten directory holds
// pages.img as a page list that Get joins. No reader may write to the
// directory: under -race, N goroutines Get, load, measure and marshal one
// stored directory and all see the same bytes.
func TestImageDirConcurrentReaders(t *testing.T) {
	dir, want := cowDir(t, 64)
	blob := dir.Marshal()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, ok := dir.Get("pages.img"); !ok || !bytes.Equal(got, want) {
					t.Error("Get(pages.img) differs between readers")
				}
				ps, err := image.LoadPageSet(dir)
				if err != nil || ps.Class(cowBase+63*mem.PageSize) != image.PageData || ps.Class(cowBase+64*mem.PageSize) != image.PageZero ||
					!bytes.Equal(ps.Data(cowBase), want[:mem.PageSize]) {
					t.Errorf("LoadPageSet: page 63 %v, page 64 %v, err %v", ps.Class(cowBase+63*mem.PageSize), ps.Class(cowBase+64*mem.PageSize), err)
				}
				if pl, _ := dir.Payload(); pl.Len() != len(want) || dir.Size() < uint64(len(want)) {
					t.Errorf("Payload is %d bytes, Size %d, want %d of pages", pl.Len(), dir.Size(), len(want))
				}
				if !bytes.Equal(dir.Marshal(), blob) {
					t.Error("Marshal differs between readers")
				}
			}
		}()
	}
	wg.Wait()
}

// TestXorPagesMatchesBytewise holds the word-at-a-time XOR to a byte loop
// for every length of a and b around a word's and a page's edges: a fresh
// page, a ⊕ b over the shorter, the rest of a after it, zeros past a.
func TestXorPagesMatchesBytewise(t *testing.T) {
	a, b := make([]byte, mem.PageSize+9), make([]byte, mem.PageSize+9)
	for i := range a {
		a[i], b[i] = byte(i*7+1), byte(i*13+5)
	}
	lens := []int{0, 1, 7, 8, 9, 15, 16, 17, mem.PageSize - 1, mem.PageSize, mem.PageSize + 9}
	for _, na := range lens {
		for _, nb := range lens {
			want := make([]byte, mem.PageSize)
			copy(want, a[:na])
			for i := 0; i < min(na, nb, mem.PageSize); i++ {
				want[i] ^= b[i]
			}
			got := image.XorPages(a[:na], b[:nb])
			if !bytes.Equal(got, want) {
				t.Fatalf("len(a) %d, len(b) %d: XorPages differs from the byte loop", na, nb)
			}
			if &got[0] == &a[0] || &got[0] == &b[0] {
				t.Fatalf("len(a) %d, len(b) %d: XorPages returned an argument's bytes", na, nb)
			}
		}
	}
}
