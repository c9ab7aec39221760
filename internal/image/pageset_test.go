package image_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/mem"
)

// TestRefusedWriteLeavesPageSet: a word write that crosses the page end is
// refused before it touches the set. A lazy, a zero, an absent and a
// borrowed data page keep their class, the set stores the same pagemap.img
// and pages.img as before the writes, and the borrowed bytes are unchanged.
func TestRefusedWriteLeavesPageSet(t *testing.T) {
	const lazy, zero, absent, borrowed = 0x10000, 0x11000, 0x12000, 0x13000
	data := bytes.Repeat([]byte{0x5a}, mem.PageSize)
	ps := emptyPageSet(t)
	ps.Put(lazy, image.PageLazy, nil)
	ps.Put(zero, image.PageZero, nil)
	ps.Put(borrowed, image.PageData, data)
	before := image.NewImageDir()
	ps.Store(before)
	for _, a := range []uint64{lazy, zero, absent, borrowed} {
		class := ps.Class(a)
		if err := ps.WriteU64(a+mem.PageSize-4, 0xdeadbeefcafef00d); err == nil {
			t.Errorf("a write crossing the end of the %v page at 0x%x was accepted", class, a)
		}
		if got := ps.Class(a); got != class {
			t.Errorf("a refused write turned the %v page at 0x%x into %v", class, a, got)
		}
	}
	after := image.NewImageDir()
	ps.Store(after)
	for _, name := range []string{image.PagemapName, image.PagesName} {
		was, _ := before.Get(name)
		got, _ := after.Get(name)
		if !bytes.Equal(got, was) {
			t.Errorf("%s changed after refused writes", name)
		}
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0x5a}, mem.PageSize)) {
		t.Error("a refused write reached the borrowed page")
	}
}

// modelPage is a page of the naive model TestPageSetMatchesModel checks a
// PageSet against: its class, and its bytes — content for PageData, the
// XOR for PageDelta, nothing for the rest.
type modelPage struct {
	class image.PageClass
	data  [mem.PageSize]byte
}

// TestPageSetMatchesModel runs seeded sequences of every mutator over a
// few addresses — Put of each class and of lazy runs, aligned and
// page-crossing WriteU64, InstallPage, DropRange and Store→LoadPageSet
// round trips — and after each step requires Class, Data and ReadU64 to
// agree with a map of modelPage. Each Store's pagemap must list the
// model's pages once each, in address order, with the model's bytes in
// pages.img. Nothing the set borrowed may change: no buffer handed to Put,
// and no directory it was stored into or loaded from. Lazy pages are
// records of the set like any other, so the seeds must reach a write onto
// a lazy page, a DropRange across a lazy run, and a Store and a load of a
// lazy run.
func TestPageSetMatchesModel(t *testing.T) {
	const nAddr = 8
	addr := func(i int) uint64 { return 0x40000 + uint64(i)*mem.PageSize }
	randPage := func(rng *rand.Rand) []byte {
		pg := make([]byte, mem.PageSize)
		rng.Read(pg)
		return pg
	}
	// How often the seeds reached each lazy-page case.
	var lazyWrites, lazyDrops, lazyStores, lazyLoads int
	isLazy := func(model map[uint64]*modelPage, a uint64) bool {
		return model[a] != nil && model[a].class == image.PageLazy
	}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := emptyPageSet(t)
		model := map[uint64]*modelPage{}
		var lent [][2][]byte // buffers handed to Put, with a copy
		type stored struct {
			dir  *image.ImageDir
			blob []byte
		}
		var dirs []stored
		unchanged := func(where string) {
			t.Helper()
			for i, l := range lent {
				if !bytes.Equal(l[0], l[1]) {
					t.Fatalf("%s: a write reached buffer %d handed to Put", where, i)
				}
			}
			for i, d := range dirs {
				if !bytes.Equal(d.dir.Marshal(), d.blob) {
					t.Fatalf("%s: a write reached directory %d the set was stored into", where, i)
				}
			}
		}
		for step := 0; step < 300; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			i := rng.Intn(nAddr)
			a := addr(i)
			m := model[a]
			was := image.PageAbsent
			if m != nil {
				was = m.class
			}
			switch rng.Intn(7) {
			case 0:
				class := image.PageClass(rng.Intn(int(image.PageDelta) + 1))
				var pg []byte
				if class == image.PageData || class == image.PageDelta {
					pg = randPage(rng)
					lent = append(lent, [2][]byte{pg, bytes.Clone(pg)})
				}
				ps.Put(a, class, pg)
				delete(model, a)
				if class != image.PageAbsent {
					model[a] = &modelPage{class: class}
					copy(model[a].data[:], pg)
				}
			case 1:
				off, v := uint64(rng.Intn(mem.PageSize/8))*8, rng.Uint64()
				err := ps.WriteU64(a+off, v)
				refused := was == image.PageParent || was == image.PageDelta
				if refused != (err != nil) {
					t.Fatalf("%s: WriteU64 at 0x%x over a page of class %v: err %v", where, a+off, was, err)
				}
				if was == image.PageLazy {
					lazyWrites++
				}
				if !refused {
					if was != image.PageData {
						m = &modelPage{class: image.PageData}
						model[a] = m
					}
					binary.LittleEndian.PutUint64(m.data[off:], v)
				}
			case 2:
				if err := ps.WriteU64(a+mem.PageSize-1-uint64(rng.Intn(7)), 1); err == nil {
					t.Fatalf("%s: a page-crossing write was accepted", where)
				}
			case 3:
				pg := randPage(rng)
				ps.InstallPage(a+uint64(rng.Intn(mem.PageSize)), pg)
				model[a] = &modelPage{class: image.PageData}
				copy(model[a].data[:], pg)
				pg[0]++ // the set holds a copy
			case 4:
				hi := i + rng.Intn(4)
				if hi > i+1 && isLazy(model, a) && isLazy(model, addr(i+1)) {
					lazyDrops++
				}
				ps.DropRange(a, addr(hi))
				for j := i; j < hi; j++ {
					delete(model, addr(j))
				}
			case 5:
				dir := image.NewImageDir()
				ps.Store(dir)
				checkStored(t, where, dir, model)
				dirs = append(dirs, stored{dir, dir.Marshal()})
				run := false
				for j := 0; j+1 < nAddr; j++ {
					run = run || isLazy(model, addr(j)) && isLazy(model, addr(j+1))
				}
				if run {
					lazyStores++
				}
				if rng.Intn(2) == 0 {
					if run {
						lazyLoads++
					}
					var err error
					if ps, err = image.LoadPageSet(dir); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
				unchanged(where)
			case 6: // a lazy run, as a post-copy dump leaves a heap behind
				hi := min(i+1+rng.Intn(3), nAddr)
				for j := i; j < hi; j++ {
					ps.Put(addr(j), image.PageLazy, nil)
					model[addr(j)] = &modelPage{class: image.PageLazy}
				}
			}
			for j := 0; j < nAddr; j++ {
				checkPage(t, where, ps, addr(j), model[addr(j)], uint64(rng.Intn(mem.PageSize/8))*8)
			}
		}
		unchanged(fmt.Sprintf("seed %d", seed))
	}
	t.Logf("lazy cases reached: %d writes, %d run drops, %d run stores, %d run loads", lazyWrites, lazyDrops, lazyStores, lazyLoads)
	if lazyWrites == 0 || lazyDrops == 0 || lazyStores == 0 || lazyLoads == 0 {
		t.Error("the seeds missed a lazy-page case")
	}
}

// checkPage requires the set's reading of the page at a to be m's (nil:
// absent), through Class, Data and ReadU64 at off.
func checkPage(t *testing.T, where string, ps *image.PageSet, a uint64, m *modelPage, off uint64) {
	t.Helper()
	want := &modelPage{}
	if m != nil {
		want = m
	}
	if got := ps.Class(a); got != want.class {
		t.Fatalf("%s: page 0x%x is %v, model %v", where, a, got, want.class)
	}
	data := ps.Data(a)
	if want.class == image.PageData != (data != nil) || data != nil && !bytes.Equal(data, want.data[:]) {
		t.Fatalf("%s: Data of the %v page 0x%x differs from the model", where, want.class, a)
	}
	v, err := ps.ReadU64(a + off)
	switch want.class {
	case image.PageData:
		if w := binary.LittleEndian.Uint64(want.data[off:]); err != nil || v != w {
			t.Fatalf("%s: ReadU64(0x%x) = 0x%x, %v; model 0x%x", where, a+off, v, err, w)
		}
	case image.PageZero:
		if err != nil || v != 0 {
			t.Fatalf("%s: ReadU64(0x%x) of a zero page = 0x%x, %v", where, a+off, v, err)
		}
	default:
		if err == nil {
			t.Fatalf("%s: ReadU64(0x%x) of a %v page succeeded", where, a+off, want.class)
		}
	}
}

// checkStored requires dir's pagemap to list exactly the model's pages,
// once each and in address order, with the model's bytes for data and
// delta pages in pages.img.
func checkStored(t *testing.T, where string, dir *image.ImageDir, model map[uint64]*modelPage) {
	t.Helper()
	pm, err := dir.Pagemap()
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	payload, _ := dir.Payload()
	listed, next, last := 0, 0, uint64(0)
	pm.EachPage(func(a uint64, class image.PageClass) {
		m := model[a]
		switch {
		case listed > 0 && a <= last:
			t.Fatalf("%s: the pagemap lists 0x%x after 0x%x", where, a, last)
		case m == nil:
			t.Fatalf("%s: the pagemap lists 0x%x, absent from the model", where, a)
		case m.class != class:
			t.Fatalf("%s: the pagemap lists 0x%x as %v, model %v", where, a, class, m.class)
		}
		if class == image.PageData || class == image.PageDelta {
			if !bytes.Equal(payload.Page(next), m.data[:]) {
				t.Fatalf("%s: pages.img holds other bytes for the %v page 0x%x", where, class, a)
			}
			next++
		}
		listed, last = listed+1, a
	})
	if listed != len(model) || next*mem.PageSize != payload.Len() {
		t.Fatalf("%s: the pagemap lists %d pages and pages.img holds %d bytes; model %d pages", where, listed, payload.Len(), len(model))
	}
}

// emptyPageSet is the page set of an empty pagemap.
func emptyPageSet(t testing.TB) *image.PageSet {
	dir := image.NewImageDir()
	dir.Put(image.PagemapName, nil)
	ps, err := image.LoadPageSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}
