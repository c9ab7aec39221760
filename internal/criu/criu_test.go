package criu_test

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
)

func TestCoreImageRoundTrip(t *testing.T) {
	c := &image.CoreImage{
		TID: 3, Arch: isa.SARM,
		StackLow: 0x6ff00000, StackHigh: 0x6ff40000, TLSBlock: 0x60002000,
	}
	for i := range c.Regs.R {
		c.Regs.R[i] = uint64(i) * 0x1111111111111111
	}
	c.Regs.PC = 0x400abc
	c.Regs.TLS = 0x60002010
	got := &image.CoreImage{}
	if err := imgproto.Unmarshal(imgproto.Marshal(c), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", c, got)
	}
}

func TestMMImageRoundTrip(t *testing.T) {
	m := &image.MMImage{
		Brk: 0x20004000,
		VMAs: []image.VMAEntry{
			{Start: 0x400000, End: 0x410000, Kind: 1, Prot: 5},
			{Start: 0x6ff00000, End: 0x6ff40000, Kind: 4, Prot: 3, TID: 2},
		},
	}
	got := &image.MMImage{}
	if err := imgproto.Unmarshal(imgproto.Marshal(m), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", m, got)
	}
}

func TestInventoryRoundTrip(t *testing.T) {
	iv := &image.InventoryImage{
		Arch: isa.SX86, TIDs: []int{1, 2, 5},
		Mutexes: []image.MutexEntry{{ID: 7, Holder: 2, Recurse: 3}},
	}
	got := &image.InventoryImage{}
	if err := imgproto.Unmarshal(imgproto.Marshal(iv), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(iv, got) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", iv, got)
	}
}

func TestImageDirRoundTripProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		dir := image.NewImageDir()
		dir.Put("a.img", a)
		dir.Put("b.img", b)
		got, err := criu.UnmarshalImageDir(dir.Marshal())
		if err != nil {
			return false
		}
		ga, _ := got.Get("a.img")
		gb, _ := got.Get("b.img")
		return bytes.Equal(ga, a) && bytes.Equal(gb, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageSetStoreLoadRoundTrip(t *testing.T) {
	dir := image.NewImageDir()
	ps := emptyPageSet(t)
	mk := func(fill byte) []byte {
		pg := make([]byte, mem.PageSize)
		for i := range pg {
			pg[i] = fill
		}
		return pg
	}
	// Two contiguous runs, a gap, a lazy run interleaved.
	ps.Put(0x10000, image.PageData, mk(1))
	ps.Put(0x11000, image.PageData, mk(2))
	ps.Put(0x12000, image.PageLazy, nil)
	ps.Put(0x13000, image.PageLazy, nil)
	ps.Put(0x20000, image.PageData, mk(3))
	ps.Store(dir)

	pmRaw, _ := dir.Get("pagemap.img")
	pm := &image.PagemapImage{}
	if err := imgproto.Unmarshal(pmRaw, pm); err != nil {
		t.Fatal(err)
	}
	// Expect three coalesced entries: eager x2, lazy x2, eager x1.
	if len(pm.Entries) != 3 {
		t.Fatalf("pagemap entries = %+v", pm.Entries)
	}
	if pm.Entries[0].NrPages != 2 || pm.Entries[0].Lazy {
		t.Errorf("entry 0 = %+v", pm.Entries[0])
	}
	if pm.Entries[1].NrPages != 2 || !pm.Entries[1].Lazy {
		t.Errorf("entry 1 = %+v", pm.Entries[1])
	}

	got, err := criu.LoadPageSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data(0x11000), mk(2)) {
		t.Error("page content lost")
	}
	if got.Class(0x13000) != image.PageLazy {
		t.Error("lazy flag lost")
	}
	if got.Data(0x12000) != nil {
		t.Error("lazy page has eager content")
	}
}

// TestLoadPageSetListsLazyPages: criu.LoadPageSet of a post-copy dump
// lists in LazyPages exactly the pages the dump left on the source — each
// resident page outside the text, stacks and TLS but for the first data
// page, which holds the DAPPER flag — and the set classes each of them
// PageLazy. The host-time benchmark ranges over LazyPages to pick the
// pages its page-fetch probe asks for.
func TestLoadPageSetListsLazyPages(t *testing.T) {
	k, p, pair := goldenProc(t, "rediska")
	if err := monitor.New(k, p, pair.Meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := criu.LoadPageSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	p.AS.MappedPages(func(v mem.VMA, idx uint64, _ []byte) bool {
		a := idx * mem.PageSize
		lazy := v.Kind != mem.VMAText && v.Kind != mem.VMAStack && v.Kind != mem.VMATLS && a != isa.DataBase
		if lazy {
			want++
		}
		if ps.LazyPages[a] != lazy || (ps.Class(a) == image.PageLazy) != lazy {
			t.Errorf("page 0x%x of a %v VMA: listed %v, class %v; lazy %v", a, v.Kind, ps.LazyPages[a], ps.Class(a), lazy)
		}
		return false
	})
	if want == 0 || len(ps.LazyPages) != want {
		t.Errorf("LazyPages lists %d pages, the dump left %d", len(ps.LazyPages), want)
	}
}

func TestPageSetReadWrite(t *testing.T) {
	ps := emptyPageSet(t)
	ps.Put(0x3000, image.PageLazy, nil)
	if err := ps.WriteU64(0x1008, 0xdead); err != nil {
		t.Fatal(err)
	}
	v, err := ps.ReadU64(0x1008)
	if err != nil || v != 0xdead {
		t.Errorf("read back %x (err %v)", v, err)
	}
	if _, err := ps.ReadU64(0x9000); err == nil {
		t.Error("read of absent page succeeded")
	}
	// Writing to a lazy page materializes it and clears the lazy flag.
	if err := ps.WriteU64(0x3000, 1); err != nil {
		t.Fatal(err)
	}
	if ps.Class(0x3000) != image.PageData {
		t.Error("write did not clear lazy flag")
	}
	ps.DropRange(0x1000, 0x2000)
	if _, err := ps.ReadU64(0x1008); err == nil {
		t.Error("read after DropRange succeeded")
	}
}

func TestCritJSONRoundTrip(t *testing.T) {
	dir := image.NewImageDir()
	dir.Put("inventory.img", imgproto.Marshal(&image.InventoryImage{Arch: isa.SX86, TIDs: []int{1}}))
	dir.Put("files.img", imgproto.Marshal(&image.FilesImage{ExePath: "/bin/x.sx86"}))
	core := &image.CoreImage{TID: 1, Arch: isa.SX86}
	core.Regs.PC = 0x401000
	dir.Put("core-1.img", imgproto.Marshal(core))
	dir.Put("mm.img", imgproto.Marshal(&image.MMImage{Brk: 0x20000000}))
	dir.Put("pagemap.img", imgproto.Marshal(&image.PagemapImage{}))
	dir.Put("pages.img", nil)
	dir.Put("custom.img", []byte("extra"))

	js, err := criu.DecodeJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte("/bin/x.sx86")) {
		t.Error("JSON missing exe path")
	}
	back, err := criu.EncodeJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"inventory.img", "files.img", "core-1.img", "mm.img", "custom.img"} {
		orig, _ := dir.Get(name)
		enc, ok := back.Get(name)
		if !ok || !bytes.Equal(orig, enc) {
			t.Errorf("%s not preserved through CRIT round trip", name)
		}
	}
}

// TestCritEditWorkflow modifies an image through the JSON form, the way a
// scripted CRIT transformation would.
func TestCritEditWorkflow(t *testing.T) {
	dir := image.NewImageDir()
	dir.Put("files.img", imgproto.Marshal(&image.FilesImage{ExePath: "/bin/app.sx86"}))
	doc, err := criu.Decode(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc.Files.ExePath = "/bin/app.sarm"
	dir2 := criu.Encode(doc)
	raw, _ := dir2.Get("files.img")
	files, err := criu.UnmarshalFiles(raw)
	if err != nil || files.ExePath != "/bin/app.sarm" {
		t.Errorf("edited path = %q (err %v)", files.ExePath, err)
	}
}

func TestTCPPageServer(t *testing.T) {
	// A synthetic page source served over a real socket.
	src := pageFunc(func(addr uint64) ([]byte, error) {
		pg := make([]byte, mem.PageSize)
		pg[0] = byte(addr >> 12)
		pg[1] = 0x77
		return pg, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := criu.ServePagesOn(ln, src)
	defer srv.Close()
	client, err := criu.DialPageServerOpts(srv.Addr(), criu.PageClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, addr := range []uint64{0x1000, 0xabc000, 0x20000000} {
		pg, err := client.FetchPage(addr)
		if err != nil {
			t.Fatal(err)
		}
		if pg[0] != byte(addr>>12) || pg[1] != 0x77 {
			t.Errorf("page 0x%x content wrong: % x", addr, pg[:2])
		}
	}
}

type pageFunc func(uint64) ([]byte, error)

func (f pageFunc) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	page, err := f(addr)
	copy(dst[:], page)
	return err
}

func TestRestoreErrorPaths(t *testing.T) {
	k := kernel.New(kernel.Config{})
	// Empty directory: every required image missing.
	if _, err := criu.Restore(k, image.NewImageDir(), criu.MapProvider{}); err == nil {
		t.Error("restore of empty directory succeeded")
	}
	// Inventory present but files image missing.
	dir := image.NewImageDir()
	dir.Put("inventory.img", imgproto.Marshal(&image.InventoryImage{Arch: isa.SX86, TIDs: []int{1}}))
	if _, err := criu.Restore(k, dir, criu.MapProvider{}); err == nil {
		t.Error("restore without files.img succeeded")
	}
	// Files image referencing an unregistered binary.
	dir.Put("files.img", imgproto.Marshal(&image.FilesImage{ExePath: "/bin/ghost.sx86"}))
	if _, err := criu.Restore(k, dir, criu.MapProvider{}); err == nil {
		t.Error("restore with unresolvable executable succeeded")
	}
}

func TestDumpRequiresQuiescence(t *testing.T) {
	pair, err := compiler.Compile(`func main() { printi(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	p, err := k.StartProcess(pair.X86.LoadSpec("/bin/q.sx86"))
	if err != nil {
		t.Fatal(err)
	}
	// Not stopped: dump must refuse.
	if _, err := criu.Dump(p, criu.DumpOpts{}); err == nil {
		t.Error("dump of running process succeeded")
	}
	// Stopped but thread not at an equivalence point: dump must refuse.
	kernel.Attach(p).Stop()
	if _, err := criu.Dump(p, criu.DumpOpts{}); err == nil {
		t.Error("dump of non-quiescent process succeeded")
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
