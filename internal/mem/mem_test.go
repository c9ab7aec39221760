package mem_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/dapper-sim/dapper/internal/mem"
)

func mapped(t *testing.T) *mem.AddressSpace {
	t.Helper()
	as := mem.NewAddressSpace()
	if err := as.Map(mem.VMA{Start: 0x10000, End: 0x20000, Kind: mem.VMAData, Prot: mem.ProtRead | mem.ProtWrite}); err != nil {
		t.Fatal(err)
	}
	return as
}

func TestMapRejectsBadVMAs(t *testing.T) {
	as := mapped(t)
	cases := []mem.VMA{
		{Start: 0x11000, End: 0x12000}, // overlap inside
		{Start: 0x0f000, End: 0x11000}, // overlap head
		{Start: 0x1f000, End: 0x21000}, // overlap tail
		{Start: 0x30000, End: 0x30000}, // empty
		{Start: 0x30001, End: 0x31000}, // unaligned start
		{Start: 0x30000, End: 0x31001}, // unaligned end
		{Start: 0x40000, End: 0x30000}, // inverted
	}
	for _, v := range cases {
		if err := as.Map(v); err == nil {
			t.Errorf("Map(%+v) unexpectedly succeeded", v)
		}
	}
	// Adjacent is fine.
	if err := as.Map(mem.VMA{Start: 0x20000, End: 0x21000}); err != nil {
		t.Errorf("adjacent map failed: %v", err)
	}
}

func TestResize(t *testing.T) {
	as := mapped(t)
	if err := as.Resize(0x10000, 0x30000); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(0x2ff00, 7); err != nil {
		t.Errorf("write into grown region: %v", err)
	}
	if err := as.Resize(0x10000, 0x18000); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(0x19000, 7); err == nil {
		t.Error("write into shrunk-away region succeeded")
	}
	// A shrink releases what it unmaps: regrown, the area is demand-zero,
	// as a dump taken while it was shrunk would restore it.
	if err := as.WriteU64(0x11008, 0xdead); err != nil {
		t.Fatal(err)
	}
	if err := as.Resize(0x10000, 0x11000); err != nil {
		t.Fatal(err)
	}
	if err := as.Resize(0x10000, 0x18000); err != nil {
		t.Fatal(err)
	}
	if v, err := as.ReadU64(0x11008); err != nil || v != 0 {
		t.Errorf("regrown page reads %#x (err %v), want 0: the shrink kept its frame", v, err)
	}
	if err := as.Resize(0x90000, 0xa0000); err == nil {
		t.Error("resize of unknown VMA succeeded")
	}
	// Growing over a neighbour must fail.
	if err := as.Map(mem.VMA{Start: 0x20000, End: 0x21000}); err != nil {
		t.Fatal(err)
	}
	if err := as.Resize(0x10000, 0x22000); err == nil {
		t.Error("resize over neighbour succeeded")
	}
}

func TestReadWriteRoundTripProperty(t *testing.T) {
	as := mapped(t)
	f := func(off uint16, v uint64) bool {
		addr := 0x10000 + uint64(off)%(0x10000-8)
		if err := as.WriteU64(addr, v); err != nil {
			return false
		}
		got, err := as.ReadU64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	as := mapped(t)
	// Write an 8-byte word straddling a page boundary.
	addr := uint64(0x11000 - 4)
	if err := as.WriteU64(addr, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU64(addr)
	if err != nil || v != 0x1122334455667788 {
		t.Errorf("straddling word = %x (err %v)", v, err)
	}
	// Byte-level copy across several pages.
	blob := bytes.Repeat([]byte{0xA5, 0x5A}, 5000)
	if err := as.WriteBytes(0x10100, blob); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(blob))
	if err := as.ReadBytes(0x10100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, got) {
		t.Error("multi-page round trip mismatch")
	}
}

func TestFaultErrors(t *testing.T) {
	as := mapped(t)
	_, err := as.ReadU64(0x50000)
	var fe *mem.FaultError
	if !errors.As(err, &fe) || fe.Addr != 0x50000 || fe.Write {
		t.Errorf("read fault = %v", err)
	}
	err = as.WriteU64(0x50000, 1)
	if !errors.As(err, &fe) || !fe.Write {
		t.Errorf("write fault = %v", err)
	}
	// A word spanning the end of the VMA faults.
	if _, err := as.ReadU64(0x20000 - 4); err == nil {
		t.Error("word read across VMA end succeeded")
	}
}

func TestReadAvailStopsAtBoundary(t *testing.T) {
	as := mapped(t)
	buf := make([]byte, 16)
	n := as.ReadAvail(0x20000-8, buf)
	if n != 8 {
		t.Errorf("ReadAvail = %d, want 8", n)
	}
	if n := as.ReadAvail(0x50000, buf); n != 0 {
		t.Errorf("ReadAvail unmapped = %d, want 0", n)
	}
}

func TestFaultHandlerPopulatesPages(t *testing.T) {
	as := mapped(t)
	calls := 0
	as.SetFaultHandler(func(pageAddr uint64, frame *[mem.PageSize]byte) error {
		calls++
		frame[0] = byte(pageAddr >> 12)
		return nil
	})
	v, err := as.ReadU64(0x12000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x12 {
		t.Errorf("fetched page content = %x", v)
	}
	// Second access must hit the now-resident page.
	if _, err := as.ReadU64(0x12008); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("handler called %d times, want 1", calls)
	}
	// Handler errors surface as faults.
	as.SetFaultHandler(func(uint64, *[mem.PageSize]byte) error { return fmt.Errorf("boom") })
	if _, err := as.ReadU64(0x13000); err == nil {
		t.Error("handler error did not fault")
	}
}

// TestFillPageFromFaultHandler: a fault handler may install other pages
// with FillPage, each as a fault installs its own — private, resident, the
// frame itself — but only into an empty slot inside a VMA: it never
// replaces a resident page.
func TestFillPageFromFaultHandler(t *testing.T) {
	as := mapped(t)
	if err := as.WriteU64(0x12008, 7); err != nil { // resident before the fault
		t.Fatal(err)
	}
	frames := map[uint64]*[mem.PageSize]byte{}
	as.SetFaultHandler(func(pageAddr uint64, frame *[mem.PageSize]byte) error {
		for _, idx := range []uint64{0x11, 0x12, 0x13, 1 << 40} {
			f := new([mem.PageSize]byte)
			f[8] = byte(idx)
			if as.FillPage(idx, f) {
				frames[idx] = f
			}
		}
		frame[8] = 0xFF
		return nil
	})
	if v, err := as.ReadU64(0x10008); err != nil || v != 0xFF {
		t.Fatalf("faulting page: %x, %v", v, err)
	}
	if len(frames) != 2 || frames[0x11] == nil || frames[0x13] == nil {
		t.Fatalf("FillPage installed %d pages, want 0x11 and 0x13 only", len(frames))
	}
	for idx, want := range map[uint64]uint64{0x11: 0x11, 0x12: 7, 0x13: 0x13} {
		if v, err := as.ReadU64(idx*mem.PageSize + 8); err != nil || v != want {
			t.Errorf("page 0x%x: word 1 = %x (%v), want %x", idx, v, err, want)
		}
	}
	if data, _ := as.PageData(0x11); &data[0] != &frames[0x11][0] || as.SharedResidentPages() != 0 {
		t.Error("a filled page is not its frame, private")
	}
	if got := as.ResidentBytes() / mem.PageSize; got != 4 {
		t.Errorf("%d pages resident, want 4", got)
	}
}

func TestInstallPage(t *testing.T) {
	as := mapped(t)
	data := make([]byte, mem.PageSize)
	data[8] = 9
	as.InstallPage(0x15, data)
	v, err := as.ReadU64(0x15008)
	if err != nil || v != 9 {
		t.Errorf("installed page read = %d (err %v)", v, err)
	}
	if as.ResidentBytes() != mem.PageSize {
		t.Errorf("resident = %d", as.ResidentBytes())
	}
}

func TestFindVMA(t *testing.T) {
	as := mapped(t)
	if err := as.Map(mem.VMA{Start: 0x40000, End: 0x50000, Kind: mem.VMAStack, TID: 3}); err != nil {
		t.Fatal(err)
	}
	v, ok := as.FindVMA(0x4ffff)
	if !ok || v.Kind != mem.VMAStack || v.TID != 3 {
		t.Errorf("FindVMA = %+v, %v", v, ok)
	}
	if _, ok := as.FindVMA(0x50000); ok {
		t.Error("end address is exclusive")
	}
	if _, ok := as.FindVMA(0x39999); ok {
		t.Error("gap address found")
	}
	vmas := as.VMAs()
	if len(vmas) != 2 || vmas[0].Start > vmas[1].Start {
		t.Errorf("VMAs = %+v", vmas)
	}
}

func TestCodePageVersioning(t *testing.T) {
	as := mapped(t)
	pg, err := as.CodePage(0x10)
	if err != nil {
		t.Fatal(err)
	}
	v0 := pg.Version
	if err := as.WriteU64(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	pg2, err := as.CodePage(0x10)
	if err != nil {
		t.Fatal(err)
	}
	if pg2.Version == v0 {
		t.Error("write did not bump the page version")
	}
	if _, err := as.CodePage(0x999); err == nil {
		t.Error("unmapped code page fetch succeeded")
	}
}
