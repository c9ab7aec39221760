package mem_test

import (
	"reflect"
	"testing"

	"github.com/dapper-sim/dapper/internal/mem"
)

func dirtySpace(t *testing.T) *mem.AddressSpace {
	t.Helper()
	as := mem.NewAddressSpace()
	if err := as.Map(mem.VMA{Start: 0x10000, End: 0x20000, Kind: mem.VMAData, Prot: mem.ProtRead | mem.ProtWrite}); err != nil {
		t.Fatal(err)
	}
	return as
}

func TestSoftDirtyTracksStores(t *testing.T) {
	as := dirtySpace(t)
	if as.DirtyTracking() {
		t.Fatal("tracking on by default")
	}
	// Stores before tracking starts are invisible.
	if err := as.WriteU64(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	as.StartDirtyTracking()
	if got := as.CollectDirty(); len(got) != 0 {
		t.Fatalf("dirty set not cleared at start: %v", got)
	}
	// A word store, a cross-page byte store, and an InstallPage all mark.
	if err := as.WriteU64(0x11008, 7); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(0x12ffc, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	as.InstallPage(0x14000/mem.PageSize, []byte{1})
	want := []uint64{0x11000 / mem.PageSize, 0x12000 / mem.PageSize, 0x13000 / mem.PageSize, 0x14000 / mem.PageSize}
	if got := as.CollectDirty(); !reflect.DeepEqual(got, want) {
		t.Errorf("CollectDirty = %v, want %v", got, want)
	}
	// CollectDirty is non-destructive; ClearSoftDirty resets.
	if got := as.CollectDirty(); len(got) != 4 {
		t.Errorf("second collect lost entries: %v", got)
	}
	as.ClearSoftDirty()
	if got := as.CollectDirty(); len(got) != 0 {
		t.Errorf("dirty set survives clear: %v", got)
	}
	// Reads never dirty.
	if _, err := as.ReadU64(0x11008); err != nil {
		t.Fatal(err)
	}
	if got := as.CollectDirty(); len(got) != 0 {
		t.Errorf("read marked pages dirty: %v", got)
	}
	as.StopDirtyTracking()
	if err := as.WriteU64(0x10000, 2); err != nil {
		t.Fatal(err)
	}
	if got := as.CollectDirty(); len(got) != 0 {
		t.Errorf("stores tracked after stop: %v", got)
	}
}

// TestDirtyAgreesWithCollectDirty: the per-page query criu.Dump asks is
// the membership test of the collected set, tracking on or off.
func TestDirtyAgreesWithCollectDirty(t *testing.T) {
	as := dirtySpace(t)
	check := func(step string) {
		t.Helper()
		in := map[uint64]bool{}
		for _, idx := range as.CollectDirty() {
			in[idx] = true
		}
		for idx := uint64(0x10000 / mem.PageSize); idx < 0x21000/mem.PageSize; idx++ {
			if as.Dirty(idx) != in[idx] {
				t.Errorf("%s: Dirty(%#x) = %v, CollectDirty has it: %v", step, idx, as.Dirty(idx), in[idx])
			}
		}
	}
	if err := as.WriteU64(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	check("untracked store")
	as.StartDirtyTracking()
	if err := as.WriteU64(0x11008, 7); err != nil {
		t.Fatal(err)
	}
	as.InstallPage(0x20000/mem.PageSize, nil) // outside the VMA
	if err := as.Resize(0x10000, 0x1e000); err != nil {
		t.Fatal(err)
	}
	check("tracked stores and a shrink")
	as.ClearSoftDirty()
	check("cleared")
	as.StopDirtyTracking()
	check("stopped")
}
