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

// dirtyPages lists the pages among the n from page first that Dirty
// reports.
func dirtyPages(as *mem.AddressSpace, first, n uint64) (out []uint64) {
	for idx := first; idx < first+n; idx++ {
		if as.Dirty(idx) {
			out = append(out, idx)
		}
	}
	return out
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
	if got := dirtyPages(as, 0x10, 16); len(got) != 0 {
		t.Fatalf("untracked store marked %v", got)
	}
	as.StartDirtyTracking()
	// A word store, a cross-page byte store, and an InstallPage all mark.
	if err := as.WriteU64(0x11008, 7); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(0x12ffc, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	as.InstallPage(0x14000/mem.PageSize, []byte{1})
	want := []uint64{0x11000 / mem.PageSize, 0x12000 / mem.PageSize, 0x13000 / mem.PageSize, 0x14000 / mem.PageSize}
	if got := dirtyPages(as, 0x10, 16); !reflect.DeepEqual(got, want) {
		t.Errorf("dirty pages = %v, want %v", got, want)
	}
	// Restarting tracking resets the set.
	as.StartDirtyTracking()
	if got := dirtyPages(as, 0x10, 16); len(got) != 0 {
		t.Errorf("dirty set survives a restart: %v", got)
	}
	// Reads never dirty.
	if _, err := as.ReadU64(0x11008); err != nil {
		t.Fatal(err)
	}
	if got := dirtyPages(as, 0x10, 16); len(got) != 0 {
		t.Errorf("read marked pages dirty: %v", got)
	}
	as.StopDirtyTracking()
	if err := as.WriteU64(0x10000, 2); err != nil {
		t.Fatal(err)
	}
	if got := dirtyPages(as, 0x10, 16); len(got) != 0 {
		t.Errorf("stores tracked after stop: %v", got)
	}
}
