package kernel

import (
	"bytes"
	"testing"

	"github.com/dapper-sim/dapper/internal/mem"
)

// TestFrameCacheCopyOnWrite pins the clone-sharing contract: N address
// spaces adopting one buffer as their frames (mem.InstallPages, as N
// restores of one image directory do) share the same resident pages,
// reads see identical bytes, and the first write in one clone privatizes
// only that clone's page — the buffer and every other clone are
// untouched.
func TestFrameCacheCopyOnWrite(t *testing.T) {
	const base = uint64(0x1000_0000)
	payload := make([]byte, 2*mem.PageSize)
	for i := range payload {
		payload[i] = byte(0x10 + i/mem.PageSize)
	}
	want := bytes.Clone(payload)

	spaces := make([]*mem.AddressSpace, 3)
	for i := range spaces {
		as := mem.NewAddressSpace()
		if err := as.Map(mem.VMA{Start: base, End: base + 2*mem.PageSize, Kind: mem.VMAData, Prot: mem.ProtRead | mem.ProtWrite}); err != nil {
			t.Fatal(err)
		}
		idxs := []uint64{base / mem.PageSize, base/mem.PageSize + 1}
		as.InstallPages(idxs, func(pg int) []byte { return payload[pg*mem.PageSize:] })
		spaces[i] = as
	}
	for i, as := range spaces {
		if got := as.SharedResidentPages(); got != 2 {
			t.Fatalf("clone %d: %d shared pages, want 2", i, got)
		}
	}

	// First write in clone 0 breaks exactly one share, there.
	if err := spaces[0].WriteU64(base, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if got := spaces[0].SharedResidentPages(); got != 1 {
		t.Fatalf("clone 0 after write: %d shared pages, want 1", got)
	}
	if got := spaces[0].CowBreaks(); got != 1 {
		t.Fatalf("clone 0 cow breaks = %d, want 1", got)
	}
	for i, as := range spaces[1:] {
		if got := as.SharedResidentPages(); got != 2 {
			t.Fatalf("clone %d: write in clone 0 broke its share (%d)", i+1, got)
		}
		v, err := as.ReadU64(base)
		if err != nil {
			t.Fatal(err)
		}
		if v == 0xDEAD {
			t.Fatalf("clone %d sees clone 0's write through the shared frame", i+1)
		}
	}
	// The adopted buffer itself is pristine.
	if !bytes.Equal(payload, want) {
		t.Fatal("adopted buffer mutated by a clone write")
	}
}
