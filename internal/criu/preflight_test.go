package criu_test

import (
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
)

// pausedDump produces a real checkpoint of a paused denseWriter run plus
// the provider needed to restore it.
func pausedDump(t *testing.T) (*criu.ImageDir, criu.MapProvider) {
	t.Helper()
	pair, err := compiler.Compile(denseWriter)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: 2, Quantum: 97})
	p, err := k.StartProcess(pair.X86.LoadSpec("/bin/inc.sx86"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunBudget(p, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := monitor.New(k, p, pair.Meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return dir, criu.MapProvider{"/bin/inc.sx86": pair.X86}
}

// TestRestorePreFlightRejectsShuffledPagemap: a checkpoint whose pagemap
// entries were reordered (as a buggy transformation or transport would
// leave them) must be rejected by Restore's static pre-flight with the
// invariant named, instead of silently restoring pages at wrong offsets.
func TestRestorePreFlightRejectsShuffledPagemap(t *testing.T) {
	dir, prov := pausedDump(t)
	raw, ok := dir.Get("pagemap.img")
	if !ok {
		t.Fatal("dump has no pagemap.img")
	}
	pm := &criu.PagemapImage{}
	if err := imgproto.Unmarshal(raw, pm); err != nil {
		t.Fatal(err)
	}
	if len(pm.Entries) < 2 {
		t.Fatalf("need >=2 pagemap entries to shuffle, got %d", len(pm.Entries))
	}
	for i, j := 0, len(pm.Entries)-1; i < j; i, j = i+1, j-1 {
		pm.Entries[i], pm.Entries[j] = pm.Entries[j], pm.Entries[i]
	}
	dir.Put("pagemap.img", imgproto.Marshal(pm))

	_, err := criu.Restore(kernel.New(kernel.Config{}), dir, prov)
	if err == nil {
		t.Fatal("Restore accepted a shuffled pagemap")
	}
	for _, want := range []string{"restore pre-flight", "pagemap-order"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRestorePreFlightRejectsHugeVMA: mem keeps a page-table slot for
// every page a VMA spans, so a VMA past the address-space layout — here
// 2^52 pages — must be refused before restore maps it, not allocated.
func TestRestorePreFlightRejectsHugeVMA(t *testing.T) {
	dir, prov := pausedDump(t)
	raw, ok := dir.Get("mm.img")
	if !ok {
		t.Fatal("dump has no mm.img")
	}
	mm := &criu.MMImage{}
	if err := imgproto.Unmarshal(raw, mm); err != nil {
		t.Fatal(err)
	}
	last := mm.VMAs[len(mm.VMAs)-1]
	mm.VMAs = append(mm.VMAs, criu.VMAEntry{Start: last.End, End: 0xFFFF_FFFF_FFFF_F000, Kind: uint8(mem.VMAHeap), Prot: last.Prot})
	dir.Put("mm.img", imgproto.Marshal(mm))

	_, err := criu.Restore(kernel.New(kernel.Config{}), dir, prov)
	if err == nil {
		t.Fatal("Restore accepted a VMA past the stack top")
	}
	for _, want := range []string{"restore pre-flight", "vma-order"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRestorePreFlightRejectsUnmappedPage: a data page the pagemap names
// outside every VMA is one the guest could never reach and the address
// space has no slot for, so restore refuses the image as pagemap-mapped
// instead of installing it.
func TestRestorePreFlightRejectsUnmappedPage(t *testing.T) {
	dir, prov := pausedDump(t)
	v := image.Open(dir)
	if first := v.MM.VMAs[0].Start; first <= mem.PageSize || v.Pagemap.Entries[0].Vaddr < first {
		t.Fatalf("need an unmapped page below the first VMA at 0x%x", first)
	}
	pm := *v.Pagemap
	pm.Entries = append([]criu.PagemapEntry{{Vaddr: mem.PageSize, NrPages: 1}}, pm.Entries...)
	dir.Put("pagemap.img", imgproto.Marshal(&pm))
	raw, _ := dir.Get("pages.img")
	dir.Put("pages.img", append(make([]byte, mem.PageSize), raw...))

	_, err := criu.Restore(kernel.New(kernel.Config{}), dir, prov)
	if err == nil {
		t.Fatal("Restore accepted a data page outside every VMA")
	}
	for _, want := range []string{"restore pre-flight", "pagemap-mapped"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRestorePreFlightRejectsTruncatedPages: pages.img shorter than the
// pagemap promises is caught up front as pages-bytes.
func TestRestorePreFlightRejectsTruncatedPages(t *testing.T) {
	dir, prov := pausedDump(t)
	raw, ok := dir.Get("pages.img")
	if !ok || len(raw) == 0 {
		t.Fatal("dump has no page payload")
	}
	dir.Put("pages.img", raw[:len(raw)-1])

	_, err := criu.Restore(kernel.New(kernel.Config{}), dir, prov)
	if err == nil {
		t.Fatal("Restore accepted truncated pages.img")
	}
	if !strings.Contains(err.Error(), "pages-bytes") {
		t.Errorf("error %q does not mention pages-bytes", err)
	}
}
