package criu_test

import (
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestPagePathAllocs pins the allocations of the page path's walks on a
// paused class-A rediska server holding 12000 keys, the host benchmark's
// kv_vanilla image (docs/perf.md, "Pages in address order"): each is a
// fixed number, whatever the page count, so a map or a sort that slips
// back in shows here.
func TestPagePathAllocs(t *testing.T) {
	w, err := workloads.Get("rediska")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassA)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: 4, Quantum: 97})
	p, err := k.StartProcess(pair.X86.LoadSpec(compiler.ExePath(w.Name, pair.X86.Arch)))
	if err != nil {
		t.Fatal(err)
	}
	p.PushInput(workloads.RediskaLoad(12000))
	for st, err := k.Step(p); st.Blocked != 1 || p.PendingInput() != 0; st, err = k.Step(p) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := monitor.New(k, p, pair.Meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	v := image.Open(dir)
	var idxs []uint64
	v.Pagemap.EachPage(func(addr uint64, class image.PageClass) {
		if class == image.PageData {
			idxs = append(idxs, addr/mem.PageSize)
		}
	})
	if len(idxs) < 800 {
		t.Fatalf("the image holds %d data pages, want the benchmark's 850 or so", len(idxs))
	}

	t.Run("MappedPages", func(t *testing.T) {
		walk := func(mem.VMA, uint64, []byte) bool { return false }
		if n := testing.AllocsPerRun(10, func() { p.AS.MappedPages(walk) }); n != 0 {
			t.Errorf("MappedPages allocates %v times, want 0", n)
		}
	})
	t.Run("InstallPages", func(t *testing.T) {
		// Into a fresh space each run, as restore installs: the space and
		// its areas are counted apart.
		mapped := func() *mem.AddressSpace {
			as := mem.NewAddressSpace()
			for _, vma := range v.MM.VMAs {
				if err := as.Map(mem.VMA{Start: vma.Start, End: vma.End, Kind: mem.VMAKind(vma.Kind)}); err != nil {
					t.Fatal(err)
				}
			}
			return as
		}
		areas := testing.AllocsPerRun(10, func() { mapped() })
		if n := testing.AllocsPerRun(10, func() { mapped().InstallPages(idxs, v.Pages.Page) }) - areas; n != 1 {
			t.Errorf("InstallPages of %d pages allocates %v times, want 1: the Pages", len(idxs), n)
		}
	})
	t.Run("Store", func(t *testing.T) {
		ps, err := v.PageSet()
		if err != nil {
			t.Fatal(err)
		}
		out := image.NewImageDir()
		ps.Store(out) // the directory's files exist from here on
		stored := image.Open(out)
		var recs []image.PageRecord
		stored.Pagemap.EachPage(func(addr uint64, class image.PageClass) {
			recs = append(recs, image.PageRecord{Addr: addr, Class: class, Data: ps.Data(addr)})
		})
		encode := testing.AllocsPerRun(10, func() { image.EncodePages(out, recs) })
		if n := testing.AllocsPerRun(10, func() { ps.Store(out) }); n != encode+1 {
			t.Errorf("Store allocates %v times, EncodePages of its records %v: want one more, the records", n, encode)
		}
	})
}
