// Package dapper's root benchmarks regenerate the measurements behind
// every figure of the paper's evaluation (one benchmark family per
// table/figure). Custom metrics carry the figure's quantities: modeled
// phase times (the calibrated virtual-time model), entropy bits, gadget
// reductions, and energy improvements. Run with:
//
//	go test -bench=. -benchmem
package dapper

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/energy"
	"github.com/dapper-sim/dapper/internal/experiments"
	"github.com/dapper-sim/dapper/internal/gadget"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/updatecheck"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// benchClass keeps benchmark iterations fast while exercising every code
// path; the committed EXPERIMENTS.md uses the same harness via
// cmd/dapper-bench.
const benchClass = workloads.ClassS

// BenchmarkFig5_CrossISAMigration measures one full cross-ISA migration
// (pause + dump + rewrite + transfer + restore) per iteration for each
// Fig. 5 benchmark; the modeled phase times are attached as metrics.
func BenchmarkFig5_CrossISAMigration(b *testing.B) {
	for _, name := range []string{"cg", "mg", "ep", "ft", "is", "linpack", "dhrystone", "kmeans"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			var last *cluster.Breakdown
			for i := 0; i < b.N; i++ {
				bd, err := experiments.MigrateOnce(w, benchClass, 0.5, false)
				if err != nil {
					b.Fatal(err)
				}
				last = bd
			}
			b.ReportMetric(last.Checkpoint.Seconds()*1000, "ckpt-ms")
			b.ReportMetric(last.Recode.Seconds()*1000, "recode-ms")
			b.ReportMetric(last.Copy.Seconds()*1000, "scp-ms")
			b.ReportMetric(last.Restore.Seconds()*1000, "restore-ms")
			b.ReportMetric(float64(last.ImageBytes), "image-B")
		})
	}
}

// BenchmarkFig6_PARSECMigration measures the end-to-end migrated run of
// each multithreaded PARSEC workload.
func BenchmarkFig6_PARSECMigration(b *testing.B) {
	for _, name := range []string{"blackscholes", "swaptions", "streamcluster"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			pair, err := workloads.CompilePair(w, benchClass)
			if err != nil {
				b.Fatal(err)
			}
			// Measure the total so the checkpoint lands mid-run.
			refNode := cluster.NewNode(cluster.XeonSpec)
			refNode.Install(name, pair)
			ref, err := refNode.Start(name)
			if err != nil {
				b.Fatal(err)
			}
			if err := refNode.K.Run(ref); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xeon := cluster.NewNode(cluster.XeonSpec)
				pi := cluster.NewNode(cluster.PiSpec)
				xeon.Install(name, pair)
				pi.Install(name, pair)
				p, err := xeon.Start(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := xeon.K.RunBudget(p, ref.VCycles/2); err != nil {
					b.Fatal(err)
				}
				res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{})
				if err != nil {
					b.Fatal(err)
				}
				if err := pi.K.Run(res.Proc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7_LazyVsVanilla compares the two restoration modes on the
// heap-heavy rediska store.
func BenchmarkFig7_LazyVsVanilla(b *testing.B) {
	for _, mode := range []struct {
		name string
		lazy bool
	}{{"vanilla", false}, {"lazy", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			w, err := workloads.Get("cg")
			if err != nil {
				b.Fatal(err)
			}
			var last *cluster.Breakdown
			for i := 0; i < b.N; i++ {
				bd, err := experiments.MigrateOnce(w, benchClass, 0.5, mode.lazy)
				if err != nil {
					b.Fatal(err)
				}
				last = bd
			}
			b.ReportMetric(float64(last.ImageBytes), "image-B")
			b.ReportMetric(last.Restore.Seconds()*1000, "restore-ms")
			b.ReportMetric(float64(last.LazyFetches), "postcopy-pages")
		})
	}
}

// BenchmarkFig8_EnergySim runs the heterogeneous-cluster scheduling
// simulation and reports the improvement percentages.
func BenchmarkFig8_EnergySim(b *testing.B) {
	job := energy.JobClass{Name: "cg.B", Cycles: 130_000_000_000}
	var imp energy.Improvement
	for i := 0; i < b.N; i++ {
		var err error
		imp, err = energy.Compare(job, 3, 1.2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(imp.EfficiencyPct, "eff-gain-%")
	b.ReportMetric(imp.ThroughputPct, "tput-gain-%")
}

// BenchmarkFig9_StackShuffle measures the shuffler (disassembly, SBI
// re-encode, stack-map update) per architecture.
func BenchmarkFig9_StackShuffle(b *testing.B) {
	w, err := workloads.Get("rediska")
	if err != nil {
		b.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, benchClass)
	if err != nil {
		b.Fatal(err)
	}
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		arch := arch
		b.Run(arch.String(), func(b *testing.B) {
			bin := pair.ByArch(arch)
			var patched int
			for i := 0; i < b.N; i++ {
				_, report, err := core.ShuffleBinary(bin, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				patched = report.Patched
			}
			b.SetBytes(int64(len(bin.Text)))
			b.ReportMetric(float64(patched), "patched-B")
		})
	}
}

// BenchmarkFig10_Entropy reports the entropy bits per architecture.
func BenchmarkFig10_Entropy(b *testing.B) {
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		arch := arch
		b.Run(arch.String(), func(b *testing.B) {
			var sum float64
			var n int
			for i := 0; i < b.N; i++ {
				sum, n = 0, 0
				for _, name := range []string{"cg", "linpack", "kmeans", "rediska", "nginz"} {
					w, err := workloads.Get(name)
					if err != nil {
						b.Fatal(err)
					}
					pair, err := workloads.CompilePair(w, benchClass)
					if err != nil {
						b.Fatal(err)
					}
					_, report, err := core.ShuffleBinary(pair.ByArch(arch), 11)
					if err != nil {
						b.Fatal(err)
					}
					sum += report.AvgBitsApp
					n++
				}
			}
			b.ReportMetric(sum/float64(n), "avg-bits")
		})
	}
}

// BenchmarkFig11_GadgetScan measures the gadget scanner and reports the
// reduction versus the Popcorn-style baseline.
func BenchmarkFig11_GadgetScan(b *testing.B) {
	w, err := workloads.Get("nginz")
	if err != nil {
		b.Fatal(err)
	}
	dapperPair, err := workloads.CompilePair(w, benchClass)
	if err != nil {
		b.Fatal(err)
	}
	popcornPair, err := gadget.PopcornPair(w.Source(benchClass))
	if err != nil {
		b.Fatal(err)
	}
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		arch := arch
		b.Run(arch.String(), func(b *testing.B) {
			var cmp gadget.Comparison
			for i := 0; i < b.N; i++ {
				cmp = gadget.CompareBinaries(dapperPair.ByArch(arch), popcornPair.ByArch(arch))
			}
			b.SetBytes(int64(len(popcornPair.ByArch(arch).Text)))
			b.ReportMetric(cmp.ReductionPct, "reduction-%")
		})
	}
}

// BenchmarkPipeline_Compile measures the full dual-ISA compilation of a
// mid-size workload (the toolchain's own cost).
func BenchmarkPipeline_Compile(b *testing.B) {
	w, err := workloads.Get("linpack")
	if err != nil {
		b.Fatal(err)
	}
	src := w.Source(benchClass)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_PauseDumpRestore isolates the checkpoint/restore path
// without the cross-ISA rewrite (the CRIU substrate's cost).
func BenchmarkPipeline_PauseDumpRestore(b *testing.B) {
	w, err := workloads.Get("cg")
	if err != nil {
		b.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, benchClass)
	if err != nil {
		b.Fatal(err)
	}
	provider := criu.MapProvider{"/bin/cg.sx86": pair.X86, "/bin/cg.sarm": pair.ARM}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := kernel.New(kernel.Config{})
		p, err := k.StartProcess(pair.X86.LoadSpec("/bin/cg.sx86"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.RunBudget(p, 100_000); err != nil {
			b.Fatal(err)
		}
		mon := monitor.New(k, p, pair.Meta)
		if err := mon.Pause(1 << 20); err != nil {
			b.Fatal(err)
		}
		dir, err := criu.Dump(p, criu.DumpOpts{})
		if err != nil {
			b.Fatal(err)
		}
		k2 := kernel.New(kernel.Config{})
		if _, err := criu.Restore(k2, dir, provider); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter_Throughput measures raw guest instruction
// throughput per architecture (the simulator substrate itself).
func BenchmarkInterpreter_Throughput(b *testing.B) {
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		arch := arch
		b.Run(arch.String(), func(b *testing.B) {
			w, err := workloads.Get("dhrystone")
			if err != nil {
				b.Fatal(err)
			}
			pair, err := workloads.CompilePair(w, benchClass)
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				k := kernel.New(kernel.Config{})
				p, err := k.StartProcess(pair.ByArch(arch).LoadSpec("/bin/d"))
				if err != nil {
					b.Fatal(err)
				}
				if err := k.Run(p); err != nil {
					b.Fatal(err)
				}
				cycles = p.VCycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles/op")
		})
	}
}

// pausedBench compiles the named workload, loads rediska-style input if
// requested, runs to mid-execution, and pauses at an equivalence point,
// returning the still-paused process and its nodes.
func pausedBench(b *testing.B, name string, class workloads.Class, rediskaKeys uint64) (*cluster.Node, *kernel.Process, *compiler.Pair) {
	b.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, class)
	if err != nil {
		b.Fatal(err)
	}
	xeon := cluster.NewNode(cluster.XeonSpec)
	xeon.Install(name, pair)
	p, err := xeon.Start(name)
	if err != nil {
		b.Fatal(err)
	}
	if rediskaKeys > 0 {
		p.PushInput(workloads.RediskaLoad(rediskaKeys))
		serveInput(b, xeon.K, p)
	} else {
		// Measure a reference run so the pause lands mid-execution.
		refNode := cluster.NewNode(cluster.XeonSpec)
		refNode.Install(name, pair)
		ref, err := refNode.Start(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := refNode.K.Run(ref); err != nil {
			b.Fatal(err)
		}
		if _, err := xeon.K.RunBudget(p, ref.VCycles/2); err != nil {
			b.Fatal(err)
		}
	}
	mon := monitor.New(xeon.K, p, pair.Meta)
	if err := mon.Pause(1 << 20); err != nil {
		b.Fatal(err)
	}
	return xeon, p, pair
}

// serveInput runs a rediska server until it has consumed its pending input
// and blocks for more, and discards its replies.
func serveInput(b *testing.B, k *kernel.Kernel, p *kernel.Process) {
	b.Helper()
	for i := 0; i < 5_000_000; i++ {
		st, err := k.Step(p)
		if err != nil {
			b.Fatal(err)
		}
		if st.Blocked == 1 && p.PendingInput() == 0 {
			p.TakeOutput()
			return
		}
	}
	b.Fatal("rediska did not drain its input")
}

// BenchmarkDump is a profiling handle on the dump's page walk and encode
// over a heap-heavy rediska server.
func BenchmarkDump(b *testing.B) {
	_, p, _ := pausedBench(b, "rediska", benchClass, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := criu.Dump(p, criu.DumpOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldLink is a profiling handle on image.FoldLink, the chain rule
// each pre-copy round applies to the link it receives: one iteration folds
// a two-link XOR-delta chain of a rediska server — its full dump, then an
// incremental dump after 64 overwrites — from nothing, as AdvanceBase does.
func BenchmarkFoldLink(b *testing.B) {
	xeon, p, pair := pausedBench(b, "rediska", benchClass, 2000)
	root, err := criu.Dump(p, criu.DumpOpts{TrackMem: true})
	if err != nil {
		b.Fatal(err)
	}
	base, err := criu.AdvanceBase(nil, root)
	if err != nil {
		b.Fatal(err)
	}
	mon := monitor.New(xeon.K, p, pair.Meta)
	if err := mon.ResumeLocal(); err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 64; k++ {
		p.PushInput(workloads.RediskaSet(1000000+7*k, k))
	}
	serveInput(b, xeon.K, p)
	if err := mon.Pause(1 << 20); err != nil {
		b.Fatal(err)
	}
	delta, err := criu.Dump(p, criu.DumpOpts{Parent: root, DeltaBase: base})
	if err != nil {
		b.Fatal(err)
	}
	links := []*image.View{image.Open(root), image.Open(delta)}
	refuse := func(addr uint64, marked image.PageClass) {
		b.Fatalf("page 0x%x (class %d) did not resolve", addr, marked)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var state *image.PageSet
		for _, v := range links {
			if state, err = image.FoldLink(state, v.Pagemap, v.Pages, refuse); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPageSetStore is a profiling handle on the rewriter's page-set
// round trip: load a rediska dump's page set, write one word into each of
// 16 data pages, and store the set into a fresh directory.
func BenchmarkPageSetStore(b *testing.B) {
	_, p, _ := pausedBench(b, "rediska", benchClass, 2000)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := criu.LoadPageSet(dir)
		if err != nil {
			b.Fatal(err)
		}
		for w := uint64(0); w < 16; w++ {
			if err := ps.WriteU64(isa.DataBase+w*mem.PageSize+8, w); err != nil {
				b.Fatal(err)
			}
		}
		ps.Store(image.NewImageDir())
	}
}

// BenchmarkInstallPages is a profiling handle on restore's install: one
// criu.Restore per iteration of the kv_vanilla workload's class-A rediska
// dump (about 850 data pages), whose address space adopts every page of
// the directory's pages.img into its page table.
func BenchmarkInstallPages(b *testing.B) {
	xeon, p, _ := pausedBench(b, "rediska", workloads.ClassA, 12000)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone, err := criu.Restore(xeon.K, dir, xeon.Binaries)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		xeon.K.Reap(clone)
		b.StartTimer()
	}
}

// BenchmarkSendImages is a profiling handle on kv_precopy's round 0: one
// CodecFlate send of the workload's class-A rediska dump (12 000 keys,
// about 3.5 MB) over loopback TCP to an ImageReceiver, and the directory
// taken off it. B/op counts both ends of the socket.
func BenchmarkSendImages(b *testing.B) {
	_, p, _ := pausedBench(b, "rediska", workloads.ClassA, 12000)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		b.Fatal(err)
	}
	recv, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	send := func() {
		if _, _, err := cluster.SendImagesOpts(recv.Addr(), dir, cluster.SendOpts{Codec: criu.CodecFlate}); err != nil {
			b.Fatal(err)
		}
		if _, err := recv.TakeWait(10 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	send() // warm the codec pools on both ends
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// BenchmarkLazyFault is a profiling handle on the post-copy fault path:
// the kv_lazy workload's paused class-A rediska server (12 000 keys)
// behind a real PageServer on loopback, and a destination address space
// with the same areas mapped and the page client installed as its fault
// handler. One iteration is one fault — a word read from a missing page,
// which the client fetches into the frame the space installs — so ns/op,
// B/op and allocs/op are per fault, both ends of the socket together.
// Once every page has been faulted, a fresh destination is mapped outside
// the timer. No page is marked lazy, so every fault is one page in one
// request (BenchmarkLazyFaultRun times runs). It uses only APIs older than
// PageSource.ReadPage, so it runs unchanged in a clone of an older parent.
func BenchmarkLazyFault(b *testing.B) {
	_, p, _ := pausedBench(b, "rediska", workloads.ClassA, 12000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := criu.ServePagesOn(ln, criu.NewProcessPageSource(p))
	defer srv.Close()
	client, err := criu.DialPageServerOpts(srv.Addr(), criu.PageClientOpts{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	var pages []uint64
	p.AS.MappedPages(func(_ mem.VMA, idx uint64, _ []byte) bool { pages = append(pages, idx); return false })
	dst := &kernel.Process{}
	fresh := func() {
		dst.AS = mem.NewAddressSpace()
		for _, v := range p.AS.VMAs() {
			if err := dst.AS.Map(v); err != nil {
				b.Fatal(err)
			}
		}
		criu.InstallLazyHandler(dst, client)
	}
	fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pages)
		if k == 0 && i > 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		if _, err := dst.AS.ReadU64(pages[k] * mem.PageSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyFaultRun is BenchmarkLazyFault with every populated page
// of the source marked lazy, so each fault's request brings the missing
// pages of its 64 KiB run along, and the next fault is on the first page
// still missing. ns/op, B/op and allocs/op are per fault; pages/fault,
// ns/page and B/page restate them per page installed. A guest that
// touches one page per run pays this benchmark's ns/op per fault where
// BenchmarkLazyFault's would have done: the difference is the worst case
// of the trade a run makes.
func BenchmarkLazyFaultRun(b *testing.B) {
	_, p, _ := pausedBench(b, "rediska", workloads.ClassA, 12000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := criu.ServePagesOn(ln, criu.NewProcessPageSource(p))
	defer srv.Close()
	client, err := criu.DialPageServerOpts(srv.Addr(), criu.PageClientOpts{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	var pages []uint64
	p.AS.MappedPages(func(_ mem.VMA, idx uint64, _ []byte) bool { pages = append(pages, idx); return false })
	var lazy []mem.PageRange
	for _, idx := range pages {
		if n := len(lazy); n > 0 && lazy[n-1].End == idx {
			lazy[n-1].End++
		} else {
			lazy = append(lazy, mem.PageRange{Start: idx, End: idx + 1})
		}
	}
	dst := &kernel.Process{}
	installed := uint64(0)
	fresh := func() {
		if dst.AS != nil {
			installed += dst.AS.ResidentBytes() / mem.PageSize
		}
		dst.AS = mem.NewAddressSpace()
		for _, v := range p.AS.VMAs() {
			if err := dst.AS.Map(v); err != nil {
				b.Fatal(err)
			}
		}
		dst.AS.SetLazyPages(lazy)
		criu.InstallLazyHandler(dst, client)
	}
	fresh()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	k := 0
	for i := 0; i < b.N; i++ {
		for ; k < len(pages); k++ {
			if _, resident := dst.AS.PageData(pages[k]); !resident {
				break
			}
		}
		if k == len(pages) {
			b.StopTimer()
			fresh()
			k = 0
			b.StartTimer()
		}
		if _, err := dst.AS.ReadU64(pages[k] * mem.PageSize); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	installed += dst.AS.ResidentBytes() / mem.PageSize
	b.ReportMetric(float64(installed)/float64(b.N), "pages/fault")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(installed), "ns/page")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(installed), "B/page")
}

// BenchmarkRewrite is a profiling handle on the cross-ISA rewrite —
// per-thread core translation plus stack rebuild — of a multithreaded
// PARSEC workload.
func BenchmarkRewrite(b *testing.B) {
	xeon, p, _ := pausedBench(b, "streamcluster", benchClass, 0)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		b.Fatal(err)
	}
	blob := dir.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d2, err := criu.UnmarshalImageDir(blob)
		if err != nil {
			b.Fatal(err)
		}
		ctx := &core.Context{Binaries: xeon.Binaries}
		if err := (core.CrossISAPolicy{Target: isa.SARM}).Rewrite(d2, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteLazy is a profiling handle on what a post-copy
// migration does to its image between dump and install: the cross-ISA
// rewrite of the kv_lazy workload's class-B rediska dump (24,000 keys,
// almost every page lazy), then restore's pre-flight check of the
// rewritten image against the target binary, which loads the page set a
// second time. Each iteration rewrites a fresh share of the dump.
func BenchmarkRewriteLazy(b *testing.B) {
	xeon, p, pair := pausedBench(b, "rediska", workloads.ClassB, 24000)
	dir, err := criu.Dump(p, criu.DumpOpts{Lazy: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d2 := dir.Share()
		ctx := &core.Context{Binaries: xeon.Binaries}
		if err := (core.CrossISAPolicy{Target: isa.SARM}).Rewrite(d2, ctx); err != nil {
			b.Fatal(err)
		}
		if err := updatecheck.CheckImage(image.Open(d2), pair.ARM).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImgcheckVerify is a profiling handle on the static image
// verifier over a heap-heavy image set.
func BenchmarkImgcheckVerify(b *testing.B) {
	_, p, _ := pausedBench(b, "rediska", benchClass, 2000)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := imgcheck.Verify(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageCodec is a profiling handle on the metadata image codec
// over the kv_vanilla workload's class-A rediska dump: decode opens a view
// of the directory, which decodes every file but pages.img once, and
// encode commits a view's typed forms back, which encodes each of them
// once.
func BenchmarkImageCodec(b *testing.B) {
	_, p, _ := pausedBench(b, "rediska", workloads.ClassA, 12000)
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			image.Open(dir)
		}
	})
	b.Run("encode", func(b *testing.B) {
		v := image.Open(dir)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Commit()
		}
	})
}

// BenchmarkMigrateVanilla is the kv_vanilla workload of the host-time
// benchmark (bench/) as a Go benchmark, so the image path can be
// profiled: a 12000-key class-A rediska server (3.5 MB image) cloned from a
// golden checkpoint outside the timer, then one stop-and-copy
// SX86→SARM Migrate per iteration. docs/perf.md "Copy budget" reads its
// CPU profile.
func BenchmarkMigrateVanilla(b *testing.B) {
	xeon, p, pair := pausedBench(b, "rediska", workloads.ClassA, 12000)
	golden, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		b.Fatal(err)
	}
	pi := cluster.NewNode(cluster.PiSpec)
	pi.Install("rediska", pair)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone, err := criu.Restore(xeon.K, golden, xeon.Binaries)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := cluster.Migrate(xeon, pi, clone, pair.Meta, cluster.MigrateOpts{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.SetBytes(int64(res.Breakdown.ImageBytes))
		pi.K.Reap(res.Proc)
		b.StartTimer()
	}
}

// BenchmarkMigratePreCopyHost is the kv_precopy workload of the host-time
// benchmark as a Go benchmark with a registry attached: a 12000-key
// class-A rediska server migrated by pre-copy over loopback TCP with
// XOR-delta rounds and flate, 32 overwrites arriving between rounds. It
// reads the migrate.host span tree of the real Migrate and reports, per
// migration, the host time of the whole call, of its downtime window (the
// final pause through restore), and of the image shipping — flate, the
// socket and the receiver — inside that window and before it.
// docs/perf.md "Host stages" quotes it; nothing gates on it.
func BenchmarkMigratePreCopyHost(b *testing.B) {
	xeon, p, pair := pausedBench(b, "rediska", workloads.ClassA, 12000)
	golden, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		b.Fatal(err)
	}
	pi := cluster.NewNode(cluster.PiSpec)
	pi.Install("rediska", pair)
	var total, downtime, shipIn, shipBefore time.Duration
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone, err := criu.Restore(xeon.K, golden, xeon.Binaries)
		if err != nil {
			b.Fatal(err)
		}
		reg := obs.New()
		b.StartTimer()
		res, err := cluster.Migrate(xeon, pi, clone, pair.Meta, cluster.MigrateOpts{
			Obs: reg, Codec: criu.CodecFlate, Delta: true,
			PreCopy: &cluster.PreCopyOpts{TCP: true, RunUntilIdle: true, BetweenRounds: func(p *kernel.Process, round int) {
				for k := uint64(0); k < 32; k++ {
					p.PushInput(workloads.RediskaSet(1000000+7*((uint64(round)*1009+k*37)%12000), k))
				}
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		pi.K.Reap(res.Proc)
		rounds += res.Breakdown.Rounds
		rep := reg.Report()
		host, _ := rep.Span("migrate.host")
		total += host.Dur()
		for _, w := range rep.Children(host.ID) {
			ship, _ := rep.Child(w.ID, "cluster.send_recv")
			switch w.Name {
			case "downtime":
				downtime += w.Dur()
				shipIn += ship.Dur()
			case "round":
				shipBefore += ship.Dur()
			}
		}
		b.StartTimer()
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 / float64(b.N) }
	b.ReportMetric(perOp(total), "host_ms/op")
	b.ReportMetric(perOp(downtime), "host_downtime_ms/op")
	b.ReportMetric(perOp(shipIn), "ship_in_downtime_ms/op")
	b.ReportMetric(perOp(shipBefore), "ship_before_ms/op")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
