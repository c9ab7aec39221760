package criu

import (
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/stackmap"
	"github.com/dapper-sim/dapper/internal/updatecheck"
)

// BinaryProvider resolves executable paths (from the files image) to
// loaded binaries — the restore-side equivalent of the filesystem holding
// the two per-ISA executables.
type BinaryProvider interface {
	Open(path string) (*compiler.Binary, error)
}

// MapProvider is a BinaryProvider backed by a map.
type MapProvider map[string]*compiler.Binary

// Open implements BinaryProvider.
func (m MapProvider) Open(path string) (*compiler.Binary, error) {
	b, ok := m[path]
	if !ok {
		return nil, fmt.Errorf("criu: no binary registered at %q", path)
	}
	return b, nil
}

// Register installs (or replaces) a binary at a path. The stack-shuffling
// policy uses this to publish the instrumented binary the restored process
// must execute.
func (m MapProvider) Register(path string, b *compiler.Binary) {
	m[path] = b
}

var _ BinaryProvider = MapProvider(nil)

// RestoreOpts selects optional restore behaviors.
type RestoreOpts struct {
	// Obs, if set, receives restore telemetry: the restore.pages
	// counter, restore.verify_ns / restore.install_ns histograms, and a
	// "restore" span whose verify and install children sum exactly to
	// it. Host wall time by definition — the modeled restore cost lives
	// in cluster's timing model. Nil disables recording.
	Obs *obs.Registry
}

// Restore rebuilds a process from an image directory on kernel k. Lazy
// pages (post-copy) are left unpopulated; install a fault handler on the
// returned process's address space before running it.
//
// Threads parked at a trap PC are nudged to the site's resume PC (the
// checker start) and the DAPPER flag is cleared, so the restored process
// continues transparently.
func Restore(k *kernel.Kernel, dir *ImageDir, provider BinaryProvider) (*kernel.Process, error) {
	return RestoreWith(k, dir, provider, RestoreOpts{})
}

// RestoreWith is Restore with options. One view of the directory serves
// the pre-flights and the restore itself — nothing writes it in between —
// so every check runs on the bytes that install, before the first page
// does; pages.img is adopted where it sits (flat or a page list), never
// copied, so the directory must not be written while the process runs.
func RestoreWith(k *kernel.Kernel, dir *ImageDir, provider BinaryProvider, opts RestoreOpts) (*kernel.Process, error) {
	verifyStart := time.Now()
	v := image.Open(dir)
	bin, err := preflight(v, provider)
	if err != nil {
		return nil, err
	}
	verifyDur := time.Since(verifyStart)

	installStart := time.Now()
	p, installed, err := install(k, v, bin)
	if err != nil {
		return nil, err
	}
	installDur := time.Since(installStart)

	root := opts.Obs.NewSpan("restore")
	root.Child("verify").Finish(verifyDur)
	root.Child("install").Finish(installDur)
	root.Finish(verifyDur + installDur)
	opts.Obs.Counter("restore.pages").Add(uint64(installed))
	opts.Obs.Histogram("restore.verify_ns").Observe(verifyDur)
	opts.Obs.Histogram("restore.install_ns").Observe(installDur)
	return p, nil
}

// preflight is everything that must hold before a page installs, and the
// binary the image restores into. A corrupt or truncated image set
// (shuffled pagemap, missing core, flagged entries carrying bytes, ...)
// fails here with a named invariant, not mid-restore with pages at the
// wrong addresses; the link check permits in_parent entries, install owns
// the flatten refusal. Then the binary the files image names: right
// architecture, stack map aligned across ISAs (the rewriter trusts that,
// and build nudges threads through SiteByTrapPC), and — version skew —
// every thread PC and stack return address of the image resolving in it.
func preflight(v *image.View, provider BinaryProvider) (*compiler.Binary, error) {
	if err := imgcheck.CheckLink(v).Err(); err != nil {
		return nil, fmt.Errorf("criu: restore pre-flight: %w", err)
	}
	path := v.Files.ExePath
	bin, err := provider.Open(path)
	if err != nil {
		return nil, err
	}
	if bin.Arch != v.Inventory.Arch {
		return nil, fmt.Errorf("criu: binary %q is %v but image is %v", path, bin.Arch, v.Inventory.Arch)
	}
	if bin.Meta != nil {
		if err := imgcheck.VerifyMeta(bin.Meta); err != nil {
			return nil, fmt.Errorf("criu: restore pre-flight: binary %q: %w", path, err)
		}
		if err := updatecheck.CheckImage(v, bin).Err(); err != nil {
			return nil, fmt.Errorf("criu: restore pre-flight: binary %q: %w", path, err)
		}
	}
	return bin, nil
}

// install builds the process from a view that passed preflight: the VMAs
// and the executable's text (dumped pages overlay it), the payload pages
// in pagemap order — adopted in place as copy-on-write frames
// (mem.InstallPages), so a restore copies no page until the process writes
// it — then threads with trap-PC nudging, mutexes, the cleared DAPPER
// flag, and adoption by the kernel. Zero pages are materialized only when
// the image is lazy: a post-copy restore installs a fault handler, and a
// zero page must never round-trip to the page server; lazy pages are left
// for that handler, and listed in the address space's LazyPages. It also
// returns the number of pages installed.
func install(k *kernel.Kernel, v *image.View, bin *compiler.Binary) (*kernel.Process, int, error) {
	n := v.Pagemap.Counts()
	if n[image.PageParent] > 0 {
		return nil, 0, fmt.Errorf("criu: image has %d unresolved in_parent pages; flatten the chain (FlattenChain) before restore", n[image.PageParent])
	}
	if n[image.PageDelta] > 0 {
		return nil, 0, fmt.Errorf("criu: image has %d unresolved XOR-delta pages; flatten the chain (FlattenChain) before restore", n[image.PageDelta])
	}
	if want := n[image.PageData] * mem.PageSize; want != v.Pages.Len() {
		return nil, 0, fmt.Errorf("criu: restore: pages.img holds %d bytes, pagemap describes %d", v.Pages.Len(), want)
	}
	as := mem.NewAddressSpace()
	heapMapped := false
	for _, vma := range v.MM.VMAs {
		if err := as.Map(mem.VMA{Start: vma.Start, End: vma.End, Kind: mem.VMAKind(vma.Kind), Prot: vma.Prot, TID: vma.TID}); err != nil {
			return nil, 0, fmt.Errorf("criu: restore vma: %w", err)
		}
		heapMapped = heapMapped || mem.VMAKind(vma.Kind) == mem.VMAHeap
	}
	if err := as.WriteBytes(isa.TextBase, bin.Text); err != nil {
		return nil, 0, fmt.Errorf("criu: restore text: %w", err)
	}

	dataPages := make([]uint64, 0, n[image.PageData]) // payload page i lands on dataPages[i]
	installed := 0
	v.Pagemap.EachPage(func(addr uint64, class image.PageClass) {
		switch {
		case class == image.PageData:
			dataPages = append(dataPages, addr/mem.PageSize)
		case class == image.PageZero && n[image.PageLazy] > 0:
			as.InstallPage(addr/mem.PageSize, nil)
			installed++
		}
	})
	as.InstallPages(dataPages, v.Pages.Page)
	installed += len(dataPages)
	var lazy []mem.PageRange
	for _, en := range v.Pagemap.Entries {
		if start := en.Vaddr / mem.PageSize; en.Lazy {
			lazy = append(lazy, mem.PageRange{Start: start, End: start + uint64(en.NrPages)})
		}
	}
	as.SetLazyPages(lazy)

	inv := v.Inventory
	p := kernel.NewRestoredProcess(inv.Arch, stackmap.CoderFor(inv.Arch), as)
	p.ExePath, p.Entry, p.ThreadExit, p.Brk = v.Files.ExePath, bin.Entry, bin.ThreadExit, v.MM.Brk
	if heapMapped {
		p.MarkHeapMapped()
	}
	for _, tid := range inv.TIDs {
		core, _ := v.Core(tid) // the link check vouched for every inventory tid's core
		t := &kernel.Thread{
			TID: core.TID, Regs: core.Regs, State: kernel.ThreadRunnable,
			StackLow: core.StackLow, StackHigh: core.StackHigh, TLSBlock: core.TLSBlock,
		}
		if site, ok := bin.Meta.SiteByTrapPC(inv.Arch, t.Regs.PC); ok {
			t.Regs.PC = site.PCs[stackmap.ArchIdx(inv.Arch)].ResumePC
		}
		p.AddRestoredThread(t)
	}
	for _, tid := range inv.Exited {
		p.AddRestoredThread(&kernel.Thread{TID: tid, State: kernel.ThreadExited})
	}
	for _, m := range inv.Mutexes {
		p.RestoreMutex(m.ID, m.Holder, m.Recurse)
	}
	// Clear the transformation flag so checkers fall through.
	if err := as.WriteU64(isa.FlagAddr, 0); err != nil {
		return nil, 0, fmt.Errorf("criu: clear flag: %w", err)
	}
	k.AdoptProcess(p)
	return p, installed, nil
}
