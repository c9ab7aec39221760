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

// RestoreOpts selects optional restore behaviors; the zero value is the
// plain restore every migration uses.
type RestoreOpts struct {
	// Frames, when non-nil, installs every dumped page as a shared
	// copy-on-write frame from this cache instead of a private copy —
	// the clone fan-out path, where N restores of one checkpoint share
	// resident pages until first write.
	Frames *kernel.FrameCache
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

// RestoreWith is Restore with options. The image set is complete, so every
// pre-flight runs before the first page installs, and pages.img is handed
// to the install stage as it sits in the directory — flat, or the page
// list a rewrite left — never copied or joined.
func RestoreWith(k *kernel.Kernel, dir *ImageDir, provider BinaryProvider, opts RestoreOpts) (*kernel.Process, error) {
	verifyStart := time.Now()
	// Pre-flight: a corrupt or truncated image set (shuffled pagemap,
	// missing core, flagged entries carrying bytes, ...) must fail here
	// with a named invariant, not mid-restore with pages installed at the
	// wrong addresses. VerifyLink permits in_parent entries; the plan
	// stage owns the flatten refusal.
	if err := imgcheck.VerifyLink(dir); err != nil {
		return nil, fmt.Errorf("criu: restore pre-flight: %w", err)
	}
	r, err := openRestorer(dir, provider, opts)
	if err != nil {
		return nil, err
	}
	if err := r.verifyTarget(dir); err != nil {
		return nil, err
	}
	verifyDur := time.Since(verifyStart)

	installStart := time.Now()
	pages, _ := dir.Payload()
	if err := r.plan(dir, pages.Len()); err != nil {
		return nil, err
	}
	r.install(pages)
	p, err := r.build(k, dir)
	if err != nil {
		return nil, err
	}
	installDur := time.Since(installStart)

	root := opts.Obs.NewSpan("restore")
	root.Child("verify").Finish(verifyDur)
	root.Child("install").Finish(installDur)
	root.Finish(verifyDur + installDur)
	opts.Obs.Counter("restore.pages").Add(uint64(r.installed))
	opts.Obs.Histogram("restore.verify_ns").Observe(verifyDur)
	opts.Obs.Histogram("restore.install_ns").Observe(installDur)
	return p, nil
}

// restorer is the restore core RestoreWith drives, stage by stage:
//
//	openRestorer  decode inventory/files/mm, open and check the binary
//	verifyTarget  image-vs-binary version skew (needs pages.img)
//	plan          map the address space and turn the pagemap into an
//	              install schedule; refuse unflattened chains
//	install       payload pages -> frames
//	build         threads, mutexes, adoption
type restorer struct {
	opts RestoreOpts

	inv        *InventoryImage
	files      *FilesImage
	mm         *MMImage
	bin        *compiler.Binary
	as         *mem.AddressSpace
	heapMapped bool

	// The install schedule plan decodes from the pagemap: dataPages[i] is
	// the page index payload page i lands on (ascending, as the pagemap is
	// sorted).
	dataPages []uint64
	installed int
}

// openRestorer decodes inventory/files/mm from the directory and opens
// the binary, checking the architecture and the stack map's cross-ISA
// alignment.
func openRestorer(dir *ImageDir, provider BinaryProvider, opts RestoreOpts) (*restorer, error) {
	invRaw, ok := dir.Get("inventory.img")
	if !ok {
		return nil, fmt.Errorf("criu: missing inventory.img")
	}
	inv, err := UnmarshalInventory(invRaw)
	if err != nil {
		return nil, err
	}
	filesRaw, ok := dir.Get("files.img")
	if !ok {
		return nil, fmt.Errorf("criu: missing files.img")
	}
	files, err := UnmarshalFiles(filesRaw)
	if err != nil {
		return nil, err
	}
	bin, err := provider.Open(files.ExePath)
	if err != nil {
		return nil, err
	}
	if bin.Arch != inv.Arch {
		return nil, fmt.Errorf("criu: binary %q is %v but image is %v", files.ExePath, bin.Arch, inv.Arch)
	}
	if bin.Meta != nil {
		// The rewriter trusts the stack map's cross-ISA address alignment;
		// verify it before nudging any thread through SiteByTrapPC.
		if err := imgcheck.VerifyMeta(bin.Meta); err != nil {
			return nil, fmt.Errorf("criu: restore pre-flight: binary %q: %w", files.ExePath, err)
		}
	}
	mmRaw, ok := dir.Get("mm.img")
	if !ok {
		return nil, fmt.Errorf("criu: missing mm.img")
	}
	mm, err := UnmarshalMM(mmRaw)
	if err != nil {
		return nil, err
	}
	return &restorer{opts: opts, inv: inv, files: files, mm: mm, bin: bin}, nil
}

// verifyTarget checks that the image actually belongs to the opened
// binary: thread PCs and stack return addresses that resolve nowhere in
// its stack maps mean version skew. It runs before any process is built.
func (r *restorer) verifyTarget(dir *ImageDir) error {
	if r.bin.Meta == nil {
		return nil
	}
	if err := imgcheck.VerifyTargetBinary(dir, &updatecheck.Binary{
		Arch: r.bin.Arch, Text: r.bin.Text, Symbols: r.bin.Symbols, Meta: r.bin.Meta,
	}); err != nil {
		return fmt.Errorf("criu: restore pre-flight: binary %q: %w", r.files.ExePath, err)
	}
	return nil
}

// plan maps the VMAs, loads the executable's text (dumped pages overlay
// it later), and decodes the install schedule from the pagemap: data
// pages in payload order, zero pages materialized immediately when the
// image is lazy — a post-copy restore installs a fault handler, and a zero
// page must never round-trip to the page server — and lazy pages left for
// that handler. pagesSize is the pages.img size the directory holds.
func (r *restorer) plan(dir *ImageDir, pagesSize int) error {
	r.as = mem.NewAddressSpace()
	for _, v := range r.mm.VMAs {
		if err := r.as.Map(mem.VMA{Start: v.Start, End: v.End, Kind: mem.VMAKind(v.Kind), Prot: v.Prot, TID: v.TID}); err != nil {
			return fmt.Errorf("criu: restore vma: %w", err)
		}
		if mem.VMAKind(v.Kind) == mem.VMAHeap {
			r.heapMapped = true
		}
	}
	if err := r.as.WriteBytes(isa.TextBase, r.bin.Text); err != nil {
		return fmt.Errorf("criu: restore text: %w", err)
	}
	pmRaw, ok := dir.Get("pagemap.img")
	if !ok {
		return fmt.Errorf("criu: missing pagemap.img")
	}
	pm, err := UnmarshalPagemap(pmRaw)
	if err != nil {
		return err
	}
	var zeroAddrs []uint64
	lazyPages, parentPages, deltaPages := 0, 0, 0
	for _, en := range pm.Entries {
		for i := uint32(0); i < en.NrPages; i++ {
			addr := en.Vaddr + uint64(i)*mem.PageSize
			switch {
			case en.Delta:
				deltaPages++
			case en.Lazy:
				lazyPages++
			case en.InParent:
				parentPages++
			case en.Zero:
				zeroAddrs = append(zeroAddrs, addr)
			default:
				r.dataPages = append(r.dataPages, addr/mem.PageSize)
			}
		}
	}
	if parentPages > 0 {
		return fmt.Errorf("criu: image has %d unresolved in_parent pages; flatten the chain (FlattenChain) before restore", parentPages)
	}
	if deltaPages > 0 {
		return fmt.Errorf("criu: image has %d unresolved XOR-delta pages; flatten the chain (FlattenChain) before restore", deltaPages)
	}
	if want := len(r.dataPages) * mem.PageSize; want != pagesSize {
		return fmt.Errorf("criu: restore: pages.img holds %d bytes, pagemap describes %d", pagesSize, want)
	}
	if lazyPages > 0 {
		for _, addr := range zeroAddrs {
			r.as.InstallPage(addr/mem.PageSize, nil)
			r.installed++
		}
	}
	return nil
}

// install turns the payload pages into resident frames, in the plan's
// schedule order: private copies in one bulk install — the restore's one
// payload copy — or, when the restore has a frame cache, a shared
// copy-on-write frame per page.
func (r *restorer) install(payload image.Payload) {
	if r.opts.Frames == nil {
		r.as.InstallPages(r.dataPages, payload.Page)
	} else {
		for pi, idx := range r.dataPages {
			r.as.InstallSharedPage(idx, r.opts.Frames.Frame(idx, payload.Page(pi)))
		}
	}
	r.installed += len(r.dataPages)
}

// build finishes the restore once every payload page is installed:
// thread cores with trap-PC nudging, mutexes, the cleared DAPPER flag, and
// adoption by the kernel.
func (r *restorer) build(k *kernel.Kernel, dir *ImageDir) (*kernel.Process, error) {
	coder := compiler.CoderFor(r.inv.Arch)
	p := kernel.NewRestoredProcess(r.inv.Arch, coder, r.as)
	p.ExePath = r.files.ExePath
	p.Entry = r.bin.Entry
	p.ThreadExit = r.bin.ThreadExit
	p.Brk = r.mm.Brk
	if r.heapMapped {
		p.MarkHeapMapped()
	}
	for _, tid := range r.inv.TIDs {
		raw, ok := dir.Get(CoreName(tid))
		if !ok {
			return nil, fmt.Errorf("criu: missing %s", CoreName(tid))
		}
		core, err := UnmarshalCore(raw)
		if err != nil {
			return nil, err
		}
		t := &kernel.Thread{
			TID: core.TID, Regs: core.Regs, State: kernel.ThreadRunnable,
			StackLow: core.StackLow, StackHigh: core.StackHigh, TLSBlock: core.TLSBlock,
		}
		if site, ok := r.bin.Meta.SiteByTrapPC(r.inv.Arch, t.Regs.PC); ok {
			t.Regs.PC = site.PCs[archIdx(r.inv.Arch)].ResumePC
		}
		p.AddRestoredThread(t)
	}
	for _, m := range r.inv.Mutexes {
		p.RestoreMutex(m.ID, m.Holder, m.Recurse)
	}
	// Clear the transformation flag so checkers fall through.
	if err := r.as.WriteU64(isa.FlagAddr, 0); err != nil {
		return nil, fmt.Errorf("criu: clear flag: %w", err)
	}
	k.AdoptProcess(p)
	return p, nil
}

func archIdx(a isa.Arch) int {
	if a == isa.SX86 {
		return 0
	}
	return 1
}
