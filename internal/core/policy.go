package core

import (
	"fmt"
	"strings"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// Context supplies a policy's environment: how to resolve executables.
type Context struct {
	Binaries criu.BinaryProvider
	// Obs, if set, receives rewrite telemetry: "rewrite.threads".
	Obs *obs.Registry
}

// rewriteThreads applies RewriteThread to every live thread named by the
// inventory, in inventory order. It is the shared rewrite stage behind
// CrossISAPolicy, StackShufflePolicy and LiveUpdatePolicy.
func rewriteThreads(dir *criu.ImageDir, ps *criu.PageSet, tids []int, src, dst Side, ctx *Context, errPrefix string) ([]*criu.CoreImage, error) {
	newCores := make([]*criu.CoreImage, len(tids))
	for i, tid := range tids {
		raw, ok := dir.Get(criu.CoreName(tid))
		if !ok {
			return nil, fmt.Errorf("core: missing %s", criu.CoreName(tid))
		}
		c, err := criu.UnmarshalCore(raw)
		if err != nil {
			return nil, err
		}
		if newCores[i], err = RewriteThread(c, ps, src, dst); err != nil {
			return nil, fmt.Errorf("%s %d: %w", errPrefix, c.TID, err)
		}
	}
	ctx.Obs.Counter("rewrite.threads").Add(uint64(len(tids)))
	return newCores, nil
}

// installContextText swaps the process's code for text: the dumped pages
// of [TextBase, TextBase+span) are dropped — they reload from the new
// executable at fault time — and the execution-context pages, the ones
// holding each rewritten thread's PC, are installed from text.
func installContextText(ps *criu.PageSet, cores []*criu.CoreImage, text []byte, span int) {
	ps.DropRange(isa.TextBase, isa.TextBase+uint64(span))
	for _, nc := range cores {
		pageAddr := nc.Regs.PC / mem.PageSize * mem.PageSize
		off := pageAddr - isa.TextBase
		ps.InstallPage(pageAddr, text[off:min(off+mem.PageSize, uint64(len(text)))])
	}
}

// Policy transforms a checkpoint image directory in place. Policies are
// DAPPER's extensibility point: cross-ISA migration and stack shuffling
// are the two the paper evaluates; NopPolicy demonstrates the plumbing.
type Policy interface {
	Name() string
	Rewrite(dir *criu.ImageDir, ctx *Context) error
}

// NopPolicy decodes and re-encodes the images without changing state —
// the minimal policy, useful as a baseline and a plumbing test.
type NopPolicy struct{}

// Name implements Policy.
func (NopPolicy) Name() string { return "nop" }

// Rewrite implements Policy.
func (NopPolicy) Rewrite(dir *criu.ImageDir, _ *Context) error {
	ps, err := criu.LoadPageSet(dir)
	if err != nil {
		return err
	}
	ps.Store(dir)
	return nil
}

var _ Policy = NopPolicy{}

// CrossISAPolicy rewrites the image so the process restores on the other
// architecture: registers are translated through the stack maps, every
// thread's stack is rebuilt under the destination ABI, the TLS register is
// rebased, the execution-context code pages are replaced with the
// destination binary's, and the files image is retargeted to the
// destination executable.
type CrossISAPolicy struct {
	// Target selects the destination architecture; zero means "the other
	// one".
	Target isa.Arch
}

// Name implements Policy.
func (p CrossISAPolicy) Name() string { return "cross-isa" }

var _ Policy = CrossISAPolicy{}

// SwapExeArch rewrites /bin/name.<arch> for the destination architecture.
func SwapExeArch(path string, dst isa.Arch) string {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[:i+1] + dst.String()
	}
	return path + "." + dst.String()
}

// Rewrite implements Policy.
func (p CrossISAPolicy) Rewrite(dir *criu.ImageDir, ctx *Context) error {
	invRaw, ok := dir.Get("inventory.img")
	if !ok {
		return fmt.Errorf("core: missing inventory.img")
	}
	inv, err := criu.UnmarshalInventory(invRaw)
	if err != nil {
		return err
	}
	srcArch := inv.Arch
	dstArch := p.Target
	if dstArch == 0 {
		dstArch = srcArch.Other()
	}
	if dstArch == srcArch {
		return fmt.Errorf("core: cross-ISA rewrite to the same architecture %v", srcArch)
	}

	filesRaw, ok := dir.Get("files.img")
	if !ok {
		return fmt.Errorf("core: missing files.img")
	}
	files, err := criu.UnmarshalFiles(filesRaw)
	if err != nil {
		return err
	}
	srcBin, err := ctx.Binaries.Open(files.ExePath)
	if err != nil {
		return err
	}
	dstPath := SwapExeArch(files.ExePath, dstArch)
	dstBin, err := ctx.Binaries.Open(dstPath)
	if err != nil {
		return err
	}

	ps, err := criu.LoadPageSet(dir)
	if err != nil {
		return err
	}
	src := Side{Arch: srcArch, Meta: srcBin.Meta}
	dst := Side{Arch: dstArch, Meta: dstBin.Meta}

	newCores, err := rewriteThreads(dir, ps, inv.TIDs, src, dst, ctx, "core: thread")
	if err != nil {
		return err
	}

	installContextText(ps, newCores, dstBin.Text, len(dstBin.Text))

	// Clear the transformation flag inside the dumped data page so the
	// restored checkers fall through.
	if err := ps.WriteU64(isa.FlagAddr, 0); err != nil {
		return fmt.Errorf("core: clear flag: %w", err)
	}

	for _, nc := range newCores {
		dir.Put(criu.CoreName(nc.TID), nc.Marshal())
	}
	inv.Arch = dstArch
	dir.Put("inventory.img", inv.Marshal())
	files.ExePath = dstPath
	dir.Put("files.img", files.Marshal())
	ps.Store(dir)
	return nil
}
