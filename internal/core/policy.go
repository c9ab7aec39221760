package core

import (
	"fmt"
	"strings"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
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

// Policy transforms a checkpoint image directory in place. Policies are
// DAPPER's extensibility point: cross-ISA migration and stack shuffling
// are the two the paper evaluates; live update is one of the others §I
// names.
//
// A policy states what it decides — Plan — and Apply, the one rewrite
// driver, does everything else. Rewrite is the policy run alone on a
// directory, and is the same line for every policy.
type Policy interface {
	Name() string
	// Plan reads the open view (inventory and files are there to read) and
	// returns the rewrite the policy wants. Its refusals — an unsuitable
	// binary, an incompatible patch — are its errors.
	Plan(v *image.View, ctx *Context) (*Plan, error)
	Rewrite(dir *criu.ImageDir, ctx *Context) error
}

// Plan is what a policy decides about a rewrite.
type Plan struct {
	// Src and Dst are the layouts every thread is rewritten between.
	Src, Dst Side
	// Text is the destination binary's code: the execution-context pages
	// are installed from it and the first TextSpan bytes of dumped text are
	// dropped, to reload from the destination executable at fault time.
	Text     []byte
	TextSpan int
	// ExePath is the executable files.img names afterwards.
	ExePath string
	// Finish, if set, runs once the view holds the rewritten state: the
	// policy's own edits to the view, and anything it publishes.
	Finish func()
}

// Apply is the rewrite driver: it runs p over an open view. What it
// guarantees a policy: the images were decoded once, before Plan; every
// thread the inventory names is rewritten from Plan.Src to Plan.Dst; the
// destination text is installed and the transformation flag cleared; and
// nothing reaches the directory until the caller commits the view, once,
// whatever number of policies ran over it. A view Apply failed on may hold
// a half-rewritten page set: drop it, the directory is as it was.
func Apply(v *image.View, ctx *Context, p Policy) error {
	if err := v.Fault(image.InventoryName, image.FilesName); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	plan, err := p.Plan(v, ctx)
	if err != nil {
		return err
	}
	ps, err := v.PageSet()
	if err != nil {
		return err
	}
	cores := make([]*image.CoreImage, len(v.Inventory.TIDs))
	for i, tid := range v.Inventory.TIDs {
		c, err := v.Core(tid)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if cores[i], err = RewriteThread(c, ps, plan.Src, plan.Dst); err != nil {
			return fmt.Errorf("core: %s thread %d: %w", p.Name(), tid, err)
		}
	}
	ctx.Obs.Counter("rewrite.threads").Add(uint64(len(cores)))

	ps.DropRange(isa.TextBase, isa.TextBase+uint64(plan.TextSpan))
	for _, c := range cores {
		pageAddr := c.Regs.PC / mem.PageSize * mem.PageSize
		off := pageAddr - isa.TextBase
		ps.InstallPage(pageAddr, plan.Text[off:min(off+mem.PageSize, uint64(len(plan.Text)))])
		v.PutCore(c)
	}
	// Clear the transformation flag inside the dumped data page so the
	// restored checkers fall through.
	if err := ps.WriteU64(isa.FlagAddr, 0); err != nil {
		return fmt.Errorf("core: clear flag: %w", err)
	}
	v.Inventory.Arch = plan.Dst.Arch
	v.Files.ExePath = plan.ExePath
	if plan.Finish != nil {
		plan.Finish()
	}
	return nil
}

// rewriteDir is every policy's Rewrite: one view, one policy, one commit.
func rewriteDir(dir *criu.ImageDir, ctx *Context, p Policy) error {
	v := image.Open(dir)
	if err := Apply(v, ctx, p); err != nil {
		return err
	}
	v.Commit()
	return nil
}

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

// Plan implements Policy: the same program's binary for the other
// architecture.
func (p CrossISAPolicy) Plan(v *image.View, ctx *Context) (*Plan, error) {
	srcArch := v.Inventory.Arch
	dstArch := p.Target
	if dstArch == 0 {
		dstArch = srcArch.Other()
	}
	if dstArch == srcArch {
		return nil, fmt.Errorf("core: cross-ISA rewrite to the same architecture %v", srcArch)
	}
	srcBin, err := ctx.Binaries.Open(v.Files.ExePath)
	if err != nil {
		return nil, err
	}
	dstPath := SwapExeArch(v.Files.ExePath, dstArch)
	dstBin, err := ctx.Binaries.Open(dstPath)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Src:  Side{Arch: srcArch, Meta: srcBin.Meta},
		Dst:  Side{Arch: dstArch, Meta: dstBin.Meta},
		Text: dstBin.Text, TextSpan: len(dstBin.Text),
		ExePath: dstPath,
	}, nil
}

// Rewrite implements Policy.
func (p CrossISAPolicy) Rewrite(dir *criu.ImageDir, ctx *Context) error {
	return rewriteDir(dir, ctx, p)
}
