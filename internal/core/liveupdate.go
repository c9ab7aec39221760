package core

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/updatecheck"
)

// LiveUpdatePolicy implements dynamic software update (DSU), one of the
// extension policies the paper names (§I: "other possible policies can be
// live software updates"): the checkpointed process is rewritten to resume
// under a *patched* binary of the same program. Code may change freely;
// stacks are re-laid-out with the same engine as the cross-ISA transform,
// using the old binary's metadata as the source side and the new binary's
// as the destination.
//
// The patch must be state-compatible, which updatecheck.Compatible
// verifies from the two binaries' metadata:
//
//   - every function with frames on some stack still exists, with the same
//     equivalence-point site ids and the same live-value sets (a patch may
//     change bodies between calls, constants, and arithmetic, but not the
//     call structure of frames that are live at the checkpoint);
//   - existing globals keep their addresses (new globals may be appended).
type LiveUpdatePolicy struct {
	// NewExePath names the patched binary in the policy context's
	// provider.
	NewExePath string
}

// Name implements Policy.
func (LiveUpdatePolicy) Name() string { return "live-update" }

var _ Policy = LiveUpdatePolicy{}

// Plan implements Policy: the patched binary, once it verifies and is
// state-compatible with the one the process runs.
func (p LiveUpdatePolicy) Plan(v *image.View, ctx *Context) (*Plan, error) {
	arch := v.Inventory.Arch
	oldBin, err := ctx.Binaries.Open(v.Files.ExePath)
	if err != nil {
		return nil, err
	}
	newBin, err := ctx.Binaries.Open(p.NewExePath)
	if err != nil {
		return nil, err
	}
	if newBin.Arch != arch {
		return nil, fmt.Errorf("core: patched binary is %v but process is %v", newBin.Arch, arch)
	}
	// Pre-flight the patched binary's own metadata before trusting it to
	// drive a rewrite: a broken stack map would corrupt state silently.
	if err := updatecheck.VerifyBinary(newBin); err != nil {
		return nil, fmt.Errorf("core: patched binary fails updatecheck: %w", err)
	}
	if err := updatecheck.Compatible(oldBin, newBin); err != nil {
		return nil, err
	}
	if err := v.Fault(image.MMName); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Plan{
		Src: Side{Arch: arch, Meta: oldBin.Meta},
		Dst: Side{Arch: arch, Meta: newBin.Meta},
		// The patched text replaces the execution context; the rest reloads
		// from the new executable at fault time.
		Text: newBin.Text, TextSpan: max(len(oldBin.Text), len(newBin.Text)),
		ExePath: p.NewExePath,
		// The patched binary may have grown: widen the text/data VMAs so
		// restore can load it (new globals appear as demand-zero pages).
		Finish: func() {
			for i := range v.MM.VMAs {
				vma := &v.MM.VMAs[i]
				switch vma.Start {
				case isa.TextBase:
					vma.End = max(vma.End, isa.TextBase+roundPage(uint64(len(newBin.Text))))
				case isa.DataBase:
					vma.End = max(vma.End, isa.DataBase+roundPage(uint64(len(newBin.Data))))
				}
			}
		},
	}, nil
}

// Rewrite implements Policy.
func (p LiveUpdatePolicy) Rewrite(dir *criu.ImageDir, ctx *Context) error {
	return rewriteDir(dir, ctx, p)
}

func roundPage(n uint64) uint64 { return (n + mem.PageSize - 1) / mem.PageSize * mem.PageSize }
