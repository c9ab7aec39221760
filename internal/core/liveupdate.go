package core

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/stackmap"
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
// The patch must be state-compatible, which UpdateCompatibility verifies
// from the two binaries' metadata:
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

// UpdateCompatibility checks that new can adopt process state produced by
// old. It returns nil when every function and global of old is
// state-compatible in new. The verdict comes from the updatecheck
// cross-version classifier (pass 2): every function must classify safe
// or identity-mappable — today's executor transfers state by slot id
// with no mapping table — and the global layout must be unchanged.
func UpdateCompatibility(oldBin, newBin binaryInfo) error {
	return updatecheck.Compatible(
		&updatecheck.Binary{Meta: oldBin.metadata(), Symbols: oldBin.symbols()},
		&updatecheck.Binary{Meta: newBin.metadata(), Symbols: newBin.symbols()},
	)
}

// binaryInfo decouples the compatibility check from the compiler package
// (compiler.Binary satisfies it).
type binaryInfo interface {
	metadata() *stackmap.Metadata
	symbols() map[string]uint64
}

// binInfo adapts the concrete binary type.
type binInfo struct {
	meta *stackmap.Metadata
	syms map[string]uint64
}

func (b binInfo) metadata() *stackmap.Metadata { return b.meta }
func (b binInfo) symbols() map[string]uint64   { return b.syms }

// Rewrite implements Policy.
func (p LiveUpdatePolicy) Rewrite(dir *criu.ImageDir, ctx *Context) error {
	invRaw, ok := dir.Get("inventory.img")
	if !ok {
		return fmt.Errorf("core: missing inventory.img")
	}
	inv, err := criu.UnmarshalInventory(invRaw)
	if err != nil {
		return err
	}
	filesRaw, ok := dir.Get("files.img")
	if !ok {
		return fmt.Errorf("core: missing files.img")
	}
	files, err := criu.UnmarshalFiles(filesRaw)
	if err != nil {
		return err
	}
	oldBin, err := ctx.Binaries.Open(files.ExePath)
	if err != nil {
		return err
	}
	newBin, err := ctx.Binaries.Open(p.NewExePath)
	if err != nil {
		return err
	}
	if newBin.Arch != inv.Arch {
		return fmt.Errorf("core: patched binary is %v but process is %v", newBin.Arch, inv.Arch)
	}
	// Pre-flight the patched binary's own metadata before trusting it to
	// drive a rewrite: a broken stack map would corrupt state silently.
	if err := updatecheck.VerifyBinary(&updatecheck.Binary{
		Arch: newBin.Arch, Text: newBin.Text, Symbols: newBin.Symbols, Meta: newBin.Meta,
	}); err != nil {
		return fmt.Errorf("core: patched binary fails updatecheck: %w", err)
	}
	if err := UpdateCompatibility(
		binInfo{oldBin.Meta, oldBin.Symbols},
		binInfo{newBin.Meta, newBin.Symbols},
	); err != nil {
		return err
	}

	ps, err := criu.LoadPageSet(dir)
	if err != nil {
		return err
	}
	src := Side{Arch: inv.Arch, Meta: oldBin.Meta}
	dst := Side{Arch: inv.Arch, Meta: newBin.Meta}
	newCores, err := rewriteThreads(dir, ps, inv.TIDs, src, dst, ctx, "core: live-update thread")
	if err != nil {
		return err
	}
	// The patched text replaces the execution context; the rest reloads
	// from the new executable at fault time.
	installContextText(ps, newCores, newBin.Text, max(len(oldBin.Text), len(newBin.Text)))
	if err := ps.WriteU64(isa.FlagAddr, 0); err != nil {
		return err
	}
	for _, nc := range newCores {
		dir.Put(criu.CoreName(nc.TID), nc.Marshal())
	}
	// The patched binary may have grown: widen the text/data VMAs so
	// restore can load it (new globals appear as demand-zero pages).
	mmRaw, ok := dir.Get("mm.img")
	if !ok {
		return fmt.Errorf("core: missing mm.img")
	}
	mm, err := criu.UnmarshalMM(mmRaw)
	if err != nil {
		return err
	}
	for i := range mm.VMAs {
		v := &mm.VMAs[i]
		switch {
		case v.Start == isa.TextBase:
			if end := isa.TextBase + roundPage(uint64(len(newBin.Text))); end > v.End {
				v.End = end
			}
		case v.Start == isa.DataBase:
			if end := isa.DataBase + roundPage(uint64(len(newBin.Data))); end > v.End {
				v.End = end
			}
		}
	}
	dir.Put("mm.img", mm.Marshal())
	files.ExePath = p.NewExePath
	dir.Put("files.img", files.Marshal())
	ps.Store(dir)
	return nil
}

func roundPage(n uint64) uint64 { return (n + mem.PageSize - 1) / mem.PageSize * mem.PageSize }
