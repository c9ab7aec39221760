// Command dapper-updatecheck is the static cross-version update verifier:
// it analyzes compiled DapC binaries (DELF, as written by dapper-cc) and
// their stack-map metadata without executing anything, answering "can a
// live process safely cross from this binary to that one?" before any
// rewrite is attempted.
//
// Usage:
//
//	dapper-updatecheck [-json] BINARY.delf
//	dapper-updatecheck [-json] OLD.delf NEW.delf
//	dapper-updatecheck [-json] -image CHECKPOINT.imgdir BINARY.delf
//
// With one binary it runs the soundness pass (pass 1): every recorded
// equivalence-point site must exist, decode, and be reachable; every live
// value must agree with the slot table and the instruction stream; every
// loop must cross an equivalence point (quiescence). With two binaries it
// additionally diffs old against new (pass 2) and classifies every
// function safe / mappable / blocking, printing the slot-mapping table a
// state-transfer executor would need. With -image it checks a checkpoint
// against the binary it would restore into (pass 3): thread PCs and stack
// return addresses must resolve in the target's stack maps.
//
// The exit status is 0 only when every pass ran clean; diagnostics name
// the violated invariant (see docs/updatecheck.md for the taxonomy).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/updatecheck"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	imagePath := flag.String("image", "", "checkpoint image blob to verify against the binary (pass 3)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dapper-updatecheck [-json] BINARY.delf\n"+
			"       dapper-updatecheck [-json] OLD.delf NEW.delf\n"+
			"       dapper-updatecheck [-json] -image CHECKPOINT.imgdir BINARY.delf\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args(), *jsonOut, *imagePath); err != nil {
		fmt.Fprintln(os.Stderr, "dapper-updatecheck:", err)
		os.Exit(1)
	}
}

func run(args []string, jsonOut bool, imagePath string) error {
	switch {
	case imagePath != "":
		if len(args) != 1 {
			return fmt.Errorf("-image takes exactly one binary argument")
		}
		return runImage(imagePath, args[0], jsonOut)
	case len(args) == 1:
		return runVerify(args[0], jsonOut)
	case len(args) == 2:
		return runDiff(args[0], args[1], jsonOut)
	default:
		flag.Usage()
		return fmt.Errorf("expected 1 or 2 binary arguments, got %d", len(args))
	}
}

func loadBinary(path string) (*updatecheck.Binary, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := compiler.UnmarshalBinary(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// runVerify is the one-binary mode: pass 1 only.
func runVerify(path string, jsonOut bool) error {
	b, err := loadBinary(path)
	if err != nil {
		return err
	}
	r := updatecheck.CheckBinary(b)
	if jsonOut {
		return emitJSON(map[string]any{
			"binary":     path,
			"arch":       b.Arch.String(),
			"violations": r.Violations,
			"sound":      len(r.Violations) == 0,
		}, len(r.Violations) == 0)
	}
	if len(r.Violations) > 0 {
		for _, v := range r.Violations {
			fmt.Println(v.Error())
		}
		return fmt.Errorf("%s: %d soundness violation(s)", path, len(r.Violations))
	}
	fmt.Printf("%s: sound (%s, %d functions)\n", path, b.Arch, len(b.Meta.Funcs))
	return nil
}

// runDiff is the two-binary mode: pass 1 on both sides, then the
// cross-version classification.
func runDiff(oldPath, newPath string, jsonOut bool) error {
	oldB, err := loadBinary(oldPath)
	if err != nil {
		return err
	}
	newB, err := loadBinary(newPath)
	if err != nil {
		return err
	}
	oldR := updatecheck.CheckBinary(oldB)
	newR := updatecheck.CheckBinary(newB)
	d := updatecheck.Diff(oldB, newB)
	compatible := len(newR.Violations) == 0 && updatecheck.Compatible(oldB, newB) == nil

	if jsonOut {
		return emitJSON(map[string]any{
			"old":            oldPath,
			"new":            newPath,
			"oldViolations":  oldR.Violations,
			"newViolations":  newR.Violations,
			"functions":      diffJSON(d),
			"globals":        d.Globals,
			"updateAccepted": compatible,
		}, compatible)
	}
	for _, v := range oldR.Violations {
		fmt.Printf("old %s\n", v.Error())
	}
	for _, v := range newR.Violations {
		fmt.Printf("new %s\n", v.Error())
	}
	fmt.Printf("%-24s %-9s %-8s %s\n", "FUNCTION", "CLASS", "IDENTITY", "SLOTS MAPPED")
	for _, fd := range d.Funcs {
		fmt.Printf("%-24s %-9s %-8v %d\n", fd.Name, fd.Class, fd.Identity, len(fd.SlotMap))
		for _, v := range fd.Violations {
			fmt.Printf("    %s\n", v.Error())
		}
	}
	for _, v := range d.Globals {
		fmt.Println(v.Error())
	}
	if !compatible {
		return fmt.Errorf("update %s -> %s rejected", oldPath, newPath)
	}
	fmt.Printf("update %s -> %s accepted (%d functions classified)\n", oldPath, newPath, len(d.Funcs))
	return nil
}

// runImage is pass 3: the checkpoint blob against its restore target.
func runImage(imagePath, binPath string, jsonOut bool) error {
	b, err := loadBinary(binPath)
	if err != nil {
		return err
	}
	blob, err := os.ReadFile(imagePath)
	if err != nil {
		return err
	}
	dir, err := criu.UnmarshalImageDir(blob)
	if err != nil {
		return fmt.Errorf("%s: %w", imagePath, err)
	}
	r := updatecheck.CheckImage(image.Open(dir), b)
	if jsonOut {
		return emitJSON(map[string]any{
			"image":      imagePath,
			"binary":     binPath,
			"violations": r.Violations,
			"consistent": len(r.Violations) == 0,
		}, len(r.Violations) == 0)
	}
	if len(r.Violations) > 0 {
		for _, v := range r.Violations {
			fmt.Println(v.Error())
		}
		return fmt.Errorf("%s does not belong to %s: %d violation(s)", imagePath, binPath, len(r.Violations))
	}
	fmt.Printf("%s: consistent with %s\n", imagePath, binPath)
	return nil
}

// diffJSON flattens the report for machine consumption: the classifier's
// verdict plus the full slot-mapping table per function.
func diffJSON(d *updatecheck.DiffReport) []map[string]any {
	out := make([]map[string]any, 0, len(d.Funcs))
	for _, fd := range d.Funcs {
		out = append(out, map[string]any{
			"name":       fd.Name,
			"class":      fd.Class.String(),
			"identity":   fd.Identity,
			"slotMap":    fd.SlotMap,
			"violations": fd.Violations,
		})
	}
	return out
}

func emitJSON(v any, ok bool) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("verification failed")
	}
	return nil
}
