// Command dapper-cc is the DAPPER compiler driver: it compiles a DapC
// source file into the aligned dual-architecture binary pair (the paper's
// modified LLVM + gold toolchain), writing <stem>.sx86.delf and
// <stem>.sarm.delf.
//
// Usage:
//
//	dapper-cc [-o stem] [-symbols] [-stackmaps] prog.dapc
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dapper-cc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dapper-cc", flag.ContinueOnError)
	out := fs.String("o", "", "output stem (default: source file without extension)")
	showSyms := fs.Bool("symbols", false, "print the (shared) symbol table")
	showMaps := fs.Bool("stackmaps", false, "print stack-map records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dapper-cc [-o stem] prog.dapc")
	}
	srcPath := fs.Arg(0)
	src, err := os.ReadFile(srcPath)
	if err != nil {
		return err
	}
	stem := *out
	if stem == "" {
		stem = strings.TrimSuffix(srcPath, ".dapc")
	}
	pair, err := compiler.Compile(string(src))
	if err != nil {
		return err
	}
	for _, bin := range []*compiler.Binary{pair.X86, pair.ARM} {
		name := fmt.Sprintf("%s.%s.delf", stem, bin.Arch)
		if err := os.WriteFile(name, compiler.MarshalBinary(bin), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (text %d B, data %d B, %d functions)\n",
			name, len(bin.Text), len(bin.Data), len(bin.Meta.Funcs))
	}
	if *showSyms {
		printSymbols(pair.X86)
	}
	if *showMaps {
		printStackmaps(pair.Meta)
	}
	return nil
}

func printSymbols(b *compiler.Binary) {
	names := make([]string, 0, len(b.Symbols))
	for n := range b.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return b.Symbols[names[i]] < b.Symbols[names[j]] })
	fmt.Println("symbols (identical across both architectures):")
	for _, n := range names {
		fmt.Printf("  0x%08x  %s\n", b.Symbols[n], n)
	}
}

func printStackmaps(meta *stackmap.Metadata) {
	fmt.Println("stack maps:")
	for _, fn := range meta.Funcs {
		fmt.Printf("  func %s @0x%x (+%d B), %d slots, blocking=%v\n",
			fn.Name, fn.Addr, fn.Size, len(fn.Slots), fn.Blocking)
		e := fn.EntrySite
		fmt.Printf("    entry site %d: trap sx86=0x%x sarm=0x%x\n",
			e.ID, e.PCs[0].TrapPC, e.PCs[1].TrapPC)
		for _, lv := range e.Live {
			fmt.Printf("      param %d: %s | %s (ptr=%v)\n",
				lv.SlotID, lv.Loc[stackmap.ArchIdx(isa.SX86)], lv.Loc[stackmap.ArchIdx(isa.SARM)], lv.Ptr)
		}
		for _, cs := range fn.CallSites {
			fmt.Printf("    call site %d: ret sx86=0x%x sarm=0x%x, %d live\n",
				cs.ID, cs.PCs[0].RetAddr, cs.PCs[1].RetAddr, len(cs.Live))
		}
	}
}
