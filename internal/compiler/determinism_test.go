package compiler_test

import (
	"bytes"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/stackmap"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestCompileDeterminism: compiling the same source twice must produce
// bit-identical binaries — the property that lets the files-image path
// resolve to "the same binary" on every node of the cluster.
func TestCompileDeterminism(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			src := w.Source(workloads.ClassS)
			a, err := compiler.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			b, err := compiler.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(compiler.MarshalBinary(a.X86), compiler.MarshalBinary(b.X86)) {
				t.Error("sx86 binaries differ between identical compiles")
			}
			if !bytes.Equal(compiler.MarshalBinary(a.ARM), compiler.MarshalBinary(b.ARM)) {
				t.Error("sarm binaries differ between identical compiles")
			}
		})
	}
}

// TestTextFullyDisassembles: linear-sweep disassembly of every compiled
// function must consume exactly its byte range on both ISAs — the property
// the SBI shuffler and the gadget scanner rely on.
func TestTextFullyDisassembles(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			pair, err := workloads.CompilePair(w, workloads.ClassS)
			if err != nil {
				t.Fatal(err)
			}
			for _, bin := range []*compiler.Binary{pair.X86, pair.ARM} {
				coder := stackmap.CoderFor(bin.Arch)
				for _, fn := range bin.Meta.Funcs {
					start := fn.Addr - 0x400000
					end := start + fn.Size
					for off := start; off < end; {
						inst, err := coder.Decode(bin.Text[off:end], 0x400000+off)
						if err != nil {
							t.Fatalf("%v %s at +0x%x: %v", bin.Arch, fn.Name, off-start, err)
						}
						off += uint64(inst.Len)
					}
				}
			}
		})
	}
}
