package compiler_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/kernel"
)

func TestBinaryRoundTrip(t *testing.T) {
	pair, err := compiler.Compile(`
func twice(v int) int { return v * 2; }
func main() {
	var x int;
	x = twice(21);
	printi(x);
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, bin := range []*compiler.Binary{pair.X86, pair.ARM} {
		blob := compiler.MarshalBinary(bin)
		got, err := compiler.UnmarshalBinary(blob)
		if err != nil {
			t.Fatalf("%v: %v", bin.Arch, err)
		}
		if got.Arch != bin.Arch || got.Entry != bin.Entry || got.ThreadExit != bin.ThreadExit {
			t.Errorf("%v: header mismatch", bin.Arch)
		}
		if string(got.Text) != string(bin.Text) || string(got.Data) != string(bin.Data) {
			t.Errorf("%v: section mismatch", bin.Arch)
		}
		if len(got.Symbols) != len(bin.Symbols) {
			t.Errorf("%v: symbols %d != %d", bin.Arch, len(got.Symbols), len(bin.Symbols))
		}
		// Metadata survives: functions, sites, live values.
		of, _ := bin.Meta.FuncByName("twice")
		nf, ok := got.Meta.FuncByName("twice")
		if !ok {
			t.Fatalf("%v: metadata lost twice()", bin.Arch)
		}
		if nf.Addr != of.Addr || nf.Size != of.Size || len(nf.Slots) != len(of.Slots) {
			t.Errorf("%v: func meta mismatch", bin.Arch)
		}
		if nf.EntrySite == nil || len(nf.EntrySite.Live) != len(of.EntrySite.Live) {
			t.Errorf("%v: entry site mismatch", bin.Arch)
		}
		if nf.EntrySite.PCs != of.EntrySite.PCs {
			t.Errorf("%v: entry PCs mismatch", bin.Arch)
		}
		// The decoded binary must actually run.
		k := kernel.New(kernel.Config{})
		p, err := k.StartProcess(got.LoadSpec("/bin/rt." + got.Arch.String()))
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(p); err != nil {
			t.Fatalf("%v: run decoded binary: %v", bin.Arch, err)
		}
		if out := p.ConsoleString(); out != "42" {
			t.Errorf("%v: output %q", bin.Arch, out)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := compiler.UnmarshalBinary([]byte("not a delf")); err == nil {
		t.Error("want magic error")
	}
	if _, err := compiler.UnmarshalBinary([]byte("DELF1\n\xff\xff\xff")); err == nil {
		t.Error("want parse error")
	}
}

// TestDELFFixturesRoundTrip pins DELF bytes the way TestGoldenImageDigests
// pins image bytes: every committed updatecheck fixture decodes and
// re-encodes to its own bytes (make fixtures-check regenerates the same
// files from fresh compiles).
func TestDELFFixturesRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../updatecheck/testdata/*.delf")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no DELF fixtures (%v)", err)
	}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := compiler.UnmarshalBinary(blob)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if !bytes.Equal(compiler.MarshalBinary(b), blob) {
			t.Errorf("%s: re-encoding moved its bytes", path)
		}
	}
}
