package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
)

func TestExePathOf(t *testing.T) {
	cases := []struct {
		path string
		arch isa.Arch
		want string
	}{
		{"prog.sx86.delf", isa.SX86, "/bin/prog.sx86"},
		{"prog.sx86.delf", isa.SARM, "/bin/prog.sarm"},
		{"dir/sub/app.sarm.delf", isa.SX86, "/bin/app.sx86"},
		{"plain.delf", isa.SARM, "/bin/plain.sarm"},
		{"noext", isa.SX86, "/bin/noext.sx86"},
	}
	for _, tc := range cases {
		if got := exePathOf(tc.path, tc.arch); got != tc.want {
			t.Errorf("exePathOf(%q, %v) = %q, want %q", tc.path, tc.arch, got, tc.want)
		}
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run(nil); err == nil {
		t.Error("empty args accepted")
	}
}

// shortProg finishes in far fewer cycles than pre-copy's default round
// budget, so a round sized by that default would run it to its exit.
const shortProg = `
var data[4096] int;
var acc int;
func fill() {
	var i int;
	for i = 0; i < 4096; i = i + 1 {
		data[i] = (i % 251) + 1;
	}
}
func bump(i int) {
	acc = acc + data[(i * 7) % 4096];
}
func main() {
	var i int;
	fill();
	for i = 0; i < 6000; i = i + 1 {
		bump(i);
	}
	printi(acc);
}`

// TestMigratePreCopyShortProgram: dapperctl sizes pre-copy rounds to the
// program, so a short program is still running at the final pause and
// migrates with its native output.
func TestMigratePreCopyShortProgram(t *testing.T) {
	paths := writePair(t, shortProg)
	native := captureStdout(t, func() error { return run([]string{"run", paths[0]}) })
	want := native[:strings.Index(native, "[exit")]
	for _, args := range [][]string{
		{"migrate", "-precopy"},
		{"migrate", "-precopy", "-delta", "-codec", "flate"},
		{"stats", "-precopy"},
	} {
		out := captureStdout(t, func() error { return run(append(args, paths...)) })
		if args[0] == "migrate" && !strings.Contains(out, "output: "+want) {
			t.Errorf("%v: output %q, want the native %q", args, out, want)
		}
	}
}

// loopsProg makes no call inside either of its loops: its only
// equivalence points are main's entry and the printi at its end.
const loopsProg = `
var acc int;
func main() {
	var i int;
	for i = 0; i < 20000; i = i + 1 {
		acc = acc + (i % 7);
	}
	for i = 0; i < 20000; i = i + 1 {
		acc = acc + (i % 5);
	}
	printi(acc);
}`

// TestMigratePreCopyNoCallsInLoops: a pause at the middle of such a
// program parks it at its final printi, so stop-and-copy migrates it
// there, and pre-copy's round 0 dumps it there and its first
// between-round run reaches exit. The refusal says which round, at what
// guest cycle the pause parked the source, and that the program exited.
func TestMigratePreCopyNoCallsInLoops(t *testing.T) {
	paths := writePair(t, loopsProg)
	native := captureStdout(t, func() error { return run([]string{"run", paths[0]}) })
	want := native[:strings.Index(native, "[exit")]
	if out := captureStdout(t, func() error { return run(append([]string{"migrate"}, paths...)) }); !strings.Contains(out, "output: "+want) {
		t.Errorf("migrate: output %q, want the native %q", out, want)
	}
	err := run(append([]string{"migrate", "-precopy"}, paths...))
	if err == nil {
		t.Fatal("migrate -precopy succeeded on a program whose pause parks it at its end")
	}
	for _, frag := range []string{"round 0 paused the source at guest cycle ", "reached exit before round 1"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not say %q", err, frag)
		}
	}
}

// writePair compiles src for both ISAs into a temporary directory and
// returns the x86 and the ARM binary's paths.
func writePair(t *testing.T, src string) []string {
	t.Helper()
	pair, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for _, bin := range []*compiler.Binary{pair.X86, pair.ARM} {
		path := filepath.Join(dir, fmt.Sprintf("prog.%s.delf", bin.Arch))
		if err := os.WriteFile(path, compiler.MarshalBinary(bin), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed; an error from f fails the test.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r) // the pipe's write end closes below
		done <- out
	}()
	err = f()
	os.Stdout = saved
	_ = w.Close() // ends the reader's ReadAll
	out := <-done
	_ = r.Close() // fully read
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	return string(out)
}
