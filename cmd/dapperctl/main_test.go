package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/fleet"
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
// migrates with its native output. The -lazy rows serve post-copy pages
// over the TCP page server, in migrate and stats alike.
func TestMigratePreCopyShortProgram(t *testing.T) {
	paths := writePair(t, shortProg)
	native := captureStdout(t, func() error { return run([]string{"run", paths[0]}) })
	want := native[:strings.Index(native, "[exit")]
	for _, args := range [][]string{
		{"migrate", "-precopy"},
		{"migrate", "-precopy", "-delta", "-codec", "flate"},
		{"stats", "-precopy"},
		{"migrate", "-lazy"},
		{"migrate", "-lazy", "-codec", "flate"},
		{"stats", "-lazy"},
	} {
		out := captureStdout(t, func() error { return run(append(args, paths...)) })
		if args[0] == "migrate" && !strings.Contains(out, "output: "+want) {
			t.Errorf("%v: output %q, want the native %q", args, out, want)
		}
	}
}

// TestMigrateInPlace: one file named twice is a migration within its
// node, so -shuffle is one re-randomization epoch: the native output, and
// nothing copied.
func TestMigrateInPlace(t *testing.T) {
	for _, path := range writePair(t, shortProg) {
		native := captureStdout(t, func() error { return run([]string{"run", path}) })
		want := native[:strings.Index(native, "[exit")]
		out := captureStdout(t, func() error { return run([]string{"migrate", "-shuffle", path, path}) })
		if !strings.Contains(out, "output: "+want) {
			t.Errorf("%s: output %q, want the native %q", path, out, want)
		}
		if !strings.Contains(out, " copy=0s ") || !strings.Contains(out, " wire=0B") {
			t.Errorf("%s: breakdown %q, want copy=0s and wire=0B", path, out)
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

// TestFleetClientCommands drives submit, jobs and status against a real
// daemon socket: jobs -json decodes into fleet.Job records, the text
// listing keeps its column layout, and status carries the obs payload
// only with -full.
func TestFleetClientCommands(t *testing.T) {
	m, err := fleet.NewManager(fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := m.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	if err := m.AddNode("xeon0", cluster.XeonSpec, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode("pi0", cluster.PiSpec, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterProgram("short", shortProg); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	socket := filepath.Join(t.TempDir(), "d.sock")
	srv, err := fleet.Serve(m, socket)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()

	if out := captureStdout(t, func() error { return run([]string{"submit", "-socket", socket, "-program", "short"}) }); out != "job 1 submitted\n" {
		t.Fatalf("submit printed %q", out)
	}
	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}

	var jobs []fleet.Job
	out := captureStdout(t, func() error { return run([]string{"jobs", "-socket", socket, "-json"}) })
	if err := json.Unmarshal([]byte(out), &jobs); err != nil {
		t.Fatalf("jobs -json: %v\n%s", err, out)
	}
	if len(jobs) != 1 || jobs[0].State != fleet.Done || jobs[0].Spec.Program != "short" {
		t.Fatalf("jobs -json decoded as %+v, want one done job of short", jobs)
	}
	text := captureStdout(t, func() error { return run([]string{"jobs", "-socket", socket}) })
	if want := "job 1    short      done     mode=vanilla attempts=1 retries=0 "; !strings.HasPrefix(text, want) || !strings.Contains(text, " migration=") {
		t.Errorf("jobs listed %q, want it to start %q and carry the migration time", text, want)
	}

	for _, tc := range []struct {
		args    []string
		wantObs bool
	}{
		{[]string{"status", "-socket", socket, "-json"}, false},
		{[]string{"status", "-socket", socket, "-json", "-full"}, true},
	} {
		var rep map[string]json.RawMessage
		out := captureStdout(t, func() error { return run(tc.args) })
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		if _, hasObs := rep["obs"]; hasObs != tc.wantObs {
			t.Errorf("%v: obs present %v, want %v", tc.args, hasObs, tc.wantObs)
		}
		if string(rep["jobs_done"]) != "1" {
			t.Errorf("%v: jobs_done %s, want 1", tc.args, rep["jobs_done"])
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
