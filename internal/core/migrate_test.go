package core_test

import (
	"fmt"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
)

// world compiles a program and provides both binaries under the
// conventional paths.
type world struct {
	pair     *compiler.Pair
	provider criu.MapProvider
	name     string
}

func buildWorld(t testing.TB, name, src string) *world {
	t.Helper()
	pair, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return &world{
		pair: pair,
		name: name,
		provider: criu.MapProvider{
			compiler.ExePath(name, isa.SX86): pair.X86,
			compiler.ExePath(name, isa.SARM): pair.ARM,
		},
	}
}

func (w *world) start(t testing.TB, arch isa.Arch, cores int) (*kernel.Kernel, *kernel.Process) {
	t.Helper()
	k := kernel.New(kernel.Config{Cores: cores})
	p, err := k.StartProcess(w.pair.ByArch(arch).LoadSpec(compiler.ExePath(w.name, arch)))
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

// runNative runs to completion, returning console output and total cycles.
func (w *world) runNative(t testing.TB, arch isa.Arch, cores int) (string, uint64) {
	t.Helper()
	k, p := w.start(t, arch, cores)
	if err := k.Run(p); err != nil {
		t.Fatalf("native run (%v): %v\nconsole: %s", arch, err, p.ConsoleString())
	}
	return p.ConsoleString(), p.VCycles
}

// migrate runs on from-arch for budget cycles, checkpoints, cross-ISA
// rewrites, restores on to-arch, and runs to completion. It returns the
// concatenated console output. If the program finishes before the budget,
// it returns the native output (migration never triggered).
func (w *world) migrate(t testing.TB, from isa.Arch, budget uint64, cores int, lazy bool) string {
	t.Helper()
	k1, p1 := w.start(t, from, cores)
	alive, err := k1.RunBudget(p1, budget)
	if err != nil {
		t.Fatalf("pre-migration run: %v", err)
	}
	if !alive {
		return p1.ConsoleString()
	}
	mon := monitor.New(k1, p1, w.pair.Meta)
	if err := mon.Pause(1 << 20); err != nil {
		t.Fatalf("pause: %v", err)
	}
	dir, err := criu.Dump(p1, criu.DumpOpts{Lazy: lazy})
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	out1 := p1.ConsoleString()

	policy := core.CrossISAPolicy{}
	if err := policy.Rewrite(dir, &core.Context{Binaries: w.provider}); err != nil {
		t.Fatalf("rewrite: %v", err)
	}

	// Exercise the wire form (the scp step).
	dir2, err := criu.UnmarshalImageDir(dir.Marshal())
	if err != nil {
		t.Fatalf("image transfer: %v", err)
	}

	k2 := kernel.New(kernel.Config{Cores: cores})
	p2, err := criu.Restore(k2, dir2, w.provider)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if lazy {
		criu.InstallLazyHandler(p2, criu.NewProcessPageSource(p1))
	}
	if err := k2.Run(p2); err != nil {
		t.Fatalf("post-migration run: %v\nconsole so far: %s", err, p2.ConsoleString())
	}
	return out1 + p2.ConsoleString()
}

const countdownSrc = `
func work(step int) int {
	var acc int;
	var i int;
	for i = 0; i < 200; i = i + 1 {
		acc = acc + (i % 7) * step;
	}
	return acc;
}
func main() {
	var total int;
	var r int;
	for r = 0; r < 40; r = r + 1 {
		total = total + work(r);
		printi(total % 1000);
		print(" ");
	}
	print("done\n");
}`

// TestMigrateBothDirections is the headline invariant: output is identical
// whether the program runs natively or is migrated mid-run across ISAs, at
// many checkpoint positions and in both directions.
func TestMigrateBothDirections(t *testing.T) {
	w := buildWorld(t, "countdown", countdownSrc)
	wantX, cyclesX := w.runNative(t, isa.SX86, 1)
	wantA, cyclesA := w.runNative(t, isa.SARM, 1)
	if wantX != wantA {
		t.Fatalf("native outputs differ:\n%q\n%q", wantX, wantA)
	}
	fracs := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9}
	for _, frac := range fracs {
		frac := frac
		t.Run(fmt.Sprintf("x86-to-arm-%.2f", frac), func(t *testing.T) {
			got := w.migrate(t, isa.SX86, uint64(float64(cyclesX)*frac), 1, false)
			if got != wantX {
				t.Errorf("output mismatch at %.0f%%:\n got %q\nwant %q", frac*100, got, wantX)
			}
		})
		t.Run(fmt.Sprintf("arm-to-x86-%.2f", frac), func(t *testing.T) {
			got := w.migrate(t, isa.SARM, uint64(float64(cyclesA)*frac), 1, false)
			if got != wantX {
				t.Errorf("output mismatch at %.0f%%:\n got %q\nwant %q", frac*100, got, wantX)
			}
		})
	}
}

// TestMigrateDeepRecursion checkpoints inside deep recursion so the stack
// walk crosses many frames with live values and differing layouts.
func TestMigrateDeepRecursion(t *testing.T) {
	src := `
func fib(n int) int {
	if n < 2 { return n; }
	return fib(n-1) + fib(n-2);
}
func main() {
	printi(fib(19));
	print("\n");
}`
	w := buildWorld(t, "fib", src)
	want, cycles := w.runNative(t, isa.SX86, 1)
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		got := w.migrate(t, isa.SX86, uint64(float64(cycles)*frac), 1, false)
		if got != want {
			t.Errorf("frac %.1f: got %q want %q", frac, got, want)
		}
		got = w.migrate(t, isa.SARM, uint64(float64(cycles)*frac), 1, false)
		if got != want {
			t.Errorf("frac %.1f (arm src): got %q want %q", frac, got, want)
		}
	}
}

// TestMigrateWithPointers checkpoints while live pointers into stack
// arrays exist, exercising the pointer-remapping logic.
func TestMigrateWithPointers(t *testing.T) {
	src := `
func fill(p *int, n int, seed int) {
	var i int;
	for i = 0; i < n; i = i + 1 {
		p[i] = seed + i * 3;
		yield();
	}
}
func total(p *int, n int) int {
	var s int;
	var i int;
	for i = 0; i < n; i = i + 1 { s = s + p[i]; }
	return s;
}
func main() {
	var buf[32] int;
	var q *int;
	var r int;
	q = &buf[4];
	for r = 0; r < 12; r = r + 1 {
		fill(&buf[0], 32, r);
		*q = *q + total(&buf[0], 32);
		printi(buf[4]);
		print(" ");
	}
	print("end\n");
}`
	w := buildWorld(t, "ptr", src)
	want, cycles := w.runNative(t, isa.SX86, 1)
	for _, frac := range []float64{0.15, 0.45, 0.7} {
		got := w.migrate(t, isa.SX86, uint64(float64(cycles)*frac), 1, false)
		if got != want {
			t.Errorf("frac %.2f: got %q want %q", frac, got, want)
		}
	}
}

// TestMigrateMultithreaded checkpoints a contended multi-threaded program:
// some threads trap at entries, some are rolled back out of blocked
// lock/join wrappers.
func TestMigrateMultithreaded(t *testing.T) {
	src := `
var counter int;
var tids[4] int;

func bump(n int) int { return n + 1; }

func worker(id int) {
	var i int;
	for i = 0; i < 60; i = i + 1 {
		lock(1);
		counter = bump(counter);
		unlock(1);
	}
}

func main() {
	var i int;
	for i = 0; i < 4; i = i + 1 { tids[i] = spawn(worker, i); }
	for i = 0; i < 4; i = i + 1 { join(tids[i]); }
	printi(counter);
	print("\n");
}`
	w := buildWorld(t, "mt", src)
	want, cycles := w.runNative(t, isa.SX86, 2)
	if want != "240\n" {
		t.Fatalf("native output %q", want)
	}
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		got := w.migrate(t, isa.SX86, uint64(float64(cycles)*frac), 2, false)
		if got != want {
			t.Errorf("frac %.1f: got %q want %q", frac, got, want)
		}
		got = w.migrate(t, isa.SARM, uint64(float64(cycles)*frac), 2, false)
		if got != want {
			t.Errorf("frac %.1f (arm): got %q want %q", frac, got, want)
		}
	}
}

// TestMigrateLazy exercises post-copy restoration: only stack/TLS pages
// move eagerly; the rest are faulted from the source process.
func TestMigrateLazy(t *testing.T) {
	src := `
func main() {
	var p *int;
	var i int;
	var s int;
	p = alloc(8 * 3000);
	for i = 0; i < 3000; i = i + 1 { p[i] = i * i % 97; }
	for i = 0; i < 3000; i = i + 1 { s = s + p[i]; }
	printi(s);
	print("\n");
}`
	w := buildWorld(t, "heapy", src)
	want, cycles := w.runNative(t, isa.SX86, 1)
	for _, frac := range []float64{0.3, 0.6} {
		got := w.migrate(t, isa.SX86, uint64(float64(cycles)*frac), 1, true)
		if got != want {
			t.Errorf("lazy frac %.1f: got %q want %q", frac, got, want)
		}
	}
}

// TestSourceResumesAfterCheckpoint verifies the monitor can resume the
// original process after a dump (periodic snapshot scenario).
func TestSourceResumesAfterCheckpoint(t *testing.T) {
	w := buildWorld(t, "resume", countdownSrc)
	want, cycles := w.runNative(t, isa.SARM, 1)
	k, p := w.start(t, isa.SARM, 1)
	if _, err := k.RunBudget(p, cycles/3); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(k, p, w.pair.Meta)
	if err := mon.Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := criu.Dump(p, criu.DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := mon.ResumeLocal(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsoleString(); got != want {
		t.Errorf("resume mismatch:\n got %q\nwant %q", got, want)
	}
}

// TestMigrateBigFrames checkpoints inside a function whose frame exceeds
// the SARM imm12 range, with a live pointer into the large array.
func TestMigrateBigFrames(t *testing.T) {
	src := `
func touch(p *int, i int) { p[i] = p[i] + i; }
func crunch(seed int) int {
	var big[1024] int;
	var acc int;
	var i int;
	for i = 0; i < 1024; i = i + 1 { big[i] = seed + i; }
	for i = 0; i < 1024; i = i + 1 { touch(&big[0], i); }
	for i = 0; i < 1024; i = i + 1 { acc = acc + big[i]; }
	return acc;
}
func main() {
	printi(crunch(3));
	print("\n");
}`
	w := buildWorld(t, "bigframe", src)
	want, cycles := w.runNative(t, isa.SX86, 1)
	for _, frac := range []float64{0.3, 0.6, 0.85} {
		got := w.migrate(t, isa.SX86, uint64(float64(cycles)*frac), 1, false)
		if got != want {
			t.Errorf("frac %.2f: got %q want %q", frac, got, want)
		}
		got = w.migrate(t, isa.SARM, uint64(float64(cycles)*frac), 1, false)
		if got != want {
			t.Errorf("frac %.2f (arm src): got %q want %q", frac, got, want)
		}
	}
}
