package compiler_test

import (
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
)

// runOn compiles src and runs it natively on one architecture, returning
// console output.
func runOn(t *testing.T, pair *compiler.Pair, arch isa.Arch, cores int) (*kernel.Process, string) {
	t.Helper()
	k := kernel.New(kernel.Config{Cores: cores})
	bin := pair.ByArch(arch)
	p, err := k.StartProcess(bin.LoadSpec(compiler.ExePath("test", arch)))
	if err != nil {
		t.Fatalf("start (%s): %v", arch, err)
	}
	if err := k.Run(p); err != nil {
		t.Fatalf("run (%s): %v\nconsole: %s", arch, err, p.ConsoleString())
	}
	return p, p.ConsoleString()
}

// compileRun compiles and runs on both architectures, asserting identical
// output, and returns it.
func compileRun(t *testing.T, src string, cores int) string {
	t.Helper()
	pair, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, outX := runOn(t, pair, isa.SX86, cores)
	_, outA := runOn(t, pair, isa.SARM, cores)
	if outX != outA {
		t.Fatalf("cross-ISA output mismatch:\nsx86: %q\nsarm: %q", outX, outA)
	}
	return outX
}

func TestHelloWorld(t *testing.T) {
	out := compileRun(t, `
func main() {
	print("hello, dapper\n");
	printi(42);
	print("\n");
}`, 1)
	if out != "hello, dapper\n42\n" {
		t.Errorf("output = %q", out)
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	out := compileRun(t, `
func collatz(n int) int {
	var steps int;
	steps = 0;
	while n != 1 {
		if n % 2 == 0 {
			n = n / 2;
		} else {
			n = 3 * n + 1;
		}
		steps = steps + 1;
	}
	return steps;
}

func main() {
	printi(collatz(27));
	print(" ");
	var total int;
	for var i int = 1; i <= 100; i = i + 1 {
		if i % 3 == 0 && i % 5 == 0 { continue; }
		total = total + i;
	}
	printi(total);
}`, 1)
	if out != "111 4735" {
		t.Errorf("output = %q", out)
	}
}

func TestFloatsAndCasts(t *testing.T) {
	out := compileRun(t, `
func mean(a float, b float) float {
	return (a + b) / 2.0;
}
func main() {
	var f float;
	f = mean(3.0, 4.5);
	printf(f);
	print(" ");
	printi(int(f * 100.0));
	print(" ");
	var x int;
	x = 7;
	printf(float(x) / 2.0);
	print(" ");
	if 1.5 < 2.5 { printi(1); } else { printi(0); }
	if -1.0 >= 0.0 { printi(1); } else { printi(0); }
	if 2.0 != 2.0 { printi(1); } else { printi(0); }
}`, 1)
	if out != "3.75 375 3.5 100" {
		t.Errorf("output = %q", out)
	}
}

func TestArraysPointersRecursion(t *testing.T) {
	out := compileRun(t, `
var gtab[10] int;

func fib(n int) int {
	if n < 2 { return n; }
	return fib(n-1) + fib(n-2);
}

func sum(p *int, n int) int {
	var s int;
	for var i int = 0; i < n; i = i + 1 {
		s = s + p[i];
	}
	return s;
}

func main() {
	var local[10] int;
	for var i int = 0; i < 10; i = i + 1 {
		local[i] = i * i;
		gtab[i] = i;
	}
	printi(sum(&local[0], 10));
	print(" ");
	printi(sum(&gtab[0], 10));
	print(" ");
	printi(fib(15));
	print(" ");
	var p *int;
	p = alloc(8 * 5);
	for var i int = 0; i < 5; i = i + 1 { p[i] = i + 100; }
	printi(sum(p, 5));
}`, 1)
	if out != "285 45 610 510" {
		t.Errorf("output = %q", out)
	}
}

func TestThreadsAndMutex(t *testing.T) {
	out := compileRun(t, `
var counter int;
var tids[4] int;

func worker(id int) {
	var i int;
	for i = 0; i < 50; i = i + 1 {
		lock(1);
		counter = counter + 1;
		unlock(1);
	}
}

func main() {
	var i int;
	for i = 0; i < 4; i = i + 1 {
		tids[i] = spawn(worker, i);
	}
	for i = 0; i < 4; i = i + 1 {
		join(tids[i]);
	}
	printi(counter);
}`, 2)
	if out != "200" {
		t.Errorf("output = %q", out)
	}
}

func TestDeepExpressionsAndLogic(t *testing.T) {
	out := compileRun(t, `
func f(x int) int { return x + 1; }
func main() {
	var x int;
	x = 1 + (2 + (3 + (4 + (5 + (6 + (7 + (8 + 9)))))));
	printi(x);
	print(" ");
	x = f(1) + f(2) + f(3) * f(4);
	printi(x);
	print(" ");
	var b int;
	b = (x > 10) && (f(x) > 0) || (x == 0);
	printi(b);
	print(" ");
	printi(!b);
	print(" ");
	printi(-x + (3 << 2) - (64 >> 3) + (7 & 5) + (1 | 2) ^ 15);
}`, 1)
	// The last value follows DapC precedence: ((-25+12-8+5+3) ^ 15) = -4.
	if out != "45 25 1 0 -4" {
		t.Errorf("output = %q", out)
	}
}

func TestAlignedSymbolAddresses(t *testing.T) {
	pair, err := compiler.Compile(`
func helper(a int) int { return a * 2; }
func main() { printi(helper(21)); }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(pair.X86.Symbols) != len(pair.ARM.Symbols) {
		t.Fatal("symbol table size mismatch")
	}
	for name, addr := range pair.X86.Symbols {
		if pair.ARM.Symbols[name] != addr {
			t.Errorf("symbol %s: 0x%x (sx86) != 0x%x (sarm)", name, addr, pair.ARM.Symbols[name])
		}
	}
	if len(pair.X86.Text) != len(pair.ARM.Text) {
		t.Errorf("text sizes differ: %d vs %d", len(pair.X86.Text), len(pair.ARM.Text))
	}
	// Frame offsets must differ between ISAs for multi-slot functions
	// (the deliberate ABI divergence).
	mf, ok := pair.Meta.FuncByName("main")
	if !ok {
		t.Fatal("no metadata for main")
	}
	if mf.EntrySite == nil {
		t.Fatal("main has no entry site")
	}
	if mf.EntrySite.PCs[0].TrapPC == 0 || mf.EntrySite.PCs[1].TrapPC == 0 {
		t.Error("entry trap PCs not recorded")
	}
}

func TestStackMapEntryLocations(t *testing.T) {
	pair, err := compiler.Compile(`
func g(a int, b *int) int { return a + *b; }
func main() {
	var x int;
	x = 5;
	printi(g(2, &x));
}`)
	if err != nil {
		t.Fatal(err)
	}
	gf, ok := pair.Meta.FuncByName("g")
	if !ok {
		t.Fatal("no metadata for g")
	}
	if len(gf.EntrySite.Live) != 2 {
		t.Fatalf("entry live = %d, want 2", len(gf.EntrySite.Live))
	}
	for i, lv := range gf.EntrySite.Live {
		if !lv.Loc[0].InReg || !lv.Loc[1].InReg {
			t.Errorf("param %d not in registers: %+v", i, lv)
		}
		// Different DWARF numbering spaces per ISA (paper Fig. 4).
		if lv.Loc[0].DwarfReg == lv.Loc[1].DwarfReg {
			t.Errorf("param %d has same dwarf reg on both ISAs", i)
		}
	}
	if !gf.EntrySite.Live[1].Ptr {
		t.Error("pointer parameter not marked Ptr")
	}
	// Call-site records in main must locate live slots at different frame
	// offsets per ISA.
	mf, _ := pair.Meta.FuncByName("main")
	if len(mf.CallSites) == 0 {
		t.Fatal("main has no call sites")
	}
	for _, cs := range mf.CallSites {
		if cs.PCs[0].RetAddr == 0 || cs.PCs[1].RetAddr == 0 {
			t.Errorf("site %d missing return addresses", cs.ID)
		}
	}
}

func TestCheckerOverheadOnlyWhenFlagSet(t *testing.T) {
	// With the flag clear the program must run to completion; with the
	// flag poked mid-run, threads must trap at equivalence points.
	pair, err := compiler.Compile(`
func tick(n int) int { return n + 1; }
func main() {
	var i int;
	var v int;
	for i = 0; i < 10000; i = i + 1 {
		v = tick(v);
	}
	printi(v);
}`)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	p, err := k.StartProcess(pair.X86.LoadSpec("/bin/t.sx86"))
	if err != nil {
		t.Fatal(err)
	}
	tr := kernel.Attach(p)
	// Run a little, then set the flag.
	for i := 0; i < 5; i++ {
		if _, err := k.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.PokeData(isa.FlagAddr, 1); err != nil {
		t.Fatal(err)
	}
	trapped := false
	for i := 0; i < 100 && !trapped; i++ {
		st, err := k.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Trapped > 0 {
			trapped = true
		}
		if st.Exited {
			t.Fatal("exited before trapping")
		}
	}
	if !trapped {
		t.Fatal("never trapped after flag set")
	}
	// The trap PC must match a known equivalence point.
	th, ok := p.Thread(1)
	if !ok {
		t.Fatal("no thread 1")
	}
	site, ok := pair.Meta.SiteByTrapPC(isa.SX86, th.Regs.PC)
	if !ok {
		t.Fatalf("trap PC 0x%x is not a known equivalence point", th.Regs.PC)
	}
	if site.Kind != 1 { // SiteEntry
		t.Errorf("trap at non-entry site %+v", site)
	}
	// Clear the flag and resume from the checker start: the program must
	// finish with the correct result.
	if err := tr.PokeData(isa.FlagAddr, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.ResumeThread(1, site.PCs[0].ResumePC); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsoleString(); got != "10000" {
		t.Errorf("output = %q", got)
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := compiler.Compile(`func main() { undefined(); }`); err == nil {
		t.Error("want compile error")
	}
	if _, err := compiler.Compile(`not a program`); err == nil {
		t.Error("want parse error")
	}
}

// TestOversizedGlobalsRefused: a global array too large for the data
// section is a compile error. Its size in bytes used to overflow int64,
// so Compile either panicked while allocating the data section or, when
// the size wrapped to 0, compiled the array as empty.
func TestOversizedGlobalsRefused(t *testing.T) {
	for _, src := range []string{
		`var g[1152921504606846976] int; func main() { g[0] = 1; }`,
		`var g[2305843009213693952] int; func main() { }`,
		`var a[1152921504606846976] int; var b[1152921504606846976] float; func main() { }`,
	} {
		_, err := compiler.Compile(src)
		const want = "dapc: globals and string literals do not fit the 268435456-byte data section"
		if err == nil || err.Error() != want {
			t.Errorf("Compile(%q)\n got %v\nwant %s", src, err, want)
		}
	}
}

func TestRecvSendProgram(t *testing.T) {
	pair, err := compiler.Compile(`
func main() {
	var buf[32] int;
	var n int;
	while 1 {
		n = recv(&buf[0], 256);
		if n < 0 { break; }
		buf[1] = buf[1] * 2;
		send(&buf[0], n);
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		k := kernel.New(kernel.Config{})
		p, err := k.StartProcess(pair.ByArch(arch).LoadSpec("/bin/srv"))
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 16)
		msg[0] = 7 // word 0 = 7
		msg[8] = 5 // word 1 = 5
		p.PushInput(msg)
		p.CloseInput()
		if err := k.Run(p); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		out := p.TakeOutput()
		if len(out) != 16 || out[8] != 10 {
			t.Errorf("%s: output % x", arch, out)
		}
	}
}

// TestBigFrames exercises the SARM imm12-overflow fallback: a 1024-word
// local array pushes slot offsets beyond the load/store immediate range,
// forcing address materialization through the checker register.
func TestBigFrames(t *testing.T) {
	out := compileRun(t, `
func fill(p *int, n int) {
	var i int;
	for i = 0; i < n; i = i + 1 { p[i] = i * 3 + 1; }
}
func crunch(seed int) int {
	var big[1024] int;
	var small int;
	var acc int;
	var i int;
	small = seed;
	fill(&big[0], 1024);
	for i = 0; i < 1024; i = i + 1 {
		acc = acc + big[i];
	}
	return acc + small;
}
func main() {
	printi(crunch(9));
}`, 1)
	want := 0
	for i := 0; i < 1024; i++ {
		want += i*3 + 1
	}
	want += 9
	if out != itoa(want) {
		t.Errorf("output = %q, want %d", out, want)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
