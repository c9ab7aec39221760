package ir_test

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/ir"
	"github.com/dapper-sim/dapper/internal/lang"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// refusal is one row of an error table: a source text and the exact
// error the front end returns for it.
type refusal struct {
	line      int // of the source text, in the table file
	src, want string
}

// readRefusals reads an error table: each row is a source text written
// as a Go string literal on one line and its error on the next; blank
// lines and lines starting with # are skipped. The lang package's
// tables use the same format.
func readRefusals(tb testing.TB, path string) []refusal {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var rows []refusal
	var src *refusal
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case src == nil:
			s, err := strconv.Unquote(line)
			if err != nil {
				tb.Fatalf("%s:%d: %v", path, i+1, err)
			}
			src = &refusal{line: i + 1, src: s}
		default:
			src.want = line
			rows = append(rows, *src)
			src = nil
		}
	}
	if src != nil {
		tb.Fatalf("%s:%d: source without an error", path, src.line)
	}
	return rows
}

// TestLowerErrors pins every refusal of the lowerer a checked program can
// reach, by its full text.
func TestLowerErrors(t *testing.T) {
	for _, r := range readRefusals(t, "testdata/lower_errors.txt") {
		file, err := lang.Parse(r.src)
		if err != nil {
			t.Errorf("lower_errors.txt:%d: Parse(%q): %v", r.line, r.src, err)
			continue
		}
		info, err := lang.Check(file)
		if err != nil {
			t.Errorf("lower_errors.txt:%d: Check(%q): %v", r.line, r.src, err)
			continue
		}
		if _, err := ir.Lower(file, info); err == nil || err.Error() != r.want {
			t.Errorf("lower_errors.txt:%d: Lower(%q)\n got %v\nwant %s", r.line, r.src, err, r.want)
		}
	}
}

// TestDataSectionLimit: the flag word, the globals and the pooled string
// literals, each rounded up to words, must fit the data section
// [isa.DataBase, isa.HeapBase), 2^25 words; one word more is refused.
// Lower forms no size for a program it refuses, so lengths near 2^63
// bytes are refused the same way.
func TestDataSectionLimit(t *testing.T) {
	const refusedMsg = "dapc: globals and string literals do not fit the 268435456-byte data section"
	for _, tc := range []struct {
		src  string
		fits bool
	}{
		{`var g[33554431] int; func main() { }`, true},
		{`var g[33554432] int; func main() { }`, false},
		{`var a int; var g[33554430] float; func main() { }`, true},
		{`var a int; var b *int; var g[33554430] int; func main() { }`, false},
		{`var g[33554430] int; func main() { print("12345678"); print("12345678"); }`, true},
		{`var g[33554430] int; func main() { print("123456789"); }`, false},
		{`var g[1152921504606846976] int; func main() { g[0] = 1; }`, false},
		{`var g[2305843009213693952] int; func main() { }`, false},
		{`var g[9223372036854775807] int; func main() { }`, false},
	} {
		file, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lang.Check(file)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ir.Lower(file, info)
		if tc.fits && err != nil {
			t.Errorf("Lower(%q): %v", tc.src, err)
		}
		if !tc.fits && (err == nil || err.Error() != refusedMsg) {
			t.Errorf("Lower(%q)\n got %v\nwant %s", tc.src, err, refusedMsg)
		}
	}
}

// TestFrameLimit: a function's slots — parameters, locals, arrays and
// the lowerer's temps — and its saved frame pointer and return address
// must fit a thread's stack, isa.StackSize = 2^15 words; the slot that
// would outgrow it is named. Lengths near 2^63 bytes are refused the same
// way, without forming their size.
func TestFrameLimit(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string // "": fits
	}{
		{`func main() { var a[32766] int; }`, ""},
		{`func main() { var a[32767] int; }`, `dapc: local "a" of main does not fit the 262144-byte stack`},
		{`func f(x int, y *int) { var a[32764] float; } func main() { }`, ""},
		{`func f(x int, y *int) { var a[32764] float; var b int; } func main() { }`, `dapc: local "b" of f does not fit the 262144-byte stack`},
		{`func main() { var a[32765] int; var x int; x = a[a[0]] + 1; }`, ""},
		{`func main() { var a[32765] int; var x int; var y int; x = a[a[0]] + 1; }`, `dapc: local "y" of main does not fit the 262144-byte stack`},
		{`func main() { var a[32764] int; var x int; x = a[0] && 1; }`, ""},
		{`func main() { var a[32765] int; var x int; x = a[0] && 1; }`, `dapc: local "$t2" of main does not fit the 262144-byte stack`},
		{`func main() { var a[4611686018427387904] int; a[0] = 1; }`, `dapc: local "a" of main does not fit the 262144-byte stack`},
		{`func main() { var a[9223372036854775807] int; }`, `dapc: local "a" of main does not fit the 262144-byte stack`},
		{`func main() { var a[16384] int; var b[16384] int; }`, `dapc: local "b" of main does not fit the 262144-byte stack`},
		{`func f() { var a[32766] int; } func main() { var a[32766] int; f(); }`, ""},
	} {
		file, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lang.Check(file)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ir.Lower(file, info)
		if tc.want == "" && err != nil {
			t.Errorf("Lower(%q): %v", tc.src, err)
		}
		if tc.want != "" && (err == nil || err.Error() != tc.want) {
			t.Errorf("Lower(%q)\n got %v\nwant %s", tc.src, err, tc.want)
		}
	}
}

// TestLowerRaisesOtherPanics: Lower recovers only its own refusals. Any
// other panic is a bug and reaches the caller; here an Info without types
// makes the lowerer dereference nil.
func TestLowerRaisesOtherPanics(t *testing.T) {
	file, err := lang.Parse(`func main() { printi(1 + 2); }`)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if _, ok := recover().(runtime.Error); !ok {
			t.Error("Lower did not raise the runtime error again")
		}
	}()
	ir.Lower(file, &lang.Info{})
}

// FuzzFrontEnd runs the front end on any source text: lang.Parse,
// lang.Check and ir.Lower each return a result or an error, and none of
// them panics. Parse and Check refuse with a positioned *lang.Error, and
// every error reads "dapc: ...". The seeds are every workload's class-S
// source and the sources of the three error tables.
func FuzzFrontEnd(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source(workloads.ClassS))
	}
	for _, table := range []string{
		"../lang/testdata/parse_errors.txt",
		"../lang/testdata/check_errors.txt",
		"testdata/lower_errors.txt",
	} {
		for _, r := range readRefusals(f, table) {
			f.Add(r.src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := lang.Parse(src)
		if refused(t, "Parse", file != nil, err, true) {
			return
		}
		info, err := lang.Check(file)
		if refused(t, "Check", info != nil, err, true) {
			return
		}
		prog, err := ir.Lower(file, info)
		refused(t, "Lower", prog != nil, err, false)
	})
}

// refused reports whether a phase returned an error, and fails t unless
// the phase returned exactly one of a result and a well-formed error.
func refused(t *testing.T, phase string, ok bool, err error, positioned bool) bool {
	t.Helper()
	if ok == (err != nil) {
		t.Fatalf("%s returned a result (%v) and an error (%v)", phase, ok, err)
	}
	if err == nil {
		return false
	}
	var le *lang.Error
	if positioned && !errors.As(err, &le) {
		t.Fatalf("%s: error %v is a %T, not a *lang.Error", phase, err, err)
	}
	if !strings.HasPrefix(err.Error(), "dapc: ") {
		t.Fatalf("%s: error %q does not start with \"dapc: \"", phase, err)
	}
	return true
}
