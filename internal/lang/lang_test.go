package lang

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

const goodProgram = `
// K-means-ish demo exercising most of the language.
const N = 10;
const M = N * 2 + 1;

var total int;
var table[M] int;

func add(a int, b int) int {
	return a + b;
}

func worker(arg int) {
	var i int = 0;
	while i < N {
		lock(1);
		total = total + arg;
		unlock(1);
		i = i + 1;
	}
}

func main() {
	var x int;
	var f float;
	var buf[16] int;
	var p *int;
	x = add(2, 3);
	f = float(x) * 1.5;
	x = int(f);
	p = &buf[2];
	*p = 42;
	buf[3] = buf[2] + 1;
	p = alloc(128);
	p[0] = 7;
	if x > 3 && buf[3] == 43 {
		print("ok\n");
		printi(x);
		printf(f);
	} else {
		print("bad");
	}
	for var i int = 0; i < N; i = i + 1 {
		table[i] = i * i;
		if i == 7 { break; }
		if i % 2 == 0 { continue; }
		total = total + table[i];
	}
	var t int;
	t = spawn(worker, 5);
	join(t);
	exit(0);
}
`

func TestParseAndCheckGoodProgram(t *testing.T) {
	file, err := Parse(goodProgram)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(file.Funcs) != 3 {
		t.Fatalf("got %d funcs", len(file.Funcs))
	}
	if file.Consts[1].Val != 21 {
		t.Errorf("const M = %d, want 21", file.Consts[1].Val)
	}
	if file.Globals[1].ArrayLen != 21 {
		t.Errorf("table len = %d, want 21", file.Globals[1].ArrayLen)
	}
	info, err := Check(file)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	mainFn := info.Funcs["main"]
	locals := info.FuncLocals[mainFn]
	// main: x, f, buf, p, i (for-loop), t
	if len(locals) != 6 {
		names := make([]string, len(locals))
		for i, l := range locals {
			names[i] = l.Name
		}
		t.Errorf("main locals = %v, want 6", names)
	}
	var sawArray bool
	for _, l := range locals {
		if l.IsArray && l.Name == "buf" && l.ArrayLen == 16 {
			sawArray = true
		}
	}
	if !sawArray {
		t.Error("buf array local not recorded")
	}
}

func TestLexerLiterals(t *testing.T) {
	toks := lex(`42 0x1f 3.5 1e3 "a\nb" name`)
	if toks[0].Int != 42 || toks[1].Int != 31 {
		t.Errorf("ints: %+v %+v", toks[0], toks[1])
	}
	if toks[2].Float != 3.5 {
		t.Errorf("float: %+v", toks[2])
	}
	if toks[3].Kind != TokFloat && toks[3].Kind != TokInt {
		t.Errorf("1e3: %+v", toks[3])
	}
	if toks[4].Str != "a\nb" {
		t.Errorf("string: %q", toks[4].Str)
	}
	if toks[5].Kind != TokIdent || toks[5].Text != "name" {
		t.Errorf("ident: %+v", toks[5])
	}
}

// refusal is one row of an error table in testdata: a source text and
// the exact error the front end returns for it.
type refusal struct {
	line      int // of the source text, in the table file
	src, want string
}

// readRefusals reads an error table: each row is a source text written
// as a Go string literal on one line and its error on the next; blank
// lines and lines starting with # are skipped.
func readRefusals(t *testing.T, name string) []refusal {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var rows []refusal
	var src *refusal
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case src == nil:
			s, err := strconv.Unquote(line)
			if err != nil {
				t.Fatalf("%s:%d: %v", name, i+1, err)
			}
			src = &refusal{line: i + 1, src: s}
		default:
			src.want = line
			rows = append(rows, *src)
			src = nil
		}
	}
	if src != nil {
		t.Fatalf("%s:%d: source without an error", name, src.line)
	}
	return rows
}

// TestParseErrors pins every refusal of the lexer and the parser by its
// full text and position.
func TestParseErrors(t *testing.T) {
	for _, r := range readRefusals(t, "parse_errors.txt") {
		_, err := Parse(r.src)
		if err == nil || err.Error() != r.want {
			t.Errorf("parse_errors.txt:%d: Parse(%q)\n got %v\nwant %s", r.line, r.src, err, r.want)
		}
	}
}

// TestCheckErrors pins every refusal of the checker by its full text and
// position; each source parses.
func TestCheckErrors(t *testing.T) {
	for _, r := range readRefusals(t, "check_errors.txt") {
		file, err := Parse(r.src)
		if err != nil {
			t.Errorf("check_errors.txt:%d: Parse(%q): %v", r.line, r.src, err)
			continue
		}
		if _, err := Check(file); err == nil || err.Error() != r.want {
			t.Errorf("check_errors.txt:%d: Check(%q)\n got %v\nwant %s", r.line, r.src, err, r.want)
		}
	}
}

// TestGlobalArrayLength: a global array's length must be positive, as a
// local array's must. A zero length used to be accepted, and a negative
// one declared a scalar.
func TestGlobalArrayLength(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`var g[0] int; func main() { }`, "dapc: 1:1: array length must be positive"},
		{`var g[0-1] int; func main() { }`, "dapc: 1:1: array length must be positive"},
		{"const N = 4;\nvar a[N] int;\nvar g[N - 5] float;", "dapc: 3:1: array length must be positive"},
	} {
		if _, err := Parse(tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q)\n got %v\nwant %s", tc.src, err, tc.want)
		}
	}
}

// TestCheckRaisesOtherPanics: Parse and Check recover only the *Error
// that fail raises. Any other panic is a bug and reaches the caller; here
// a function without a body makes the checker dereference nil.
func TestCheckRaisesOtherPanics(t *testing.T) {
	defer func() {
		if _, ok := recover().(runtime.Error); !ok {
			t.Error("Check did not raise the runtime error again")
		}
	}()
	Check(&File{Funcs: []*FuncDecl{{Name: "main", Ret: VoidType}}})
}

func TestElseIfChain(t *testing.T) {
	src := `func main() {
		var x int;
		if x == 1 { printi(1); } else if x == 2 { printi(2); } else { printi(3); }
	}`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(file); err != nil {
		t.Fatal(err)
	}
}
