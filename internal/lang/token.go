// Package lang implements DapC, the small C-like language the benchmark
// workloads are written in. DapC plays the role of the paper's C sources
// compiled through the modified LLVM toolchain: one front end, one shared
// IR, and two backends that insert equivalence points and emit stack maps.
//
// The language is deliberately small but complete enough for the paper's
// workloads: 64-bit ints and floats, fixed-size arrays (stack allocations —
// the shuffling candidates), pointers (whose stack references the rewriter
// must remap), functions, threads, and the runtime builtins that map to the
// simulated kernel's syscalls.
package lang

import "fmt"

// TokKind classifies tokens.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota + 1
	TokIdent
	TokInt
	TokFloat
	TokString
	TokPunct   // operators and delimiters
	TokKeyword // reserved words
)

// Token is one lexeme with its source position.
type Token struct {
	Kind TokKind
	Text string
	// Int and Float carry parsed literal values.
	Int   int64
	Float float64
	Str   string // decoded string literal
	Line  int
	Col   int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "EOF"
	case TokString:
		return fmt.Sprintf("%q", t.Str)
	default:
		return t.Text
	}
}

// Pos is a source position for error reporting.
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a positioned front-end error.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("dapc: %s: %s", e.Pos, e.Msg) }

// fail refuses the source: the first error ends the phase. It panics
// with the *Error, and Parse and Check recover it in catch, so the lexer,
// the parser and the checker need not pass errors up.
func fail(pos Pos, format string, args ...any) {
	panic(&Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// catch, deferred by Parse and Check, turns a panic raised by fail into
// the phase's error; any other panic is a bug and is raised again.
func catch(err *error) {
	if r := recover(); r != nil {
		e, ok := r.(*Error)
		if !ok {
			panic(r)
		}
		*err = e
	}
}

var keywords = map[string]bool{
	"var": true, "func": true, "if": true, "else": true, "while": true,
	"for": true, "return": true, "break": true, "continue": true,
	"int": true, "float": true, "const": true,
}
