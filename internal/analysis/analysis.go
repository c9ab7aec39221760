// Package analysis is a stdlib-only static-analysis framework (go/ast +
// go/parser + go/types; no golang.org/x/tools) purpose-built for this
// repo's migration invariants. It provides a shared driver that loads
// packages once and runs every registered analyzer over them, a
// //lint:ignore suppression mechanism with mandatory reasons, and
// position-sorted diagnostics. cmd/dapperlint is the command-line front
// end; the analyzers themselves live in internal/analysis/checks.
//
// The framework exists because the repo's hardest bugs were not crashes
// but quiet invariant violations — a deadline left armed on a pooled
// connection, a dropped Close error masking a half-shipped image, host
// wall-clock time leaking into modeled downtime. Each analyzer encodes
// one such invariant; docs/analysis.md records the motivating incidents.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Severity classifies a diagnostic. Errors fail the build (dapperlint
// exits non-zero); warnings — stale suppressions — are advisory.
type Severity int

// Severity levels.
const (
	SeverityError Severity = iota
	SeverityWarning
)

func (s Severity) String() string {
	if s == SeverityWarning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Check    string
	Message  string
	Severity Severity
}

func (d Diagnostic) String() string {
	msg := d.Message
	if d.Severity == SeverityWarning {
		msg = "warning: " + msg
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, msg)
}

// Analyzer is one check. Analyzers are primarily syntactic: Pass.Info is
// available but may be incomplete (the loader type-checks tolerantly with
// stub imports), so no analyzer may hard-depend on it.
type Analyzer struct {
	// Name is the check identifier used in output and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// SkipTests excludes _test.go files from the analyzer's view.
	SkipTests bool
	// Packages restricts the analyzer to packages whose module-relative
	// import path equals an entry or lives below it ("internal/cluster"
	// matches internal/cluster and internal/cluster/sub). Empty = all.
	Packages []string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// AppliesTo reports whether the analyzer covers the package with the
// given module-relative path (e.g. "internal/cluster").
func (a *Analyzer) AppliesTo(relPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if relPath == p || (len(relPath) > len(p) && relPath[:len(p)] == p && relPath[len(p)] == '/') {
			return true
		}
	}
	return false
}

// Pass hands one analyzer one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's syntax, already filtered by SkipTests.
	Files []*ast.File
	// PkgPath is the module-relative import path ("internal/criu").
	PkgPath string
	// Info holds whatever type information the tolerant checker could
	// recover; nil for packages that failed to parse cleanly.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records an error-severity finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Check:    p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Severity: SeverityError,
	})
}
