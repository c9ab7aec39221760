package checks

import (
	"go/ast"
	"strconv"

	"github.com/dapper-sim/dapper/internal/analysis"
)

// Wallclock forbids time.Now / time.Since in the packages whose timing is
// MODELED: internal/cluster's downtime accounting and the VM. Migration
// downtime is composed of modeled phases only — the determinism
// regression test replays a migration twice and requires identical
// breakdowns — so host wall-clock reads in these packages are either a
// bug or a deliberately-separated host-side measurement (RecodeHost),
// which carries a //lint:ignore with that reason.
//
// internal/fleet and internal/registry are in scope too: their *results*
// (reports, journals) embed migration breakdowns that must stay modeled,
// while their *control plane* (backoff timers, uptime) legitimately runs
// on host time — each such site carries a //lint:ignore stating why the
// read cannot leak into a modeled figure.
var Wallclock = &analysis.Analyzer{
	Name:      "wallclock",
	Doc:       "no time.Now/time.Since in modeled-timing packages",
	SkipTests: true,
	Packages:  []string{"internal/cluster", "internal/vm", "internal/fleet", "internal/registry"},
	Run: func(p *analysis.Pass) {
		for _, f := range p.Files {
			timeName := importName(f, "time")
			if timeName == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || id.Name != timeName {
					return true
				}
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					p.Reportf(sel.Pos(), "time.%s is host wall-clock; modeled timing must stay deterministic — use the modeled cost functions, or annotate why host time cannot leak into a modeled result",
						sel.Sel.Name)
				}
				return true
			})
		}
	},
}

// importName returns the name the file refers to the given import path by
// ("" if not imported, or imported blank/dot).
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name == nil {
			// Default name: last path element.
			name := p
			for i := len(p) - 1; i >= 0; i-- {
				if p[i] == '/' {
					name = p[i+1:]
					break
				}
			}
			return name
		}
		if imp.Name.Name == "_" || imp.Name.Name == "." {
			return ""
		}
		return imp.Name.Name
	}
	return ""
}
