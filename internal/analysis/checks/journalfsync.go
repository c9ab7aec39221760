package checks

import (
	"go/ast"

	"github.com/dapper-sim/dapper/internal/analysis"
)

// Journalfsync guards the durability contract of the control plane's
// persistent state (internal/journal, the event log under both
// internal/fleet's job journal and internal/registry's manifest journal,
// plus the registry's chunk store): a write that a caller will observe as
// success — a journal append acknowledged, a chunk file renamed into
// place — must reach Sync first. Fleet and registry replay these files
// after a crash to reconstruct in-flight jobs and manifest contents; a
// write that made it to the page cache but not the platter is exactly the
// torn state the replay logic cannot distinguish from corruption.
//
// The check is syntactic, keyed to the two conventions these packages
// use:
//
//   - a file handle opened in the same function (os.Create, os.CreateTemp,
//     os.OpenFile) and then written must be Synced in that function — the
//     temp-then-rename idiom makes the *name* durable, never the bytes;
//   - a write through a field named f (the journal-handle convention)
//     must be Synced in the same function, keeping every append durable
//     before its caller sees nil.
//
// Hashes, buffers, and network writers don't match either pattern and are
// never flagged. A deliberate unsynced write carries //lint:ignore
// journalfsync with the reason.
var Journalfsync = &analysis.Analyzer{
	Name:      "journalfsync",
	Doc:       "journal appends and freshly-created files must fsync before success is observable",
	SkipTests: true,
	Packages:  []string{"internal/fleet", "internal/registry", "internal/journal"},
	Run: func(p *analysis.Pass) {
		for _, f := range p.Files {
			osName := importName(f, "os")
			eachFuncBody(f, func(body *ast.BlockStmt) {
				checkJournalfsync(p, body, osName)
			})
		}
	},
}

func checkJournalfsync(p *analysis.Pass, body *ast.BlockStmt, osName string) {
	// opened maps identifiers assigned from os.Create/os.CreateTemp/
	// os.OpenFile in this body to their declaration site.
	opened := map[string]bool{}
	synced := map[string]bool{}
	type write struct {
		expr string
		pos  ast.Node
	}
	var writes []write

	scopeInspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || osName == "" || id.Name != osName {
					continue
				}
				switch sel.Sel.Name {
				case "Create", "CreateTemp", "OpenFile":
					// The handle is the first value on the left (f, err := ...).
					if i < len(st.Lhs) {
						if lhs, ok := st.Lhs[i].(*ast.Ident); ok {
							opened[lhs.Name] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := exprText(p.Fset, sel.X)
			switch sel.Sel.Name {
			case "Write", "WriteString":
				writes = append(writes, write{expr: recv, pos: st})
			case "Sync":
				synced[recv] = true
			}
		}
		return true
	})

	for _, w := range writes {
		if synced[w.expr] {
			continue
		}
		switch {
		case opened[w.expr]:
			p.Reportf(w.pos.Pos(), "%s is written but never Synced in this function; a rename or close makes the name durable, not the bytes — fsync before success is observable",
				w.expr)
		case isJournalHandle(w.expr):
			p.Reportf(w.pos.Pos(), "journal append writes %s without a Sync in the same function; a crash after the caller sees success would lose the event on replay",
				w.expr)
		}
	}
}

// isJournalHandle matches the x.f convention the journal uses for its
// *os.File.
func isJournalHandle(expr string) bool {
	return len(expr) > 2 && expr[len(expr)-2:] == ".f"
}
