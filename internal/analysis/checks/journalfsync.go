package checks

import (
	"go/ast"
	"strings"

	"github.com/dapper-sim/dapper/internal/analysis"
)

// Journalfsync guards the durability contract of the control plane's
// persistent state (internal/journal, the event log under both
// internal/fleet's job journal and internal/registry's manifest journal,
// plus the registry's chunk store): a write that a caller will observe as
// success — a journal append acknowledged, a chunk file renamed into
// place, a journal file created — must reach Sync first. Fleet and
// registry replay these files after a crash to reconstruct in-flight jobs
// and manifest contents; a write that made it to the page cache but not
// the platter is exactly the torn state the replay logic cannot
// distinguish from corruption.
//
// The check is syntactic, keyed to the three conventions these packages
// use:
//
//   - a file handle opened in the same function (os.Create, os.CreateTemp,
//     os.OpenFile) and then written must be Synced in that function — a
//     rename or close makes the bytes durable no more than a write does;
//   - a write through a field named f (the journal-handle convention)
//     must be Synced in the same function, keeping every append durable
//     before its caller sees nil;
//   - a function that names a file (os.Rename, os.Create, or os.OpenFile
//     with O_CREATE) must also sync its directory, with a call to a
//     function named SyncDir (journal.SyncDir) — a file's own Sync makes
//     its bytes durable, not the directory entry that names it, so a
//     crash can lose a synced file whole.
//
// Hashes, buffers, and network writers match none of these and are
// never flagged. A deliberate unsynced write carries //lint:ignore
// journalfsync with the reason.
var Journalfsync = &analysis.Analyzer{
	Name:      "journalfsync",
	Doc:       "journal appends, freshly-created files and their names must reach fsync before success is observable",
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
	var writes, named []write
	dirSynced := false

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
			if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "SyncDir" {
				dirSynced = true
			}
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := exprText(p.Fset, sel.X)
			if recv == osName && namesFile(p, sel.Sel.Name, st) {
				named = append(named, write{expr: osName + "." + sel.Sel.Name, pos: st})
			}
			switch sel.Sel.Name {
			case "Write", "WriteString":
				writes = append(writes, write{expr: recv, pos: st})
			case "Sync":
				synced[recv] = true
			case "SyncDir":
				dirSynced = true
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
			p.Reportf(w.pos.Pos(), "%s is written but never Synced in this function; a rename or close does not make the bytes durable — fsync before success is observable",
				w.expr)
		case isJournalHandle(w.expr):
			p.Reportf(w.pos.Pos(), "journal append writes %s without a Sync in the same function; a crash after the caller sees success would lose the event on replay",
				w.expr)
		}
	}
	if !dirSynced {
		for _, n := range named {
			p.Reportf(n.pos.Pos(), "%s names a file but this function never syncs its directory (SyncDir); a crash can lose the name even when the bytes are synced",
				n.expr)
		}
	}
}

// namesFile reports whether call, a call of os.<fn>, puts a new name in a
// directory: a rename, a create, or an open with O_CREATE.
func namesFile(p *analysis.Pass, fn string, call *ast.CallExpr) bool {
	switch fn {
	case "Rename", "Create":
		return true
	case "OpenFile":
		return len(call.Args) > 1 && strings.Contains(exprText(p.Fset, call.Args[1]), "O_CREATE")
	}
	return false
}

// isJournalHandle matches the x.f convention the journal uses for its
// *os.File.
func isJournalHandle(expr string) bool {
	return len(expr) > 2 && expr[len(expr)-2:] == ".f"
}
