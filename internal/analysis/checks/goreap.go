package checks

import (
	"go/ast"

	"github.com/dapper-sim/dapper/internal/analysis"
)

// Goreap requires every goroutine launched in the transport packages
// (internal/criu, internal/cluster, internal/image), in the one accept
// loop their servers share (internal/netserve), in the fleet control
// plane (internal/fleet — the scheduler loop and per-job executors), and
// in the persistent checkpoint store (internal/registry) to have a
// visible join/reap path. A leaked serving goroutine outlives its
// migration, holds its connection, and makes "Close waits for the
// serving goroutines" a lie — the exact leak class the post-copy
// hardening fixed; in the daemon it also makes Manager.Stop return
// while executors still mutate nodes.
//
// A `go` statement passes if either
//   - the enclosing function calls .Add(...) (a WaitGroup arm) somewhere
//     before the launch, or
//   - the launched function literal itself calls .Done() (WaitGroup
//     join).
//
// Fire-and-forget goroutines whose lifetime is genuinely bounded another
// way (reader loops reaped by closing their connection) carry a
// //lint:ignore naming that mechanism.
var Goreap = &analysis.Analyzer{
	Name:      "goreap",
	Doc:       "goroutines in transport packages need a join/reap path",
	SkipTests: true,
	Packages:  []string{"internal/criu", "internal/cluster", "internal/netserve", "internal/fleet", "internal/registry", "internal/image"},
	Run: func(p *analysis.Pass) {
		for _, f := range p.Files {
			eachFuncBody(f, func(body *ast.BlockStmt) {
				// Positions of .Add(...) calls in this scope.
				var addPos []ast.Node
				scopeInspect(body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && methodCall(call, "Add") != nil {
						addPos = append(addPos, n)
					}
					return true
				})
				scopeInspect(body, func(n ast.Node) bool {
					g, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					armed := false
					for _, a := range addPos {
						if a.Pos() < g.Pos() {
							armed = true
							break
						}
					}
					if !armed {
						if lit, ok := g.Call.Fun.(*ast.FuncLit); ok && callsReap(lit) {
							armed = true
						}
					}
					if !armed {
						p.Reportf(g.Pos(), "goroutine has no join/reap path: no WaitGroup.Add before launch and no .Done() in its body; a leaked goroutine outlives the migration")
					}
					return true
				})
			})
		}
	},
}

// callsReap reports whether the function literal's body calls .Done()
// (WaitGroup join).
func callsReap(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if methodCall(call, "Done") != nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
