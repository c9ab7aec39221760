package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Dead surface (docs/analysis.md, "Dead surface"): an exported
// identifier under internal/ that no program uses, or an option field
// that no program sets, is a finding. A use is a non-test file's, so a
// test cannot keep alive what only it calls. Two rules:
//
//   - deadexport: every exported func, method, type, var and const
//     declared in a non-test file under internal/ is referenced by some
//     non-test file, outside its own declaration;
//   - deadopt: every exported field of an exported struct whose name
//     ends in Opts, Config, Spec or Plan is set by some non-test file:
//     a key of a composite literal, a positional literal of the struct,
//     or the left side of an assignment.
//
// Findings are checked against an allowlist. Every entry carries a
// one-line reason, and an entry that is no longer a finding (now used,
// or its identifier is gone) fails, so the list can only shrink.

// deadSurfaceAllow is the real tree's allowlist: finding → reason.
var deadSurfaceAllow = map[string]string{
	"deadexport internal/core.GuessProbability":      "reference formula (paper §IV-B) the shuffle tests compare the entropy report against",
	"deadexport internal/core.PossibleFrames":        "reference formula (paper §IV-B) the shuffle tests compare the entropy report against",
	"deadexport internal/core.Rerandomizer.Step":     "the paper's periodic re-randomization (§I); TestPeriodicRerandomization drives it, no command does yet",
	"deadexport internal/image.FrameFile":            "the framing oracle: image and core tests rebuild Marshal's blob from Names and Get with it",
	"deadexport internal/ir.Program.Dump":            "the IR printer the ir tests read lowered code through",
	"deadexport internal/kernel.Kernel.Live":         "the leak checks of the cluster and fleet tests count what a migration leaves in a node's table",
	"deadexport internal/mem.AddressSpace.TLBMisses": "the interpreter hit-path gate (vm, mem tests) reads it",
	"deadexport internal/vm.Machine.DecodedPCs":      "the dynamic half of ROADMAP item 12(c); updatecheck's oracle test reads the executed PCs through it",
	"deadexport internal/workloads.NginzCompute":     "request builder: the client side of the nginz guest server, used by the golden tests",
	"deadexport internal/workloads.NginzStatic":      "request builder: the client side of the nginz guest server, used by the golden tests",
	"deadexport internal/workloads.NginzStats":       "request builder: the client side of the nginz guest server, used by the golden tests",
	"deadexport internal/workloads.RediskaDel":       "request builder: the client side of the rediska guest server, used by the golden tests",
	"deadexport internal/workloads.RediskaStats":     "request builder: the client side of the rediska guest server, used by the golden tests",
	"deadopt internal/criu.FaultSpec.DropRate":       "tests inject connection drops through it, and FaultSpec is journaled JSON (fleet.FaultPlan)",
	"deadopt internal/criu.FaultSpec.Latency":        "tests inject slow page reads through it, and FaultSpec is journaled JSON (fleet.FaultPlan)",
	"deadopt internal/criu.FaultSpec.LatencyRate":    "tests inject slow page reads through it, and FaultSpec is journaled JSON (fleet.FaultPlan)",
}

// deadSurfaceExempt names the packages and identifiers that exist for
// tests: the test-support packages, and the analyzers' test harness.
var deadSurfaceExempt = map[string]bool{
	"internal/imgproto/imgprototest": true,
	"internal/isa/isatest":           true,
	"internal/analysis.TestPackage":  true,
}

// stdMethods are the method names of the standard-library interfaces
// the repo implements: error (and errors.Unwrap's), fmt.Stringer,
// io.Writer, io.Closer, net.Listener, net.Conn, types.Importer. The
// loader stubs the standard library, so these are listed, not loaded.
var stdMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "Write": true, "Close": true,
	"Accept": true, "Addr": true, "SetDeadline": true, "Import": true,
}

// deadSurface loads what patterns select under root, applies both rules
// and checks the findings against allow. It returns one line per finding
// the list does not name, per entry that is no longer a finding and per
// entry without a reason, sorted.
func deadSurface(t *testing.T, root string, patterns []string, allow map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := Load(fset, root, patterns)
	if err != nil {
		t.Fatal(err)
	}
	found := deadSurfaceFindings(fset, pkgs)
	var out []string
	for f := range found {
		if _, ok := allow[f]; !ok {
			out = append(out, f)
		}
	}
	for f, why := range allow {
		if !found[f] {
			out = append(out, "stale allowlist entry: "+f)
		}
		if strings.TrimSpace(why) == "" {
			out = append(out, "allowlist entry without a reason: "+f)
		}
	}
	slices.Sort(out)
	return out
}

// declared is one checked identifier: its finding, and the extent of
// its declaration, inside which a reference does not count.
type declared struct {
	finding  string
	from, to token.Pos
}

func deadSurfaceFindings(fset *token.FileSet, pkgs []*Package) map[string]bool {
	ifaceMethods := maps.Clone(stdMethods)
	exports := make(map[types.Object]declared)
	opts := make(map[types.Object]string)
	for _, p := range pkgs {
		for _, f := range nonTestFiles(fset, p.Files) {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							ifaceMethods[id.Name] = true
						}
					}
				}
				return true
			})
			if p.Info != nil && strings.HasPrefix(p.RelPath, "internal/") && !deadSurfaceExempt[p.RelPath] {
				collectDecls(p, f, exports, opts)
			}
		}
	}
	for obj := range exports {
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && ifaceMethods[fn.Name()] {
			delete(exports, obj)
		}
	}

	used := make(map[types.Object]bool)
	set := make(map[types.Object]bool)
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			if d, ok := exports[obj]; ok && (id.Pos() < d.from || id.Pos() >= d.to) {
				used[obj] = true
			}
		}
		for _, f := range nonTestFiles(fset, p.Files) {
			markSets(p.Info, f, set)
		}
	}

	found := make(map[string]bool)
	for obj, d := range exports {
		if !used[obj] {
			found[d.finding] = true
		}
	}
	for obj, name := range opts {
		if !set[obj] {
			found[name] = true
		}
	}
	return found
}

// collectDecls records f's exported top-level declarations and, for an
// options struct, its exported fields.
func collectDecls(p *Package, f *ast.File, exports map[types.Object]declared, opts map[types.Object]string) {
	add := func(id *ast.Ident, name string, from, to token.Pos) {
		if obj := p.Info.Defs[id]; obj != nil && id.IsExported() && !deadSurfaceExempt[p.RelPath+"."+name] {
			exports[obj] = declared{"deadexport " + p.RelPath + "." + name, from, to}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				name = recvName(d.Recv.List[0].Type) + "." + name
			}
			add(d.Name, name, d.Pos(), d.End())
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name, s.Pos(), s.End())
					st, ok := s.Type.(*ast.StructType)
					if !ok || !s.Name.IsExported() || !isOptsName(s.Name.Name) {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if obj := p.Info.Defs[id]; obj != nil && id.IsExported() {
								opts[obj] = "deadopt " + p.RelPath + "." + s.Name.Name + "." + id.Name
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, id.Name, s.Pos(), s.End())
					}
				}
			}
		}
	}
}

func isOptsName(name string) bool {
	for _, suf := range []string{"Opts", "Config", "Spec", "Plan"} {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// recvName is the receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// origin maps a use of an instantiated generic's member back to the
// declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markSets records the struct fields f sets: composite-literal keys,
// every field of a positional literal, and assignment targets.
func markSets(info *types.Info, f *ast.File, set map[types.Object]bool) {
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		if id, ok := e.(*ast.Ident); ok && info.Uses[id] != nil {
			set[origin(info.Uses[id])] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					mark(kv.Key)
				} else if typ := info.TypeOf(x); typ != nil {
					if st, ok := typ.Underlying().(*types.Struct); ok {
						for i := range st.NumFields() {
							set[origin(st.Field(i))] = true
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				mark(l)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		}
		return true
	})
}

// TestDeadSurface holds the whole tree, bench/, examples/, cmd/ and the
// fixture generators included, to both rules.
func TestDeadSurface(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	patterns := []string{"./...", "./internal/imgcheck/testdata", "./internal/updatecheck/testdata"}
	for _, line := range deadSurface(t, root, patterns, deadSurfaceAllow) {
		t.Error(line)
	}
}

// TestDeadSurfaceFixture runs the same check over a fixture module whose
// declarations say what must be reported: an export nobody calls and an
// option field only a test sets are findings; an export a sibling
// package calls, a method reached through an interface and a field a
// program sets are not. With an allowlist, a listed finding is quiet, and
// an entry that is no longer a finding, or has no reason, fails.
func TestDeadSurfaceFixture(t *testing.T) {
	root := filepath.Join("testdata", "deadsurface")
	got := deadSurface(t, root, []string{"./..."}, nil)
	want := []string{"deadexport internal/a.Unused", "deadopt internal/a.XOpts.TestOnly"}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n got %q\nwant %q", got, want)
	}
	allow := map[string]string{
		"deadexport internal/a.Unused": "kept on purpose",
		"deadexport internal/a.Called": "stale: cmd/b calls it",
		"deadopt internal/a.XOpts.Set": "",
	}
	got = deadSurface(t, root, []string{"./..."}, allow)
	want = []string{
		"allowlist entry without a reason: deadopt internal/a.XOpts.Set",
		"deadopt internal/a.XOpts.TestOnly",
		"stale allowlist entry: deadexport internal/a.Called",
		"stale allowlist entry: deadopt internal/a.XOpts.Set",
	}
	if !slices.Equal(got, want) {
		t.Errorf("with an allowlist:\n got %q\nwant %q", got, want)
	}
}
