package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded directory of Go source.
type Package struct {
	// Dir is the directory relative to the load root.
	Dir string
	// RelPath is the module-relative import path (equals Dir with forward
	// slashes).
	RelPath string
	// Files is every parsed .go file, tests included, in name order.
	Files []*ast.File
	// Info is the (possibly incomplete) result of tolerant type-checking
	// of the non-test files; nil when the package did not type-check at
	// all.
	Info *types.Info
}

// Load parses and tolerantly type-checks the packages selected by
// patterns under root. Patterns follow the go tool's shape: "./..." for
// everything, "./dir/..." for a subtree, "./dir" for one package.
// testdata, vendor, and dot-directories are never descended into.
//
// The loader is deliberately self-contained: no go/packages, no export
// data, no GOPATH. Imports outside the module resolve to empty stub
// packages and type errors are collected rather than fatal, so analyzers
// get full syntax plus best-effort type information in any environment
// that has only the standard library.
func Load(fset *token.FileSet, root string, patterns []string) ([]*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}

	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := parseDir(fset, root, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	typeCheck(fset, modPath, pkgs)
	return pkgs, nil
}

// modulePath reads the module line of root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %w (the loader needs the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// expandPatterns resolves go-tool-style patterns to a sorted list of
// package directories (relative to root) that contain .go files.
func expandPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	set := make(map[string]bool)
	for _, pat := range patterns {
		pat = filepath.ToSlash(strings.TrimPrefix(pat, "./"))
		recursive := false
		if pat == "..." {
			pat, recursive = "", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		if !recursive {
			ok, err := hasGoFiles(base)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("analysis: no Go files in %s", base)
			}
			set[pat] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			ok, err := hasGoFiles(path)
			if err != nil {
				return err
			}
			if ok {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				set[filepath.ToSlash(rel)] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(set))
	for d := range set {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// parseDir parses every .go file in root/dir. Returns nil if the
// directory holds no Go files after all (races with the walk).
func parseDir(fset *token.FileSet, root, dir string) (*Package, error) {
	abs := filepath.Join(root, filepath.FromSlash(dir))
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, RelPath: filepath.ToSlash(dir)}
	if pkg.RelPath == "." {
		pkg.RelPath = ""
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(abs, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// stubImporter satisfies imports the loader cannot resolve locally with
// empty placeholder packages, letting the tolerant checker proceed.
type stubImporter struct {
	local map[string]*types.Package // module import path -> checked package
	stubs map[string]*types.Package
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.local[path]; ok {
		return p, nil
	}
	if p, ok := si.stubs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	si.stubs[path] = p
	return p, nil
}

// typeCheck runs a tolerant go/types pass over each package's non-test
// files in local-dependency order, filling Package.Info. All type errors
// are swallowed: with stub imports they are expected, and the analyzers
// treat Info as best-effort.
func typeCheck(fset *token.FileSet, modPath string, pkgs []*Package) {
	byImport := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byImport[importPathOf(modPath, p)] = p
	}
	si := &stubImporter{local: make(map[string]*types.Package), stubs: make(map[string]*types.Package)}
	for _, p := range topoOrder(fset, pkgs, byImport) {
		files := nonTestFiles(fset, p.Files)
		if len(files) == 0 {
			continue
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer:                 si,
			Error:                    func(error) {}, // tolerant: stub imports guarantee errors
			DisableUnusedImportCheck: true,
		}
		tp, _ := conf.Check(importPathOf(modPath, p), fset, files, info)
		if tp != nil {
			si.local[importPathOf(modPath, p)] = tp
		}
		p.Info = info
	}
}

func importPathOf(modPath string, p *Package) string {
	if p.RelPath == "" {
		return modPath
	}
	return modPath + "/" + p.RelPath
}

// topoOrder sorts packages so local dependencies are checked before their
// importers; cycles (which the go tool would reject anyway) fall back to
// input order. Only non-test files are type-checked, so only their imports
// count: an external test may import a package that imports the one under
// test, and following it would check that importer first, against a stub.
func topoOrder(fset *token.FileSet, pkgs []*Package, byImport map[string]*Package) []*Package {
	state := make(map[*Package]int) // 0 new, 1 visiting, 2 done
	var out []*Package
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		for _, f := range nonTestFiles(fset, p.Files) {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if dep, ok := byImport[path]; ok && state[dep] == 0 {
					visit(dep)
				}
			}
		}
		state[p] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// nonTestFiles filters out _test.go files by their position filename.
func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	var out []*ast.File
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}
