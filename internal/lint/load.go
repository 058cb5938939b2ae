package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one directory of non-test Go files, parsed and fully
// type-checked, together with its parsed //lint:ignore directives.
type Package struct {
	Path  string // import path ("lcp/internal/dist", or a synthetic path for fixtures)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	ignores map[string][]*ignoreDirective // filename -> directives
}

// A Loader parses and type-checks package directories. It resolves stdlib
// imports through the go/types source importer (compiling declarations from
// GOROOT source, so it works offline with no export data) and module-internal
// imports by mapping "lcp/..." paths onto directories under the module root.
// One Loader shares its importer caches across every Load call, so the
// stdlib is type-checked at most once per process.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset  *token.FileSet
	std   types.ImporterFrom
	info  *types.Info        // shared across every module-internal typecheck
	cache map[string]*loaded // module-internal import path -> result
}

// loaded is one cached module-internal package: a package must be
// type-checked exactly once per Loader, whether it is reached as an
// analysis target or as a dependency — two copies of the same package are
// distinct types to go/types, and mixing them breaks every cross-package
// assignment.
type loaded struct {
	files []*ast.File
	types *types.Package
}

// NewLoader returns a Loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// The source importer reads build.Default. Typechecking cgo-using
	// stdlib packages (net, os/user) would need a working C toolchain;
	// with cgo off, go/build selects their pure-Go variants instead, which
	// is all the type information the analyzers need.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: path,
		fset:       fset,
		std:        std,
		info:       newInfo(),
		cache:      make(map[string]*loaded),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// Load parses and type-checks the non-test Go files of one directory.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importPath := l.importPathFor(abs)
	ld, err := l.loadPath(importPath, abs)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path:    importPath,
		Dir:     abs,
		Fset:    l.fset,
		Files:   ld.files,
		Types:   ld.types,
		Info:    l.info,
		ignores: make(map[string][]*ignoreDirective),
	}
	for _, f := range ld.files {
		name := l.fset.Position(f.Pos()).Filename
		if ds := parseIgnores(l.fset, f); len(ds) > 0 {
			pkg.ignores[name] = ds
		}
	}
	return pkg, nil
}

// loadPath parses and type-checks one module-internal package, at most once
// per Loader. Every check records into the shared types.Info, so a package
// loaded first as a dependency still has full info when analysed later.
func (l *Loader) loadPath(importPath, dir string) (*loaded, error) {
	if ld, ok := l.cache[importPath]; ok {
		return ld, nil
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	ld := &loaded{files: files, types: tpkg}
	l.cache[importPath] = ld
	return ld, nil
}

// importPathFor maps a directory onto its module import path; directories
// outside the module (fixture trees) get a synthetic path from the base name.
func (l *Loader) importPathFor(abs string) string {
	if rel, err := filepath.Rel(l.ModuleRoot, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		if rel == "." {
			return l.ModulePath
		}
		return l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return filepath.Base(abs)
}

// parseDir parses every non-test .go file of dir in lexical order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths resolve to
// directories under the module root and are type-checked from source here
// (cached per Loader); everything else — the stdlib — goes to the source
// importer, which maintains its own cache.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")))
		ld, err := l.loadPath(path, dir)
		if err != nil {
			return nil, err
		}
		return ld.types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// ModulePackageDirs walks the module tree and returns every directory that
// holds at least one non-test Go file, skipping testdata and hidden
// directories. It is what TestLintCleanRepo uses in place of
// `go list -f '{{.Dir}}' ./...`.
func ModulePackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
