// Package lint is a stdlib-only miniature of golang.org/x/tools/go/analysis,
// specialised to this repository. It exists because the module must stay
// offline-buildable with zero external dependencies, yet the invariants that
// its hardest concurrency bugs violated — a mutex held across channel work,
// sync.Pool objects escaping their Get/Put discipline, contexts dropped
// instead of threaded — are exactly the kind of property a small, local,
// syntactic-plus-types verifier can pin on every commit. In the spirit of the
// source paper (Göös & Suomela, PODC 2011), each analyzer is a local verifier
// for a global code property: it inspects one function or one package at a
// time and accepts only when the per-site certificate (the code plus, where
// needed, an explicit //lint:ignore reason) is locally consistent.
//
// The framework mirrors go/analysis at small scale: an Analyzer has a Name, a
// Doc, and a Run function over a *Pass; a Pass carries the token.FileSet, the
// parsed files, and full go/types information for one package; diagnostics
// are positioned and printed as "file:line: [name] message". Suppression uses
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it. The reason is
// mandatory; an ignore without one, with an unknown analyzer name, or that
// suppresses nothing is itself a diagnostic, so the set of exceptions stays
// honest. Fixture tests use an analysistest-style harness (RunFixture) that
// checks testdata packages against "// want \"regexp\"" comments.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass: a short lower-case Name
// (used in diagnostics and //lint:ignore directives), a Doc explaining the
// invariant it pins and the historical bug that motivated it, and a Run
// function invoked once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass carries everything one Analyzer needs to inspect one package:
// the shared fileset, the parsed (non-test) files, the type-checked package
// and its types.Info. Analyzers report through Reportf, which applies the
// package's //lint:ignore directives before recording a diagnostic.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg   *Package
	diags *[]Diagnostic
}

// A Diagnostic is one finding, resolved to a concrete file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos unless an ignore directive for this
// analyzer covers the line (or the directive sits on the line directly
// above, the idiomatic placement for a standalone comment).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position // of the comment
	name      string         // analyzer name the directive targets
	reason    string         // mandatory free-text justification
	used      bool           // set when it suppresses at least one diagnostic
	malformed string         // non-empty when the directive could not be parsed
}

var ignoreRE = regexp.MustCompile(`^//lint:ignore(\s+(\S+))?(\s+(.*\S))?\s*$`)

// parseIgnores scans every comment in f for //lint:ignore directives.
func parseIgnores(fset *token.FileSet, f *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, group := range f.Comments {
		for _, c := range group.List {
			if !strings.HasPrefix(c.Text, "//lint:ignore") {
				continue
			}
			d := &ignoreDirective{pos: fset.Position(c.Pos())}
			m := ignoreRE.FindStringSubmatch(c.Text)
			switch {
			case m == nil:
				d.malformed = "malformed lint:ignore directive"
			case m[2] == "":
				d.malformed = "lint:ignore needs an analyzer name and a reason"
			case m[4] == "":
				d.name = m[2]
				d.malformed = fmt.Sprintf("lint:ignore %s needs a written reason", m[2])
			default:
				d.name, d.reason = m[2], m[4]
			}
			out = append(out, d)
		}
	}
	return out
}

// suppressed reports whether a diagnostic from analyzer name at pos is
// covered by an ignore directive in the same file, on the same line or on
// the line directly above. Matching directives are marked used.
func (pkg *Package) suppressed(name string, pos token.Position) bool {
	ok := false
	for _, d := range pkg.ignores[pos.Filename] {
		if d.malformed != "" || d.name != name {
			continue
		}
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 {
			d.used = true
			ok = true
		}
	}
	return ok
}

// RunOptions tunes a Run call. CheckDirectives additionally audits the
// package's //lint:ignore directives: malformed ones, ones naming an unknown
// analyzer, and ones that suppressed nothing all become diagnostics. It
// should be enabled only when running the full analyzer set (otherwise a
// directive for an analyzer that simply was not run would be reported as
// unused).
type RunOptions struct {
	CheckDirectives bool
}

// Run executes each analyzer over the loaded package and returns the merged,
// position-sorted diagnostics.
func Run(pkg *Package, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			pkg:       pkg,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	if opts.CheckDirectives {
		known := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			known[a.Name] = true
		}
		for _, byFile := range pkg.ignores {
			for _, d := range byFile {
				switch {
				case d.malformed != "":
					diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "lint", Message: d.malformed})
				case !known[d.name]:
					diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "lint",
						Message: fmt.Sprintf("lint:ignore names unknown analyzer %q", d.name)})
				case !d.used:
					diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "lint",
						Message: fmt.Sprintf("unused lint:ignore %s directive (the code below no longer trips it)", d.name)})
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full analyzer set in deterministic order. cmd/lcplint and
// the repo-wide cleanliness test both run exactly this set.
func All() []*Analyzer {
	return []*Analyzer{
		LockHeld,
		PoolPut,
		CtxFlow,
		ErrIgnored,
		DocComment,
	}
}

// ByName resolves a comma-separated analyzer selection against All.
func ByName(names string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames(all))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty analyzer selection")
	}
	return out, nil
}

func analyzerNames(as []*Analyzer) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}
