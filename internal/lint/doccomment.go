package lint

import (
	"strings"
)

// DocComment flags undocumented packages: every package (commands
// included) must carry a package doc comment on at least one of its
// non-test files. The package comments are the paper-to-code map (docs/ARCHITECTURE.md) — each
// states which definitions of Göös & Suomela (PODC 2011) the package
// implements — so a missing one is a documentation regression, not a style
// nit.
var DocComment = &Analyzer{
	Name: "doccomment",
	Doc:  "flag packages without a package doc comment",
	Run:  runDocComment,
}

func runDocComment(p *Pass) error {
	for _, f := range p.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return nil
		}
	}
	// Report at the package clause of the first file (files are loaded in
	// lexical order, so the anchor is deterministic).
	p.Reportf(p.Files[0].Package, "package %s has no package comment", p.Pkg.Name())
	return nil
}
