// Package contract holds the shared vocabulary of the freelunchvet
// analyzers: which packages are bound by the determinism contract, the
// //freelunch:* annotation and waiver directives, and small AST helpers the
// analyzers have in common.
//
// # Directives
//
// Directives are line comments beginning with "//freelunch:" (no space —
// the Go directive convention, so gofmt leaves them alone). Two kinds
// exist:
//
//   - Annotations opt a declaration into a contract. //freelunch:noalloc on
//     a function's doc comment asks the noallocpath analyzer to check its
//     body for allocating constructs.
//
//   - Waivers suppress one finding with a recorded justification:
//     //freelunch:orderok, //freelunch:clockok, //freelunch:allocok,
//     //freelunch:observerok, //freelunch:retainok. A waiver applies to
//     findings on its own line (end-of-line comment) or on the line
//     directly below (standalone comment line). The justification text
//     after the directive is mandatory: a bare waiver is itself reported,
//     so every suppressed finding carries its reason in the source.
package contract

import (
	"go/ast"
	"go/token"
	"strings"
)

// DeterministicPackages are the import paths bound by the full determinism
// contract (maporder, nowallclock): packages whose outputs are pinned by
// golden files and must be bit-identical functions of (graph, seed,
// options). Other packages (cmd/*, internal/serve, internal/stats, ...)
// are serving or reporting layers where wall-clock and map order are
// legitimate.
var DeterministicPackages = map[string]bool{
	"repro/internal/graph":         true,
	"repro/internal/graph/gen":     true,
	"repro/internal/local":         true,
	"repro/internal/broadcast":     true,
	"repro/internal/simulate":      true,
	"repro/internal/spanner":       true,
	"repro/internal/globalcompute": true,
	"repro/internal/adversary":     true,
	"repro/internal/core":          true,
}

// Deterministic reports whether the package at path is bound by the
// determinism contract. Test fixtures mirror the real import paths under
// their testdata/src roots, so exact matching works for both.
func Deterministic(path string) bool { return DeterministicPackages[path] }

// IsTestFile reports whether the file at pos is a _test.go file. The
// determinism contract binds production simulation code; tests assert
// determinism by comparing outputs and routinely iterate maps in asserts.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Directive is one parsed //freelunch:* comment.
type Directive struct {
	// Kind is the word after the colon: "noalloc", "orderok", ...
	Kind string
	// Reason is the justification text after the kind (may be empty —
	// analyzers report empty reasons on waivers).
	Reason string
	// Pos is the comment's position.
	Pos token.Pos
}

// prefix is the directive marker. The no-space form follows the Go
// compiler-directive convention (//go:, //lint:), which gofmt preserves.
const prefix = "//freelunch:"

// ParseDirective parses one comment; ok is false for non-directives.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, prefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, prefix)
	kind, reason, _ := strings.Cut(rest, " ")
	kind = strings.TrimSpace(kind)
	if kind == "" {
		return Directive{}, false
	}
	return Directive{Kind: kind, Reason: strings.TrimSpace(reason), Pos: c.Slash}, true
}

// Waivers indexes a file's directives by line for fast waiver lookup.
type Waivers struct {
	fset   *token.FileSet
	byLine map[int][]Directive
}

// FileWaivers collects every directive in f.
func FileWaivers(fset *token.FileSet, f *ast.File) *Waivers {
	w := &Waivers{fset: fset, byLine: make(map[int][]Directive)}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := ParseDirective(c); ok {
				line := fset.Position(c.Slash).Line
				w.byLine[line] = append(w.byLine[line], d)
			}
		}
	}
	return w
}

// At returns the directive of the given kind covering a finding at pos: on
// the finding's own line (end-of-line comment) or the line directly above
// (standalone comment). ok is false when the finding is not waived.
func (w *Waivers) At(pos token.Pos, kind string) (Directive, bool) {
	line := w.fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		for _, d := range w.byLine[l] {
			if d.Kind == kind {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// FuncAnnotated reports whether a function declaration's doc comment
// carries the given annotation directive (e.g. "noalloc").
func FuncAnnotated(decl *ast.FuncDecl, kind string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if d, ok := ParseDirective(c); ok && d.Kind == kind {
			return true
		}
	}
	return false
}
