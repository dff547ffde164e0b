// Package symhot enforces the PR-2 allocation invariant on hot packages:
// record labels are interned process-wide (record.Sym), and the runtime's
// hot paths were made allocation-free by keying every record access on
// symbols instead of strings. A string-keyed accessor on a hot path
// quietly reintroduces per-record work — the binary-search-by-name walk,
// and for dynamic label names an interning map hit — that the BENCH
// trajectories assume gone.
//
// A package opts into enforcement with a `//snet:hot` marker comment in
// any of its files (by convention next to the package clause). In a hot
// package, calls to the string-keyed record.Record accessors (SetField,
// Field, Tag, MustTag, HasField, DeleteBTag, ...) are flagged, steering
// the code to the Sym-keyed forms (SetFieldSym, FieldSym, ...) with the
// label interned once at construction time. Deliberately string-keyed
// sites — a cold error path, a convenience wrapper for cold boxes — carry
// a `//lint:reason`.
package symhot

import (
	"go/ast"
	"strings"

	"snet/internal/analysis/framework"
)

// hotMarker is the package-level opt-in comment.
const hotMarker = "//snet:hot"

// recordPath is the package whose accessor surface the analyzer guards.
const recordPath = "snet/internal/record"

// stringKeyed maps each string-keyed accessor to its Sym-keyed
// replacement.
var stringKeyed = map[string]string{
	"SetField":    "SetFieldSym",
	"SetTag":      "SetTagSym",
	"SetBTag":     "SetBTagSym",
	"Field":       "FieldSym",
	"Tag":         "TagSym",
	"BTag":        "BTagSym",
	"MustField":   "FieldSym",
	"MustTag":     "TagSym",
	"HasField":    "HasFieldSym",
	"HasTag":      "HasTagSym",
	"HasBTag":     "HasBTagSym",
	"DeleteField": "DeleteFieldSym",
	"DeleteTag":   "DeleteTagSym",
	"DeleteBTag":  "DeleteBTagSym",
}

// Analyzer is the symhot pass.
var Analyzer = &framework.Analyzer{
	Name: "symhot",
	Doc: "packages marked //snet:hot must use the interned-Sym record accessors; " +
		"string-keyed lookups reintroduce per-record costs the zero-alloc benchmarks assume gone",
	Run: run,
}

func run(pass *framework.Pass) error {
	hot := false
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, hotMarker) {
					hot = true
				}
			}
		}
	}
	if !hot {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := framework.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			symForm, ok := stringKeyed[sel.Sel.Name]
			if !ok {
				return true
			}
			pkgPath, typeName, ok := pass.NamedRecv(sel)
			if !ok || typeName != "Record" || pkgPath != recordPath {
				return true
			}
			if pass.Allowed(call) {
				return true
			}
			pass.Reportf(call.Pos(), "string-keyed record.Record.%s in a //snet:hot package: "+
				"intern the label once and use %s", sel.Sel.Name, symForm)
			return true
		})
	}
	return nil
}
