// Package framework is a minimal, dependency-free substitute for the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer is a named check
// with a Run function, a Pass hands it one type-checked package, and
// diagnostics are (position, message) pairs. It exists because the repo
// must build from a clean checkout without network access — the real
// x/tools module cannot be assumed present — so the dynlint analyzers
// (loancheck, detcheck, sortedcheck) are written against this shim
// instead. The shapes mirror go/analysis on purpose: if x/tools becomes
// available, porting an analyzer is a mechanical rename.
//
// Beyond the x/tools shapes, the framework adds the one thing the dynlint
// suite needs that go/analysis provides via Facts: a whole-program
// Annotations table (annotations.go) collected from //dynlint:* directive
// comments before any analyzer runs, so an analyzer inspecting package
// verify can ask about a field declared in package engine.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dynlint:ignore directives.
	Name string
	// Doc is a one-paragraph description, shown by scripts/dynlint -help.
	Doc string
	// Contract names the prose contract the analyzer enforces, appended
	// to every diagnostic so a build break points back at the rule it
	// defends (e.g. "ARCHITECTURE.md buffer-ownership").
	Contract string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package into an Analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, including _test.go files when
	// the package was loaded with tests.
	Files []*ast.File
	// Pkg and TypesInfo are the package's type information. PkgPath is
	// the import path the package was loaded under.
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info
	// Annotations is the whole-program //dynlint:* directive table.
	Annotations *Annotations
	// TestFile reports whether the file containing pos is a _test.go
	// file (detcheck exempts those).
	TestFile func(pos token.Pos) bool
	// Report records one diagnostic.
	Report func(Diagnostic)
}

// Reportf formats and records one diagnostic, appending the analyzer's
// contract tag.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if c := p.Analyzer.Contract; c != "" {
		msg += " [contract: " + c + "]"
	}
	p.Report(Diagnostic{Pos: pos, Message: msg})
}

// IsTestFilename reports whether name is a Go test file name.
func IsTestFilename(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}
