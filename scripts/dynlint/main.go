// Command dynlint runs the repo's contract analyzers (loancheck,
// detcheck, sortedcheck — see internal/analysis) over package patterns
// and exits non-zero when any contract is violated:
//
//	go run ./scripts/dynlint ./...
//
// Findings print as path:line:col: analyzer: message, each tagged with
// the prose contract it defends. Exit status: 0 clean, 1 findings,
// 2 operational error. docs/linting.md has the annotation grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"

	"dynlocal/internal/analysis"
	"dynlocal/internal/analysis/framework"
)

func main() {
	version := flag.Bool("version", false, "print the dynlint build version and exit")
	flag.Usage = usage
	flag.Parse()
	if *version {
		fmt.Println(buildVersion())
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := framework.NewLoader(".")
	prog, err := loader.Load(patterns, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynlint:", err)
		os.Exit(2)
	}
	findings, err := framework.RunAnalyzers(prog, analysis.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dynlint: %d contract violation(s)\n", len(findings))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: dynlint [-version] [package patterns]\n\nAnalyzers:\n")
	for _, a := range analysis.Suite() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprint(os.Stderr, "\nSuppress one finding with `//dynlint:ignore <check> <reason>` on (or above)\nthe flagged line; see docs/linting.md.\n")
}

// buildVersion reports the module version plus the VCS revision when the
// binary was built with stamping (plain `go run` usually is not; the
// Makefile and scripts/bench.sh record `git rev-parse` alongside).
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dynlint (no build info)"
	}
	out := "dynlint " + bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev := s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			out += " " + rev
		case "vcs.modified":
			if s.Value == "true" {
				out += "+dirty"
			}
		}
	}
	return out
}
