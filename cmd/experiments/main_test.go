package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Smoke test: drive the CLI run path on the cheapest experiment with quick
// sweeps and check the report shape.
func TestRunSingleExperimentQuick(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-run", "E13"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"=== E13", "adaptive-offline", "2-oblivious"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFilterMatchesNothing(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E99"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "===") {
		t.Fatalf("filter E99 should run nothing, got:\n%s", out.String())
	}
}

var updateTables = flag.Bool("update", false, "rewrite testdata/quick_tables.golden")

// timingLine matches the per-experiment wall-clock line, the only
// nondeterministic part of a report.
var timingLine = regexp.MustCompile(`(?m)^    \(\d+\.\d+s\)\n`)

// TestQuickTablesGolden pins the -quick tables of E01–E14 byte for byte
// (timing lines removed), so any change to an adversary, algorithm or
// checker that moves an experiment result shows up as a diff. E15 only
// reports timings and stays out.
func TestQuickTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick experiment")
	}
	var out strings.Builder
	for i := 1; i <= 14; i++ {
		if err := run([]string{"-quick", "-run", fmt.Sprintf("E%02d", i)}, &out); err != nil {
			t.Fatal(err)
		}
	}
	got := timingLine.ReplaceAllString(out.String(), "")
	path := filepath.Join("testdata", "quick_tables.golden")
	if *updateTables {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("quick tables differ from %s (rerun with -update only for an intended change):\n%s", path, got)
	}
}
