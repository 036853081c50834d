package main

import (
	"errors"
	"os"
	"strings"
	"testing"

	"dynlocal/internal/engine"
)

// Smoke tests drive the full CLI run path on tiny configurations.

func TestRunCombinedMISUnderChurn(t *testing.T) {
	var out strings.Builder
	invalid, strict, err := run([]string{
		"-problem", "mis", "-algo", "combined", "-adversary", "churn",
		"-n", "64", "-rounds", "60", "-churn", "2", "-every", "20",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strict {
		t.Fatal("combined algorithm must be strict about invalid rounds")
	}
	if invalid != 0 {
		t.Fatalf("combined MIS produced %d invalid rounds:\n%s", invalid, out.String())
	}
	if !strings.Contains(out.String(), "mis / combined / churn") {
		t.Fatalf("missing header in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "invalid rounds: 0 / 60") {
		t.Fatalf("missing verdict in output:\n%s", out.String())
	}
}

func TestRunColoringCSV(t *testing.T) {
	var out strings.Builder
	_, strict, err := run([]string{
		"-problem", "coloring", "-algo", "greedy", "-adversary", "static",
		"-n", "32", "-rounds", "10", "-csv",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if strict {
		t.Fatal("greedy baseline must not be strict")
	}
	if !strings.Contains(out.String(), "round,outputs,core") {
		t.Fatalf("missing CSV header:\n%s", out.String())
	}
}

// TestRunRecordAndReplayTrace drives the full record→replay loop: a p2p
// churn run recorded to a trace file, then replayed through the
// streaming decoder, must report the identical verdict (the trace fully
// determines topology and wake-ups, and engine randomness is seeded).
func TestRunRecordAndReplayTrace(t *testing.T) {
	trace := t.TempDir() + "/run.trace"
	var recOut strings.Builder
	recInvalid, _, err := run([]string{
		"-problem", "mis", "-algo", "combined", "-adversary", "p2p",
		"-n", "128", "-rounds", "40", "-churn", "2", "-every", "20",
		"-record", trace,
	}, &recOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(recOut.String(), "mis / combined / p2p") {
		t.Fatalf("missing header in record output:\n%s", recOut.String())
	}

	var repOut strings.Builder
	repInvalid, _, err := run([]string{
		"-problem", "mis", "-algo", "combined", "-trace", trace, "-every", "20",
	}, &repOut)
	if err != nil {
		t.Fatal(err)
	}
	if repInvalid != recInvalid {
		t.Fatalf("replay reported %d invalid rounds, recording %d", repInvalid, recInvalid)
	}
	if !strings.Contains(repOut.String(), "mis / combined / trace: n=128") {
		t.Fatalf("replay header did not pick up the trace universe:\n%s", repOut.String())
	}
	if !strings.Contains(repOut.String(), "invalid rounds: ") {
		t.Fatalf("missing verdict in replay output:\n%s", repOut.String())
	}
}

// TestRunCheckpointResume checkpoints a run mid-way with -checkpoint-every,
// resumes from the final checkpoint with a fresh process image, and
// checks the resumed segment completes with the same zero-invalid
// verdict. The full bit-identity of resumed runs is pinned by
// internal/faultinject; here we exercise the CLI plumbing.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ck := dir + "/run.ck"
	common := []string{
		"-problem", "mis", "-algo", "combined", "-adversary", "churn",
		"-n", "64", "-churn", "2", "-every", "20",
	}
	var out strings.Builder
	invalid, _, err := run(append(common, "-rounds", "40", "-checkpoint", ck, "-checkpoint-every", "15"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if invalid != 0 {
		t.Fatalf("reference run produced %d invalid rounds:\n%s", invalid, out.String())
	}

	// The final checkpoint is at round 40; extend the run beyond it.
	var resumed strings.Builder
	invalid, _, err = run(append(common, "-rounds", "60", "-resume", ck), &resumed)
	if err != nil {
		t.Fatal(err)
	}
	if invalid != 0 {
		t.Fatalf("resumed run produced %d invalid rounds:\n%s", invalid, resumed.String())
	}
	if !strings.Contains(resumed.String(), "(resumed at round 40)") {
		t.Fatalf("missing resume marker:\n%s", resumed.String())
	}
	if !strings.Contains(resumed.String(), "invalid rounds: 0 / 20") {
		t.Fatalf("resumed verdict should cover the 20-round tail:\n%s", resumed.String())
	}

	// A mismatched reconstruction must be rejected by the header.
	if _, _, err := run([]string{
		"-problem", "mis", "-algo", "combined", "-adversary", "churn",
		"-n", "128", "-churn", "2", "-rounds", "60", "-resume", ck,
	}, &strings.Builder{}); err == nil {
		t.Fatal("resume with a different -n succeeded")
	}
	// Resuming at or past -rounds has nothing to play.
	if _, _, err := run(append(common, "-rounds", "40", "-resume", ck), &strings.Builder{}); err == nil {
		t.Fatal("resume at -rounds succeeded")
	}
}

// TestRunCheckpointChain drives the incremental-chain CLI surface:
// -checkpoint-every writes a chain container (it opens with the magic),
// -checkpoint-full-every rebases it, a resume that names the same file
// as its checkpoint target keeps appending to the restored chain, and
// the extended chain resumes again.
func TestRunCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	ck := dir + "/run.ck"
	common := []string{
		"-problem", "mis", "-algo", "combined", "-adversary", "churn",
		"-n", "64", "-churn", "2", "-every", "20",
	}
	var out strings.Builder
	invalid, _, err := run(append(common,
		"-rounds", "40", "-checkpoint", ck, "-checkpoint-every", "6", "-checkpoint-full-every", "3"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if invalid != 0 {
		t.Fatalf("reference run produced %d invalid rounds:\n%s", invalid, out.String())
	}
	head, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) == 0 || head[0] != 'D' {
		t.Fatalf("-checkpoint-every did not produce a chain container (first byte %#x)", head[0])
	}

	// Resume with the same file as the checkpoint target: the run must
	// keep appending deltas to the restored chain.
	var resumed strings.Builder
	invalid, _, err = run(append(common,
		"-rounds", "52", "-resume", ck, "-checkpoint", ck, "-checkpoint-every", "6"), &resumed)
	if err != nil {
		t.Fatal(err)
	}
	if invalid != 0 {
		t.Fatalf("resumed run produced %d invalid rounds:\n%s", invalid, resumed.String())
	}
	if !strings.Contains(resumed.String(), "(resumed at round 40)") {
		t.Fatalf("missing resume marker:\n%s", resumed.String())
	}

	// The extended chain (old records + newly appended deltas) resumes.
	var again strings.Builder
	if _, _, err := run(append(common, "-rounds", "60", "-resume", ck), &again); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(again.String(), "(resumed at round 52)") {
		t.Fatalf("extended chain should resume at round 52:\n%s", again.String())
	}
}

// TestRunResumeRefusesRetiredFormat resumes from the chain fixture the
// retired record format wrote: the run must fail before any round plays,
// with the typed retired-format error.
func TestRunResumeRefusesRetiredFormat(t *testing.T) {
	var out strings.Builder
	_, _, err := run([]string{
		"-problem", "mis", "-algo", "combined", "-adversary", "churn",
		"-n", "128", "-rounds", "30", "-resume", "../../testdata/chain_v1_mis_n128.golden",
	}, &out)
	if !errors.Is(err, engine.ErrRetiredFormat) {
		t.Fatalf("resume from a retired-format chain: err = %v, want ErrRetiredFormat", err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused resume printed output:\n%s", out.String())
	}
}

func TestRunCheckpointFullEveryRequiresEvery(t *testing.T) {
	if _, _, err := run([]string{
		"-checkpoint", "x.ck", "-checkpoint-full-every", "3", "-n", "16", "-rounds", "2",
	}, &strings.Builder{}); err == nil {
		t.Fatal("-checkpoint-full-every without -checkpoint-every succeeded")
	}
}

// TestRunRecoverTornTrace tears a recording mid-round and drives the
// -recover path: the salvaged trace must replay cleanly with the round
// count the tear left intact.
func TestRunRecoverTornTrace(t *testing.T) {
	dir := t.TempDir()
	trace := dir + "/run.trace"
	if _, _, err := run([]string{
		"-problem", "mis", "-algo", "combined", "-adversary", "churn",
		"-n", "48", "-rounds", "30", "-churn", "2", "-record", trace,
	}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	torn := dir + "/torn.trace"
	if err := os.WriteFile(torn, whole[:len(whole)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	salvaged := dir + "/salvaged.trace"
	var out strings.Builder
	if _, _, err := run([]string{"-recover", torn, "-record", salvaged}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recovered 29 complete rounds") {
		t.Fatalf("unexpected recovery report:\n%s", out.String())
	}
	var rep strings.Builder
	if _, _, err := run([]string{"-trace", salvaged, "-every", "10"}, &rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "invalid rounds: ") {
		t.Fatalf("salvaged trace did not replay:\n%s", rep.String())
	}
	// -recover without a destination is an error.
	if _, _, err := run([]string{"-recover", torn}, &strings.Builder{}); err == nil {
		t.Fatal("-recover without -record succeeded")
	}
}

func TestRunCheckpointEveryRequiresPath(t *testing.T) {
	if _, _, err := run([]string{"-checkpoint-every", "5", "-n", "16", "-rounds", "2"}, &strings.Builder{}); err == nil {
		t.Fatal("-checkpoint-every without -checkpoint succeeded")
	}
}

func TestRunRejectsMissingTraceFile(t *testing.T) {
	if _, _, err := run([]string{"-trace", "/nonexistent/x.trace"}, &strings.Builder{}); err == nil {
		t.Fatal("expected error for missing trace file")
	}
}

func TestRunRejectsUnknownFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-problem", "nosuch"},
		{"-problem", "mis", "-algo", "nosuch", "-n", "16", "-rounds", "1"},
		{"-adversary", "nosuch", "-n", "16", "-rounds", "1"},
	} {
		if _, _, err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
