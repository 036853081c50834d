// Package faultinject is the crash harness pinning the checkpoint/resume
// plane: it kills simulated runs at arbitrary round barriers (and mid-
// checkpoint, via failing writers), restores fresh processes from the
// surviving bytes and proves the resumed run is bit-identical to an
// uninterrupted one — outputs, accounting, RoundInfo deltas and
// T-dynamic verdicts, across adversaries, algorithms and worker counts.
// Every checkpoint is a chain of records written by Engine.WriteRecord,
// the production record path: a one-record chain written at the crash
// round (VerifyResume) and every prefix of the incremental base+delta
// chain (VerifyResumeChain).
//
// The package is a library of error-returning drivers so the same
// scenarios run under `go test -race` locally and as the crash-resume
// equivalence job in CI; the tests in this package supply the matrix.
package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"

	"dynlocal/internal/adversary"
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
)

// ErrInjected is the failure a FaultWriter injects once its byte budget
// is exhausted, standing in for ENOSPC or a power cut mid-write.
var ErrInjected = errors.New("faultinject: injected write failure")

// FaultWriter passes through to W until Limit bytes have been written,
// then fails every subsequent write. The write crossing the limit is a
// short write: the prefix up to the limit reaches W — exactly the torn
// state a crash leaves on disk.
type FaultWriter struct {
	W     io.Writer
	Limit int
	n     int
}

// Written returns how many bytes reached the underlying writer.
func (f *FaultWriter) Written() int { return f.n }

func (f *FaultWriter) Write(p []byte) (int, error) {
	if f.n >= f.Limit {
		return 0, ErrInjected
	}
	if f.n+len(p) > f.Limit {
		k, err := f.W.Write(p[:f.Limit-f.n])
		f.n += k
		if err != nil {
			return k, err
		}
		return k, ErrInjected
	}
	k, err := f.W.Write(p)
	f.n += k
	return k, err
}

// Scenario describes one crash-resume equivalence experiment: a full run
// of Rounds rounds, checkpointed at every round in Crashpoints, each
// checkpoint then resumed in a fresh process image and replayed to the
// end under possibly different worker counts.
type Scenario struct {
	Name   string
	N      int
	Rounds int
	Seed   uint64
	// Workers is the reference run's parallelism.
	Workers int
	// NewAlgo builds a fresh algorithm instance (reference and every
	// resume get their own — a real restart constructs from scratch).
	NewAlgo func(n int) *core.Concat
	// Problem is the packing/covering decomposition the checker verifies.
	Problem problems.PC
	// NewAdv builds a fresh configured adversary; mutable state is
	// carried by the checkpoint, not the constructor.
	NewAdv func() adversary.Adversary
	// Crashpoints are the rounds to checkpoint at (0 < k < Rounds).
	Crashpoints []int
	// Input is the optional per-node input vector.
	Input []problems.Value
}

func (s Scenario) config(workers int) engine.Config {
	return engine.Config{N: s.N, Seed: s.Seed, Workers: workers, Input: s.Input}
}

// Record is one round of observable behavior: the retained RoundInfo
// (outputs, wake, output/topology deltas, message/bit accounting) and
// the checker's verdict for the round.
type Record struct {
	Info   *engine.RoundInfo
	Report verify.TDynamicReport
}

// Reference is an uninterrupted run's full observable history plus the
// checkpoint bytes taken at each crashpoint — both as one-record chains
// and as the growing incremental chain.
type Reference struct {
	Records []Record // Records[r-1] describes round r
	// Checkpoints[k] holds a one-record chain — magic plus one base
	// record — written at round k.
	Checkpoints map[int][]byte
	// ChainPrefixes[k] holds the incremental chain bytes — magic, full
	// base record, then one delta per earlier crashpoint — up to and
	// including the record taken at round k: exactly the file a crash
	// right after that record's fsync leaves behind.
	ChainPrefixes map[int][]byte
	Totals        [5]int64
}

func copyReport(r verify.TDynamicReport) verify.TDynamicReport {
	r.PackingViolations = slices.Clone(r.PackingViolations)
	r.CoverViolations = slices.Clone(r.CoverViolations)
	return r
}

func totals(c *verify.TDynamic) [5]int64 {
	rounds, invalid, packing, cover, bot := c.Totals()
	return [5]int64{int64(rounds), int64(invalid), int64(packing), int64(cover), int64(bot)}
}

// newRun builds a fresh engine and checker for the scenario — what a
// restarted process constructs before restoring.
func (s Scenario) newRun(workers int) (*engine.Engine, *verify.TDynamic) {
	algo := s.NewAlgo(s.N)
	return engine.New(s.config(workers), s.NewAdv(), algo), verify.NewTDynamic(s.Problem, algo.T1, s.N)
}

// RunReference plays the uninterrupted run, recording every round and
// checkpointing at each crashpoint through the production record path
// (Engine.WriteRecord with the checker as chain part): one record of the
// incremental chain (the base at the first crashpoint, deltas after), so
// every chain position has its crash-surviving prefix, and a one-record
// chain. Noting a base restarts a chain, so the one-record chains come
// from a second, identical run in lockstep.
func RunReference(s Scenario) (*Reference, error) {
	e, chk := s.newRun(s.Workers)
	be, bchk := s.newRun(s.Workers)
	ref := &Reference{Checkpoints: make(map[int][]byte), ChainPrefixes: make(map[int][]byte)}
	e.OnRound(func(info *engine.RoundInfo) {
		rep := copyReport(chk.Feed(info.Delta()))
		ref.Records = append(ref.Records, Record{Info: info.Retain(), Report: rep})
	})
	be.OnRound(func(info *engine.RoundInfo) { bchk.Feed(info.Delta()) })
	var chain bytes.Buffer
	for r := 1; r <= s.Rounds; r++ {
		e.Step()
		be.Step()
		if slices.Contains(s.Crashpoints, r) {
			var one bytes.Buffer
			if err := be.WriteRecord(&one, true, bchk); err != nil {
				return nil, fmt.Errorf("checkpoint at round %d: %w", r, err)
			}
			ref.Checkpoints[r] = one.Bytes()
			if err := e.WriteRecord(&chain, len(ref.ChainPrefixes) == 0, chk); err != nil {
				return nil, fmt.Errorf("chain record at round %d: %w", r, err)
			}
			ref.ChainPrefixes[r] = slices.Clone(chain.Bytes())
		}
	}
	ref.Totals = totals(chk)
	return ref, nil
}

// VerifyResume simulates the crash at round k: a fresh engine, checker
// and adversary are restored from the one-record chain the dying run
// left behind, replayed to the end under the given worker count, and
// every observable of every remaining round is compared bit-identically
// against the uninterrupted reference.
func VerifyResume(s Scenario, ref *Reference, k, workers int) error {
	return resume(s, ref, ref.Checkpoints[k], k, workers)
}

// VerifyResumeChain simulates the crash that leaves only the incremental
// chain prefix ending at round k on disk: a fresh engine, checker and
// adversary replay the whole prefix — the base plus every delta up to k
// — through the chain reader, then play to the end under the given
// worker count, compared bit-identically against the reference.
func VerifyResumeChain(s Scenario, ref *Reference, k, workers int) error {
	return resume(s, ref, ref.ChainPrefixes[k], k, workers)
}

// resume restores chain bytes into a fresh run and replays it against
// the reference.
func resume(s Scenario, ref *Reference, chain []byte, k, workers int) error {
	if chain == nil {
		return fmt.Errorf("no checkpoint at round %d", k)
	}
	e, chk := s.newRun(workers)
	if err := e.ReadChain(bytes.NewReader(chain), nil, chk); err != nil {
		return fmt.Errorf("restore at round %d: %w", k, err)
	}
	return replayCompare(s, ref, e, chk, k)
}

// replayCompare plays a restored run to the end, comparing every
// remaining round's observables and the final checker totals against the
// uninterrupted reference.
func replayCompare(s Scenario, ref *Reference, e *engine.Engine, chk *verify.TDynamic, k int) error {
	if e.Round() != k {
		return fmt.Errorf("restored engine at round %d, want %d", e.Round(), k)
	}
	var fail error
	e.OnRound(func(info *engine.RoundInfo) {
		if fail != nil {
			return
		}
		rep := copyReport(chk.Feed(info.Delta()))
		want := ref.Records[info.Round-1]
		if err := compareRound(want, Record{Info: info, Report: rep}); err != nil {
			fail = fmt.Errorf("resume at %d, round %d: %w", k, info.Round, err)
		}
	})
	for e.Round() < s.Rounds {
		e.Step()
		if fail != nil {
			return fail
		}
	}
	if got := totals(chk); got != ref.Totals {
		return fmt.Errorf("resume at %d: checker totals %v, want %v", k, got, ref.Totals)
	}
	return nil
}

// compareRound checks every observable of a round: the full delta plane,
// the accounting and the T-dynamic verdict.
func compareRound(want, got Record) error {
	wi, gi := want.Info, got.Info
	switch {
	case !slices.Equal(wi.Wake, gi.Wake):
		return fmt.Errorf("wake sets diverge: %v vs %v", wi.Wake, gi.Wake)
	case !slices.Equal(wi.Outputs, gi.Outputs):
		return errors.New("output snapshots diverge")
	case !slices.Equal(wi.Changed, gi.Changed):
		return fmt.Errorf("changed sets diverge: %v vs %v", wi.Changed, gi.Changed)
	case !slices.Equal(wi.EdgeAdds, gi.EdgeAdds):
		return errors.New("edge adds diverge")
	case !slices.Equal(wi.EdgeRemoves, gi.EdgeRemoves):
		return errors.New("edge removes diverge")
	case wi.Messages != gi.Messages:
		return fmt.Errorf("message accounting diverges: %d vs %d", wi.Messages, gi.Messages)
	case wi.Bits != gi.Bits:
		return fmt.Errorf("bit accounting diverges: %d vs %d", wi.Bits, gi.Bits)
	case !reflect.DeepEqual(want.Report, got.Report):
		return fmt.Errorf("T-dynamic verdicts diverge:\nwant %+v\ngot  %+v", want.Report, got.Report)
	}
	return nil
}
