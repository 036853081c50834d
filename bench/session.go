package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"dynlocal"
	"dynlocal/internal/verify"
)

// sessionKind is how one session runs: its worker count (0 = the engine
// default of GOMAXPROCS) and whether the layer wrappers are installed.
type sessionKind struct {
	Workers int
	Traced  bool
}

// session is what one fresh run of a workload measured and checked. A
// session runs in a child process and reports itself as JSON.
type session struct {
	Kind        sessionKind
	Setup, Wall time.Duration
	RoundMs     []float64 // Step plus observers, one per live round
	Rounds      int
	AllocBytes  float64 // heap bytes allocated by the live loop
	AllocObjs   float64
	GCCPU       float64       // runtime GC CPU-seconds during the live loop
	Loop        time.Duration // wall time of the live loop
	PeakRSSMB   float64       // the session process's peak resident set

	Ops, Failed int
	Errs        []string
	Digest      uint64

	TraceBytes int
	DecodeMs   []float64 // one per decode pass over the recorded trace

	FullMs, DeltaMs, DeltaKB []float64
	ResumeMs                 float64
	RestoreAllocs            float64
	Records                  int

	Messages, Changed, Awake, EdgeChanges, Wakes int64
	Violations, CoreNodes                        int64

	Lay *layerSamples // traced sessions only
}

// layerSamples are a traced session's per-round layer times (ms) and
// whole-session totals.
type layerSamples struct {
	Adv, Self, Bcast, Proc, Feed, Encode, Harness []float64
	NewNodeMs                                     float64
	NodeCalls, IdleCalls                          int64
}

func (s *session) fail(format string, args ...any) {
	s.Failed++
	s.Errs = append(s.Errs, fmt.Sprintf(format, args...))
}

var crcTab = crc64.MakeTable(crc64.ECMA)

// hasher folds simulated statistics into a CRC-64 through a reused
// scratch buffer, so hashing a round allocates nothing.
type hasher struct {
	buf []byte
	sum uint64
}

func (h *hasher) u64(x uint64) { h.buf = binary.LittleEndian.AppendUint64(h.buf, x) }

func (h *hasher) ids(xs []dynlocal.NodeID) {
	h.u64(uint64(len(xs)))
	for _, x := range xs {
		h.u64(uint64(x))
	}
}

func (h *hasher) keys(xs []dynlocal.EdgeKey) {
	h.u64(uint64(len(xs)))
	for _, x := range xs {
		h.u64(uint64(x))
	}
}

// flush folds the scratch buffer into the running sum and returns the
// CRC of just the flushed bytes.
func (h *hasher) flush() uint64 {
	part := crc64.Checksum(h.buf, crcTab)
	h.sum = crc64.Update(h.sum, crcTab, h.buf)
	h.buf = h.buf[:0]
	return part
}

// simHash is a round's simulated statistics: its topology diff, wake
// set, message and bit counts and output changes with their new values.
// A resumed or replayed run must reproduce it exactly.
func simHash(h *hasher, info *dynlocal.RoundInfo) (topo, sim uint64) {
	h.u64(uint64(info.Round))
	h.ids(info.Wake)
	h.keys(info.EdgeAdds)
	h.keys(info.EdgeRemoves)
	topo = h.flush()
	h.u64(uint64(info.Messages))
	h.u64(uint64(info.Bits))
	h.u64(uint64(len(info.Changed)))
	for _, v := range info.Changed {
		h.u64(uint64(v))
		h.u64(uint64(info.Outputs[v]))
	}
	return topo, h.flush()
}

// Runtime counters sampled around a session.
var metricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

type rtSample [3]float64

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var out rtSample
	for i, m := range ms {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = m.Value.Float64()
		}
	}
	return out
}

// runSession builds a fresh run of w from seed, plays its live rounds
// with the T-dynamic checker and a trace recorder attached, checks the
// trace (and, for checkpointing workloads, a chain resume and a trace
// replay) against the live run, and returns everything it measured.
func runSession(w *workload, seed uint64, k sessionKind) *session {
	s := &session{Kind: k, Rounds: w.Rounds}
	start := time.Now()

	adv := w.newAdversary(seed)
	algo, prob, window := w.newAlgo(w.N)
	var lay *layers
	if k.Traced {
		lay = &layers{}
		s.Lay = &layerSamples{}
		adv = wrapAdversary(adv, lay)
		algo = wrapAlgorithm(algo, lay)
	}
	cfg := dynlocal.EngineConfig{N: w.N, Seed: mix(seed, 3), Workers: k.Workers}
	e := dynlocal.NewEngine(cfg, adv, algo)
	chk := dynlocal.NewTDynamicChecker(prob, window, w.N)
	var trace bytes.Buffer
	enc, err := dynlocal.NewTraceStreamEncoder(&trace, w.N, w.Rounds)
	if err != nil {
		s.fail("trace encoder: %v", err)
		return s
	}
	s.Setup = time.Since(start)

	var h, dh hasher
	topo := make([]uint64, w.Rounds+1)
	sim := make([]uint64, w.Rounds+1)
	var rep verify.TDynamicReport
	var encErr error
	var feedD, encD, obsD time.Duration
	e.OnRound(func(info *dynlocal.RoundInfo) {
		var t0, t1, t2 time.Time
		if lay != nil {
			t0 = time.Now()
		}
		rep = chk.Feed(info.Delta())
		if lay != nil {
			t1 = time.Now()
		}
		if err := enc.WriteRound(info.Wake, info.EdgeAdds, info.EdgeRemoves); err != nil && encErr == nil {
			encErr = err
		}
		if lay != nil {
			t2 = time.Now()
		}
		topo[info.Round], sim[info.Round] = simHash(&h, info)
		h.u64(uint64(rep.CoreNodes))
		h.u64(uint64(rep.BotCore))
		h.u64(uint64(len(rep.PackingViolations)))
		h.u64(uint64(len(rep.CoverViolations)))
		h.flush()
		if lay != nil {
			feedD, encD, obsD = t1.Sub(t0), t2.Sub(t1), time.Since(t0)
		}
	})

	var chain bytes.Buffer
	chainRound := 0
	rtLoop := readRuntime()
	loopStart := time.Now()
	for r := 1; r <= w.Rounds; r++ {
		if lay != nil {
			lay.resetRound()
		}
		t0 := time.Now()
		info := e.Step()
		d := time.Since(t0)
		s.RoundMs = append(s.RoundMs, ms(d))
		s.Messages += int64(info.Messages)
		s.Changed += int64(len(info.Changed))
		s.EdgeChanges += int64(len(info.EdgeAdds) + len(info.EdgeRemoves))
		s.Wakes += int64(len(info.Wake))
		if w.Combined {
			s.Ops++
			if !rep.Valid() {
				s.fail("round %d: T-dynamic check failed", r)
			}
		}
		if lay != nil {
			ls := s.Lay
			ls.Adv = append(ls.Adv, ms(lay.adv))
			ls.Bcast = append(ls.Bcast, ms(lay.bcast))
			ls.Proc = append(ls.Proc, ms(lay.proc))
			ls.Feed = append(ls.Feed, ms(feedD))
			ls.Encode = append(ls.Encode, ms(encD))
			ls.Harness = append(ls.Harness, ms(obsD-feedD-encD))
			ls.Self = append(ls.Self, ms(d-lay.adv-lay.algos()-obsD))
			ls.NewNodeMs += ms(lay.newNode)
		}
		if w.CkptEvery > 0 && r%w.CkptEvery == 0 {
			full := s.Records%w.FullEvery == 0
			if full {
				chain.Reset()
			}
			mark := chain.Len()
			t0 := time.Now()
			var err error
			if full {
				err = dynlocal.WriteCheckpointChain(&chain, e, chk)
			} else {
				err = dynlocal.AppendCheckpointDelta(&chain, e, chk)
			}
			d := time.Since(t0)
			s.Ops++
			s.Records++
			if err != nil {
				s.fail("checkpoint record at round %d: %v", r, err)
				continue
			}
			if full {
				s.FullMs = append(s.FullMs, ms(d))
			} else {
				s.DeltaMs = append(s.DeltaMs, ms(d))
				s.DeltaKB = append(s.DeltaKB, float64(chain.Len()-mark)/1024)
			}
			chainRound = r
			dh.buf = append(dh.buf, chain.Bytes()[mark:]...)
			dh.flush()
		}
	}
	s.Loop = time.Since(loopStart)
	rtEnd := readRuntime()
	s.AllocBytes = rtEnd[0] - rtLoop[0]
	s.AllocObjs = rtEnd[1] - rtLoop[1]
	s.GCCPU = rtEnd[2] - rtLoop[2]
	if lay != nil {
		s.Lay.NodeCalls, s.Lay.IdleCalls = lay.nodeCalls, lay.idleCalls
	}
	if err := enc.Close(); err != nil || encErr != nil {
		s.fail("trace recording: %v %v", encErr, err)
	}
	_, _, packing, cover, _ := chk.Totals()
	s.Violations = int64(packing + cover)
	s.CoreNodes = int64(rep.CoreNodes)
	for v := 0; v < w.N; v++ {
		if e.Awake(dynlocal.NodeID(v)) {
			s.Awake++
		}
	}
	final := e.Outputs()
	for _, v := range final {
		h.u64(uint64(v))
	}
	h.flush()
	s.TraceBytes = trace.Len()

	// Each check starts from a collected heap, so a background GC of the
	// live run's garbage does not land in its timings. The forced
	// collections are not part of the session's wall time.
	var paused time.Duration
	collect := func() {
		t0 := time.Now()
		runtime.GC()
		paused += time.Since(t0)
	}
	collect()
	s.checkTrace(trace.Bytes(), topo)
	if w.CkptEvery > 0 {
		collect()
		s.checkResume(w, seed, chain.Bytes(), chainRound, sim, final)
		collect()
		s.checkReplay(w, seed, trace.Bytes(), sim, final)
	}

	s.Wall = time.Since(start) - paused
	s.PeakRSSMB = peakRSSMB()
	s.Digest = h.sum ^ dh.sum ^ uint64(s.TraceBytes)
	return s
}

// minDecode is how long the decode passes over a session's trace run in
// total, so that the decode rate of a small trace is not one timer tick.
const minDecode = 50 * time.Millisecond

// checkTrace decodes the recorded trace, checks every round against the
// live run's topology, and times repeated decode passes.
func (s *session) checkTrace(wire []byte, topo []uint64) {
	s.Ops++
	var total time.Duration
	var h hasher
	for pass := 0; pass == 0 || total < minDecode; pass++ {
		d, err := dynlocal.NewTraceStreamDecoder(bytes.NewReader(wire))
		if err != nil {
			s.fail("trace decode: %v", err)
			return
		}
		var took time.Duration
		for r := 1; ; r++ {
			t0 := time.Now()
			tr, err := d.Next()
			took += time.Since(t0)
			if err == io.EOF {
				if r != len(topo) {
					s.fail("trace decode: %d rounds, want %d", r-1, len(topo)-1)
					return
				}
				break
			}
			if err != nil {
				s.fail("trace decode round %d: %v", r, err)
				return
			}
			if pass == 0 {
				h.u64(uint64(tr.Round))
				h.ids(tr.Wake)
				h.keys(tr.Adds)
				h.keys(tr.Removes)
				if got := h.flush(); r >= len(topo) || got != topo[r] {
					s.fail("trace decode round %d differs from the live run", r)
					return
				}
			}
		}
		total += took
		s.DecodeMs = append(s.DecodeMs, ms(took))
	}
}

// checkResume rebuilds the run, restores the last checkpoint chain into
// it, plays the remaining rounds and compares them with the live run.
func (s *session) checkResume(w *workload, seed uint64, chain []byte, from int, sim []uint64, final []dynlocal.Value) {
	s.Ops++
	if from == 0 {
		s.fail("resume: no checkpoint written")
		return
	}
	before := readRuntime()
	t0 := time.Now()
	algo, prob, window := w.newAlgo(w.N)
	cfg := dynlocal.EngineConfig{N: w.N, Seed: mix(seed, 3), Workers: s.Kind.Workers}
	e := dynlocal.NewEngine(cfg, w.newAdversary(seed), algo)
	chk := dynlocal.NewTDynamicChecker(prob, window, w.N)
	err := dynlocal.ReadCheckpointChain(bytes.NewReader(chain), e, chk, dynlocal.NewRestoreArena())
	s.ResumeMs = ms(time.Since(t0))
	s.RestoreAllocs = readRuntime()[1] - before[1]
	if err != nil {
		s.fail("resume: %v", err)
		return
	}
	if e.Round() != from {
		s.fail("resume: restored round %d, want %d", e.Round(), from)
		return
	}
	if err := replayAgainst(e, func(info *dynlocal.RoundInfo) { chk.Feed(info.Delta()) }, w.Rounds, sim, final); err != nil {
		s.fail("resume: %v", err)
	}
}

// checkReplay runs the algorithm afresh over the recorded trace through
// a streaming scripted adversary and compares every round.
func (s *session) checkReplay(w *workload, seed uint64, wire []byte, sim []uint64, final []dynlocal.Value) {
	s.Ops++
	d, err := dynlocal.NewTraceStreamDecoder(bytes.NewReader(wire))
	if err != nil {
		s.fail("replay: %v", err)
		return
	}
	adv := dynlocal.NewScriptedStream(d)
	algo, _, _ := w.newAlgo(w.N)
	cfg := dynlocal.EngineConfig{N: w.N, Seed: mix(seed, 3), Workers: s.Kind.Workers}
	e := dynlocal.NewEngine(cfg, adv, algo)
	if err := replayAgainst(e, nil, w.Rounds, sim, final); err != nil {
		s.fail("replay: %v", err)
	}
	if err := adv.Err(); err != nil {
		s.fail("replay: trace: %v", err)
	}
}

// replayAgainst steps e up to round last and checks that each round and
// the final outputs match the live run.
func replayAgainst(e *dynlocal.Engine, observe func(*dynlocal.RoundInfo), last int, sim []uint64, final []dynlocal.Value) error {
	var h hasher
	var bad error
	e.OnRound(func(info *dynlocal.RoundInfo) {
		if observe != nil {
			observe(info)
		}
		if _, got := simHash(&h, info); got != sim[info.Round] && bad == nil {
			bad = fmt.Errorf("round %d: outputs, messages or changes differ from the live run", info.Round)
		}
	})
	for e.Round() < last && bad == nil {
		e.Step()
	}
	if bad != nil {
		return bad
	}
	out := e.Outputs()
	for v := range out {
		if out[v] != final[v] {
			return errors.New("final outputs differ from the live run")
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
