// Command dynbench is the repository benchmark. It runs one workload of
// the dynamic-network simulator end to end through the public API for a
// time budget, checks every result, and prints a header, a table of
// metrics and, as its last line, one JSON result object.
//
// With -trace 0 the sessions run at the engine default of GOMAXPROCS
// workers and the result holds the end-to-end metrics. With -trace 1 the
// sessions run at Workers: 1, alternating untraced sessions with traced
// ones whose adversary, algorithm and node processes are wrapped in
// timers, and the result holds the per-layer breakdown. Every session
// prints a digest of its simulated statistics; all sessions of one seed
// must agree, whatever their worker count or tracing.
//
// Build and run it through run.sh, which compiles it from source:
//
//	bash bench/run.sh --workload churn-coloring --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	if spec, ok := os.LookupEnv(sessionEnv); ok {
		os.Exit(childSession(spec, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, false))
}

// run parses the flags, measures and reports; tiny selects the
// smoke-test sizes.
func run(args []string, stdout, stderr io.Writer, tiny bool) int {
	fs := flag.NewFlagSet("dynbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring budget in seconds")
	trace := fs.Int("trace", 0, "1 = per-layer traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name, tiny)
	if w == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		var names []string
		for _, w := range workloads(false) {
			names = append(names, w.Name)
		}
		fmt.Fprintf(stderr, "dynbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	traced := *trace == 1
	budget := time.Duration(*seconds * float64(time.Second))

	header := map[string]any{
		"workload": w.Name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": sourceID(),
		"host": runtime.GOOS + "/" + runtime.GOARCH, "date": time.Now().UTC().Format(time.RFC3339),
		"n": w.N, "rounds_per_session": w.Rounds,
	}
	hb, _ := json.Marshal(header)
	fmt.Fprintf(stdout, "# dynbench %s\n", hb)

	sessions := measure(w, *seed, budget, traced, tiny, stderr)
	rep := summarize(w, sessions, traced)
	rep.print(stdout)
	return 0
}

// measure runs sessions until the budget is spent. An untraced run
// repeats the default-worker session; a traced run starts with one
// default-worker session (its digest ties the traced run to the
// end-to-end run) and then alternates untraced and traced sessions at
// Workers: 1, so the tracing overhead is measured on the same host state.
func measure(w *workload, seed uint64, budget time.Duration, traced, tiny bool, stderr io.Writer) []*session {
	deadline := time.Now().Add(budget)
	var out []*session
	minSessions := 3
	for i := 0; i < minSessions || time.Now().Before(deadline); i++ {
		k := sessionKind{}
		if traced && i > 0 {
			k = sessionKind{Workers: 1, Traced: i%2 == 0}
		}
		out = append(out, spawnSession(sessionSpec{w.Name, seed, k, tiny}, stderr))
	}
	return out
}

// sessionEnv carries a session spec to a child process. Every session
// runs in a fresh process, so it starts from the same runtime state — an
// empty heap and a fresh GC pacer — and its peak RSS is its own, as when
// a user starts one simulation.
const sessionEnv = "DYNBENCH_SESSION"

type sessionSpec struct {
	Workload string
	Seed     uint64
	Kind     sessionKind
	Tiny     bool
}

// spawnSession runs one session in a child process of this executable
// and waits for it. A child that fails counts as a failed operation.
func spawnSession(spec sessionSpec, stderr io.Writer) *session {
	raw, _ := json.Marshal(spec)
	s := &session{Kind: spec.Kind, Ops: 1}
	exe, err := os.Executable()
	if err != nil {
		s.fail("session: %v", err)
		return s
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), sessionEnv+"="+string(raw))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		s.fail("session process: %v", err)
		return s
	}
	if err := json.Unmarshal(out.Bytes(), s); err != nil {
		s.fail("session report: %v", err)
	}
	return s
}

// childSession runs the session spec names and writes its report.
func childSession(spec string, stdout, stderr io.Writer) int {
	var sp sessionSpec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		fmt.Fprintf(stderr, "dynbench: bad %s: %v\n", sessionEnv, err)
		return 2
	}
	w := findWorkload(sp.Workload, sp.Tiny)
	if w == nil {
		fmt.Fprintf(stderr, "dynbench: unknown workload %q\n", sp.Workload)
		return 2
	}
	if err := json.NewEncoder(stdout).Encode(runSession(w, sp.Seed, sp.Kind)); err != nil {
		fmt.Fprintf(stderr, "dynbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported figure. A timing also carries its median, p90
// and sample count for the table.
type metric struct {
	name, unit string
	value      float64
	d          *dist
	gated      bool // part of the JSON result
}

type report struct {
	metrics           []metric
	notes             []string
	attempted, failed int
}

func (r *report) add(name, unit string, v float64, d *dist, gated bool) {
	m := metric{name: name, unit: unit, value: v, gated: gated}
	if d != nil {
		c := *d
		m.d = &c
	}
	r.metrics = append(r.metrics, m)
}

func summarize(w *workload, ss []*session, traced bool) *report {
	r := &report{}
	digest := ss[0].Digest
	for i, s := range ss {
		r.attempted += s.Ops
		r.failed += s.Failed
		for _, e := range s.Errs {
			r.notes = append(r.notes, fmt.Sprintf("session %d: %s", i, e))
		}
		if s.Digest != digest {
			r.failed++
			r.notes = append(r.notes, fmt.Sprintf("session %d (workers %d, traced %v): digest %016x differs from session 0's %016x", i, s.Kind.Workers, s.Kind.Traced, s.Digest, digest))
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("digest %016x over %d sessions", digest, len(ss)))

	var dflt, w1, tr []*session
	for _, s := range ss {
		if s.Rounds == 0 {
			continue // the session process failed before reporting
		}
		switch {
		case s.Kind.Traced:
			tr = append(tr, s)
		case s.Kind.Workers == 1:
			w1 = append(w1, s)
		default:
			dflt = append(dflt, s)
		}
	}
	switch {
	case !traced && len(dflt) > 0:
		endToEnd(r, w, dflt)
	case traced && len(w1) > 0 && len(tr) > 0:
		perLayer(r, w, w1, tr)
	}
	if r.attempted > 0 {
		r.add("failed_op_frac", "frac", float64(r.failed)/float64(r.attempted), nil, false)
	}
	return r
}

func endToEnd(r *report, w *workload, ss []*session) {
	// Each gated figure is taken per session and averaged over the middle
	// half of the sessions (sessionMean); the table adds the pooled
	// median, p90 and sample count.
	setup := collect(ss, func(s *session) []float64 { return []float64{s.Setup.Seconds()} })
	wall := collect(ss, func(s *session) []float64 { return []float64{s.Wall.Seconds()} })
	rounds := collect(ss, func(s *session) []float64 { return s.RoundMs })
	r.add("setup_s", "s", sessionMean(ss, func(s *session) float64 { return s.Setup.Seconds() }), &setup, true)
	r.add("wall_s", "s", sessionMean(ss, func(s *session) float64 { return s.Wall.Seconds() }), &wall, true)
	r.add("round_ms_p50", "ms", sessionMean(ss, func(s *session) float64 { return distOf(s.RoundMs).p50 }), &rounds, true)
	r.add("round_ms_p90", "ms", sessionMean(ss, func(s *session) float64 { return distOf(s.RoundMs).p90 }), &rounds, true)
	var bytes, n float64
	for _, s := range ss {
		bytes += s.AllocBytes
		n += float64(s.Rounds)
	}
	r.add("alloc_mb_per_round", "MB", bytes/n/1e6, nil, true)
	rss := collect(ss, func(s *session) []float64 { return []float64{s.PeakRSSMB} })
	r.add("peak_rss_mb", "MB", sessionMean(ss, func(s *session) float64 { return s.PeakRSSMB }), &rss, true)
	rate := func(s *session) []float64 {
		var rates []float64
		for _, d := range s.DecodeMs {
			rates = append(rates, float64(s.TraceBytes)/1e6/(d/1e3))
		}
		return rates
	}
	// Decode throughput is table-only: per process it falls into two
	// clusters (about 37 and 55 MB/s on p2p-mis), too unsteady to gate.
	dec := collect(ss, rate)
	r.add("trace_decode_mb_per_s", "MB/s", sessionMean(ss, func(s *session) float64 { return distOf(rate(s)).p50 }), &dec, false)
	if w.CkptEvery > 0 {
		delta := collect(ss, func(s *session) []float64 { return s.DeltaMs })
		full := collect(ss, func(s *session) []float64 { return s.FullMs })
		kb := collect(ss, func(s *session) []float64 { return s.DeltaKB })
		resume := collect(ss, func(s *session) []float64 { return []float64{s.ResumeMs} })
		r.add("ckpt_delta_ms_p50", "ms", delta.p50, &delta, false)
		r.add("ckpt_full_ms_p50", "ms", full.p50, &full, false)
		r.add("ckpt_delta_kb_p50", "KiB", kb.p50, &kb, false)
		r.add("resume_ms_p50", "ms", resume.p50, &resume, false)
	}
}

func perLayer(r *report, w *workload, untraced, traced []*session) {
	lay := func(f func(l *layerSamples) []float64) dist {
		return collect(traced, func(s *session) []float64 { return f(s.Lay) })
	}
	last := traced[len(traced)-1]
	count := func(name string, v int64) { r.add(name, "count", float64(v), nil, true) }

	d := lay(func(l *layerSamples) []float64 { return l.Adv })
	r.add("adversary.step_ms", "ms/round", d.p50, &d, true)
	count("adversary.edge_changes", last.EdgeChanges)
	count("adversary.wakes", last.Wakes)

	d = lay(func(l *layerSamples) []float64 { return l.Self })
	r.add("engine.self_ms", "ms/round", d.p50, &d, true)
	count("engine.messages", last.Messages)
	count("engine.changed", last.Changed)
	count("engine.awake", last.Awake)

	d = lay(func(l *layerSamples) []float64 { return l.Bcast })
	r.add("algos.broadcast_ms", "ms/round", d.p50, &d, true)
	d = lay(func(l *layerSamples) []float64 { return l.Proc })
	r.add("algos.process_ms", "ms/round", d.p50, &d, true)
	d = lay(func(l *layerSamples) []float64 { return []float64{l.NewNodeMs} })
	r.add("algos.newnode_ms", "ms", d.p50, &d, true)
	count("algos.node_calls", last.Lay.NodeCalls)
	r.add("algos.idle_call_frac", "frac", float64(last.Lay.IdleCalls)/float64(max(last.Lay.NodeCalls, 1)), nil, true)

	d = lay(func(l *layerSamples) []float64 { return l.Feed })
	r.add("verify.feed_ms", "ms/round", d.p50, &d, true)
	count("verify.violations", last.Violations)
	count("verify.core_nodes", last.CoreNodes)

	d = lay(func(l *layerSamples) []float64 { return l.Encode })
	r.add("dyngraph.encode_ms", "ms/round", d.p50, &d, true)
	d = collect(traced, func(s *session) []float64 { return s.DecodeMs })
	r.add("dyngraph.decode_ms", "ms", d.p50, &d, true)
	r.add("dyngraph.trace_bytes_per_round", "B/round", float64(last.TraceBytes)/float64(last.Rounds), nil, true)

	count("ckpt.records", int64(last.Records))
	r.add("ckpt.restore_allocs", "count", last.RestoreAllocs, nil, true)

	// GC CPU-seconds over the CPU-seconds GOMAXPROCS makes available
	// during the live loops of the untraced one-worker sessions.
	var gc, cpu, objs, rounds float64
	for _, s := range untraced {
		gc += s.GCCPU
		cpu += s.Loop.Seconds() * float64(runtime.GOMAXPROCS(0))
		objs += s.AllocObjs
		rounds += float64(s.Rounds)
	}
	r.add("runtime.gc_cpu_frac", "frac", gc/max(cpu, 1e-9), nil, true)
	r.add("runtime.allocs_per_round", "count/round", objs/max(rounds, 1), nil, true)

	// Table-only context: the harness's own share of the round, the
	// checkpoint timings and the tracing overhead.
	d = lay(func(l *layerSamples) []float64 { return l.Harness })
	r.add("harness.observer_ms", "ms/round", d.p50, &d, false)
	if w.CkptEvery > 0 {
		d = collect(traced, func(s *session) []float64 { return s.DeltaMs })
		r.add("ckpt.delta_write_ms", "ms", d.p50, &d, false)
		d = collect(traced, func(s *session) []float64 { return s.FullMs })
		r.add("ckpt.full_write_ms", "ms", d.p50, &d, false)
		d = collect(traced, func(s *session) []float64 { return []float64{s.ResumeMs} })
		r.add("ckpt.resume_ms", "ms", d.p50, &d, false)
	}
	plain := collect(untraced, func(s *session) []float64 { return s.RoundMs })
	withTrace := collect(traced, func(s *session) []float64 { return s.RoundMs })
	r.add("round_ms_workers1", "ms", plain.p50, &plain, false)
	r.add("round_ms_workers1_traced", "ms", withTrace.p50, &withTrace, false)
	r.add("trace.overhead_frac", "frac", withTrace.p50/plain.p50-1, nil, false)
}

// collect pools one sample list per session into a distribution.
func collect(ss []*session, f func(*session) []float64) dist {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, f(s)...)
	}
	return distOf(xs)
}

// sessionMean is the interquartile mean over sessions of one
// per-session figure: the mean of the middle half. Sessions are separate
// processes whose speed varies with memory placement and host load, and
// this mean is steadier than a median across the two modes that often
// shows, while a disturbed session still cannot move it.
func sessionMean(ss []*session, f func(*session) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	slices.Sort(xs)
	cut := len(xs) / 4
	mid := xs[cut : len(xs)-cut]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// dist is a timing's median and p90 over its samples.
type dist struct {
	p50, p90 float64
	n        int
}

func distOf(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return dist{p50: quantile(s, 0.5), p90: quantile(s, 0.9), n: len(s)}
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func (r *report) print(out io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-32s %14.6g %-12s", m.name, m.value, m.unit)
		if m.d != nil {
			line += fmt.Sprintf(" p50 %.6g  p90 %.6g  n %d", m.d.p50, m.d.p90, m.d.n)
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var b strings.Builder
	b.WriteString("{")
	first := true
	for _, m := range r.metrics {
		if !m.gated {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		k, _ := json.Marshal(m.name)
		v, _ := json.Marshal(value{m.value, m.unit})
		fmt.Fprintf(&b, "%s: %s", k, v)
	}
	b.WriteString("}")
	fmt.Fprintf(out, "{\"correct\": %v, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
		r.failed == 0, r.attempted, r.failed, b.String())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or
// the runtime's total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

// sourceID names the measured source: run.sh passes the git commit when
// the tree is a checkout, or a hash of the Go sources otherwise.
func sourceID() string {
	if id := os.Getenv("DYNBENCH_SOURCE"); id != "" {
		return id
	}
	return "unknown"
}
