package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}

// TestMain lets the test binary serve as the session child process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(sessionEnv); ok {
		os.Exit(childSession(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runTiny runs one workload at smoke-test size and returns its result
// line and its digest note.
func runTiny(t *testing.T, name, trace string) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", name, "--seed", "7", "--seconds", "0.01", "--trace", trace}, &out, &errb, true); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", name, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %s: failed run\n%s", name, trace, out.String())
	}
	var digest string
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "# digest "); ok {
			digest = strings.Fields(d)[0]
		}
	}
	if digest == "" {
		t.Fatalf("%s: no digest line\n%s", name, out.String())
	}
	return res, digest
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny size, in
// both modes, and checks the results against the declared metrics and
// each other.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	for _, wl := range c.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			e2e, d0 := runTiny(t, wl.Name, "0")
			layer, d1 := runTiny(t, wl.Name, "1")
			if d0 != d1 {
				t.Errorf("digest %s at GOMAXPROCS workers, %s in the traced run", d0, d1)
			}
			check := func(res result, want []struct{ Name, Unit string }) {
				var got []string
				for k := range res.Metrics {
					got = append(got, k)
				}
				if len(got) != len(want) {
					t.Errorf("metrics %v, want %d", got, len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
					}
				}
			}
			check(e2e, c.EndToEnd)
			check(layer, c.PerLayer)
			for _, m := range c.EndToEnd {
				if e2e.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, e2e.Metrics[m.Name].Value)
				}
			}
			if self := layer.Metrics["engine.self_ms"].Value; self < 0 {
				t.Errorf("engine.self_ms = %v: layer time double-counted", self)
			}
		})
	}
}

// TestRejectsBadFlags checks the usage errors exit non-zero without a
// result line.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "p2p-mis", "--trace", "2"},
		{"--workload", "p2p-mis", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb, true); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

type bareAlgo struct{}

func (bareAlgo) Name() string                           { return "bare" }
func (bareAlgo) NewNode(v graph.NodeID) engine.NodeProc { return &bareNode{} }

type bareNode struct{}

func (*bareNode) Start(*engine.Ctx, problems.Value)                          {}
func (*bareNode) Broadcast(_ *engine.Ctx, b []engine.SubMsg) []engine.SubMsg { return b }
func (*bareNode) Process(*engine.Ctx, []engine.Incoming, int)                {}
func (*bareNode) Output() problems.Value                                     { return problems.Bot }

type bareAdv struct{}

func (bareAdv) Step(adversary.View) adversary.Step { return adversary.Step{} }

// TestWrappersKeepInterfaces checks that each timing wrapper implements
// an optional interface exactly when the wrapped value does.
func TestWrappersKeepInterfaces(t *testing.T) {
	l := &layers{}
	has := func(v any) []string {
		var got []string
		if _, ok := v.(engine.BitSizer); ok {
			got = append(got, "BitSizer")
		}
		if _, ok := v.(engine.ArenaAlgorithm); ok {
			got = append(got, "ArenaAlgorithm")
		}
		if _, ok := v.(engine.Quiescer); ok {
			got = append(got, "Quiescer")
		}
		if _, ok := v.(ckpt.Stater); ok {
			got = append(got, "Stater")
		}
		if _, ok := v.(adversary.Checkpointer); ok {
			got = append(got, "Checkpointer")
		}
		if _, ok := v.(adversary.DeltaCheckpointer); ok {
			got = append(got, "DeltaCheckpointer")
		}
		return got
	}
	same := func(what string, inner, wrapped any) {
		if a, b := has(inner), has(wrapped); !slices.Equal(a, b) {
			t.Errorf("%s: inner has %v, wrapper has %v", what, a, b)
		}
	}
	for _, w := range workloads(true) {
		algo, _, _ := w.newAlgo(w.N)
		same(w.Name+" algorithm", algo, wrapAlgorithm(algo, l))
		node := algo.NewNode(0)
		same(w.Name+" node", node, wrapNode(node, l))
		adv := w.newAdversary(1)
		same(w.Name+" adversary", adv, wrapAdversary(adv, l))
	}
	same("bare algorithm", bareAlgo{}, wrapAlgorithm(bareAlgo{}, l))
	same("bare node", &bareNode{}, wrapNode(&bareNode{}, l))
	same("bare adversary", bareAdv{}, wrapAdversary(bareAdv{}, l))
}
