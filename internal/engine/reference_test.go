package engine

import (
	"cmp"
	"slices"

	"dynlocal/internal/adversary"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// RefRound is one round of a run as an engine observer sees it, with
// every slice owned by the round.
type RefRound struct {
	Wake                  []graph.NodeID
	Outputs               []problems.Value
	Changed               []graph.NodeID
	EdgeAdds, EdgeRemoves []graph.EdgeKey
	Messages              int
	Bits                  int64
}

// RunReference plays rounds of the model of Section 2 serially over the
// whole node space, as the oracle of the engine's equivalence tests. It
// shares no round code with the engine: it keeps its own adjacency,
// calls every awake node's callbacks every round and builds each inbox
// by plain appends and a stable sort. Per round it takes the adversary
// step and wakes the new nodes; folds the diff into ascending adjacency
// rows; calls Broadcast on every awake node; builds each inbox from the
// neighbors' outboxes in ascending sender order, stably sorted by Chan;
// calls Process and diffs the outputs against the previous round's.
// Messages count len(outbox)·deg per sender and Bits size them through
// BitSizer. The adversary sees outputs OutputLag rounds old. Workers is
// ignored.
func RunReference(cfg Config, adv adversary.Adversary, algo Algorithm, rounds int) []RefRound {
	n := cfg.N
	sizer, _ := algo.(BitSizer)
	vw := &refView{n: n, lag: cfg.OutputLag, awake: make([]bool, n)}
	if vw.lag == 0 {
		vw.lag = DefaultOutputLag
	}
	states := make([]NodeProc, n)
	adj := make([][]graph.NodeID, n)
	outbox := make([][]SubMsg, n)
	prev := make([]problems.Value, n)
	var trace []RefRound
	for r := 1; r <= rounds; r++ {
		vw.r = r
		st := adv.Step(vw)
		for _, v := range st.Wake {
			if vw.awake[v] {
				continue
			}
			vw.awake[v] = true
			states[v] = algo.NewNode(v)
			input := problems.Bot
			if cfg.Input != nil {
				input = cfg.Input[v]
			}
			states[v].Start(&Ctx{Node: v, Round: r, Seed: cfg.Seed}, input)
		}
		for _, k := range st.EdgeRemoves {
			u, v := k.Nodes()
			adj[u] = refUnlink(adj[u], v)
			adj[v] = refUnlink(adj[v], u)
		}
		for _, k := range st.EdgeAdds {
			u, v := k.Nodes()
			adj[u] = refLink(adj[u], v)
			adj[v] = refLink(adj[v], u)
		}
		rd := RefRound{
			Wake:        slices.Clone(st.Wake),
			Outputs:     make([]problems.Value, n),
			EdgeAdds:    slices.Clone(st.EdgeAdds),
			EdgeRemoves: slices.Clone(st.EdgeRemoves),
		}
		for v := range n {
			if !vw.awake[v] {
				continue
			}
			deg := len(adj[v])
			ctx := Ctx{Node: graph.NodeID(v), Round: r, Seed: cfg.Seed, Isolated: deg == 0}
			outbox[v] = states[v].Broadcast(&ctx, outbox[v][:0])
			rd.Messages += len(outbox[v]) * deg
			if sizer != nil {
				for _, m := range outbox[v] {
					rd.Bits += int64(sizer.MessageBits(m)) * int64(deg)
				}
			}
		}
		for v := range n {
			if !vw.awake[v] {
				continue
			}
			var in []Incoming
			for _, u := range adj[v] {
				for _, m := range outbox[u] {
					in = append(in, Incoming{From: u, M: m})
				}
			}
			slices.SortStableFunc(in, func(a, b Incoming) int { return cmp.Compare(a.M.Chan, b.M.Chan) })
			deg := len(adj[v])
			ctx := Ctx{Node: graph.NodeID(v), Round: r, Seed: cfg.Seed, Isolated: deg == 0}
			states[v].Process(&ctx, in, deg)
			rd.Outputs[v] = states[v].Output()
			if rd.Outputs[v] != prev[v] {
				rd.Changed = append(rd.Changed, graph.NodeID(v))
			}
		}
		prev = rd.Outputs
		vw.snaps = append(vw.snaps, rd.Outputs)
		trace = append(trace, rd)
	}
	return trace
}

// refView is the adversary's view of a reference run.
type refView struct {
	n, r, lag int
	awake     []bool
	snaps     [][]problems.Value // end-of-round outputs, round r at r-1
}

func (v *refView) Round() int                 { return v.r }
func (v *refView) N() int                     { return v.n }
func (v *refView) Awake(id graph.NodeID) bool { return v.awake[id] }
func (v *refView) DelayedOutputs() []problems.Value {
	if seen := v.r - v.lag; seen >= 1 {
		return v.snaps[seen-1]
	}
	return nil
}

// refLink inserts v into the ascending row.
func refLink(row []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i, _ := slices.BinarySearch(row, v)
	return slices.Insert(row, i, v)
}

// refUnlink removes v from the ascending row.
func refUnlink(row []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i, _ := slices.BinarySearch(row, v)
	return slices.Delete(row, i, i+1)
}
