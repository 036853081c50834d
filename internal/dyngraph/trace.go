package dyngraph

import (
	"io"

	"dynlocal/internal/graph"
)

// Trace records a dynamic graph sequence in memory, as each round's wake
// set and sorted edge diff against the previous round, so adversarial
// schedules can be persisted, shipped with bug reports and replayed
// deterministically through a Cursor (adversary.ScriptedStream replays
// one, as it replays a StreamDecoder).
//
// Wire format (all integers unsigned varints):
//
//	magic "DYNT" | version | n | rounds
//	per round: |wake| wake… |added| addedEdgeKeys… |removed| removedEdgeKeys…
//
// Edge keys are strictly ascending within each list and delta-encoded.
type Trace struct {
	n      int
	rounds []step
}

type step struct {
	wake    []graph.NodeID
	added   []graph.EdgeKey
	removed []graph.EdgeKey
}

// NewTrace creates an empty trace over a node universe of size n.
func NewTrace(n int) *Trace { return &Trace{n: n} }

// N returns the node-universe size.
func (t *Trace) N() int { return t.n }

// Rounds returns the number of recorded rounds.
func (t *Trace) Rounds() int { return len(t.rounds) }

// Append records the next round. prev is the previous round's graph (nil
// for the first round, meaning the empty graph); g the new graph. prev
// must be the graph of the previously appended round — the stored deltas
// are the diffs of the appended sequence, and a Cursor hands them out as
// such.
func (t *Trace) Append(prev, g *graph.Graph, wake []graph.NodeID) {
	if g.N() != t.n {
		panic("dyngraph: trace node space mismatch")
	}
	var prevKeys []graph.EdgeKey
	if prev != nil {
		prevKeys = prev.EdgeKeys()
	}
	added, removed := graph.DiffSortedKeys(prevKeys, g.EdgeKeys(), nil, nil)
	t.rounds = append(t.rounds, step{
		wake:    append([]graph.NodeID(nil), wake...),
		added:   added,
		removed: removed,
	})
}

// Cursor returns a replay cursor positioned before the first recorded
// round. Each cursor replays the trace once, independently of others.
func (t *Trace) Cursor() *TraceCursor { return &TraceCursor{t: t} }

// TraceCursor walks a Trace's rounds in order with the contract of
// StreamDecoder.NextDeltas: one round's wake set and sorted edge diff
// per call, io.EOF after the last round. It is the in-memory delta
// source for adversary.ScriptedStream.
type TraceCursor struct {
	t    *Trace
	next int
}

// NextDeltas returns the next round's wake set and strictly ascending
// edge additions and removals, or io.EOF once every recorded round has
// been returned. The slices are loaned: they alias trace-owned storage
// and must not be modified; copy anything retained.
//
//dynlint:loan
func (c *TraceCursor) NextDeltas() (wake []graph.NodeID, adds, removes []graph.EdgeKey, err error) {
	if c.next >= len(c.t.rounds) {
		return nil, nil, nil, io.EOF
	}
	st := &c.t.rounds[c.next]
	c.next++
	return st.wake, st.added, st.removed, nil
}

const traceMagic = "DYNT"
const traceVersion = 1

// EncodeTraceTo streams the trace into w through a StreamEncoder — the
// single implementation of the wire format — one round at a time.
func (t *Trace) EncodeTraceTo(w io.Writer) error {
	enc, err := NewStreamEncoder(w, t.n, len(t.rounds))
	if err != nil {
		return err
	}
	for _, st := range t.rounds {
		if err := enc.WriteRound(st.wake, st.added, st.removed); err != nil {
			return err
		}
	}
	return enc.Close()
}

// DecodeTrace reads a whole trace from the binary wire format into
// memory: a thin wrapper that drains a StreamDecoder, copying each
// round's loaned deltas into trace-owned storage. The input is treated as
// untrusted exactly as the decoder treats it — element counts, node ids,
// edge keys and the delta encoding are validated round by round, and
// corrupt input yields an error rather than an oversized allocation here
// or a panic in a later replay.
func DecodeTrace(r io.Reader) (*Trace, error) {
	d, err := NewStreamDecoder(r)
	if err != nil {
		return nil, err
	}
	t := NewTrace(d.N())
	if d.rounds < decodePrealloc {
		t.rounds = make([]step, 0, d.rounds)
	}
	for {
		tr, err := d.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.rounds = append(t.rounds, step{
			wake:    append([]graph.NodeID(nil), tr.Wake...),
			added:   append([]graph.EdgeKey(nil), tr.Adds...),
			removed: append([]graph.EdgeKey(nil), tr.Removes...),
		})
	}
}
