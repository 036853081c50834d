// Package engine is the round-synchronous dynamic-network simulator
// implementing the model of Section 2. Each round:
//
//  1. the adversary provides the communication graph G_r and may wake
//     additional nodes (V_{r-1} ⊆ V_r);
//  2. every awake node broadcasts one batch of sub-messages to all of its
//     current neighbors ("local broadcast"), then processes its inbox and
//     performs local computation — a node learns its round degree only
//     together with its inbox, matching "a node does not know its degree
//     in G_r at the beginning of round r";
//  3. every node's output is collected and handed to observers (checkers,
//     metrics) and — subject to the configured obliviousness lag — to the
//     adversary.
//
// The two communication phases are parallelized over edge-balanced node
// shards (cut by cumulative degree, see parallel.go) with a barrier
// between them. Each receiver's inbox is assembled in a per-worker
// scratch buffer, stably sorted by channel: within a channel, messages
// come in adjacency order and then in outbox order. In rounds where every
// outbox is on channel 0 that is one pass of appends, neighbor by
// neighbor. Otherwise it is a counting sort over the receiver's channel
// span: senders emit their outboxes in nondecreasing channel order, so
// the first and last sub-message of each neighbor's outbox bound the
// span, one pass counts the messages per channel and a second scatters
// them into place. Counting costs O(span) per receiver, so the barrier
// after the broadcast phase panics when a round's channels span more than
// 2^16; the combiners number their channels by instance age, which keeps
// the span below their window however long a run lasts.
//
// # Determinism contract
//
// Outputs, message/bit accounting and the changed-node feed are
// bit-identical for every worker count: all randomness is drawn from prf
// streams keyed by (seed, node, round, purpose) — never from goroutine
// scheduling — per-worker accounting is folded at the phase barrier with
// exact integer sums, and the per-worker changed-output shards cover
// contiguous ascending node ranges, so their concatenation in worker
// order is the same sorted list regardless of sharding. Because the prf
// streams are stateless per (node, round), the sparse activity plane
// below can skip a node's callbacks entirely without desynchronizing
// anyone's randomness. CI enforces the contract under the race detector.
//
// # Sparse activity plane
//
// Rounds cost O(active + changes), not O(n): the engine maintains an
// explicit active set and drives both phases over it. A node enters the
// set when it wakes and re-enters whenever it touches an edge of the
// round's topology diff. It leaves only by consent: algorithms whose
// nodes reach a terminal silent state implement Quiescer, and a node
// reporting Quiescent — with unchanged output — for OutputLag+1
// consecutive rounds is dropped from the set (the grace period guarantees
// every snapshot-ring slot holds its final output first). Nodes of
// algorithms without Quiescer stay active while awake, so for them a
// round costs O(awake) — still independent of the universe size n, which
// is the regime of the paper's highly dynamic P2P workloads (awake ≪ n).
// Their callbacks need not cost much, though: Ctx.Isolated tells a node
// it has no edge, and the Concat combiner parks a settled isolated node
// (core.Settler), so a departed P2P peer costs O(1) per round.
// The current topology lives in one structure, an incrementally patched
// adjacency (graph.DynAdj, O(changes·Δ) per round); a CSR graph is built
// from its rows only when an observer asks RoundInfo.Graph() or a base
// checkpoint record is written. Worker shards are cut by walking the
// active list's degrees — O(active + workers), no per-round O(n) prefix
// rebuild, and the cuts serve both phases of the round. Phase 2 reads
// only active neighbors' outboxes, so a round's delivery costs the
// senders' messages, not the degrees of silent dropped nodes.
//
// # Round-delta plane
//
// Both sides of a round are exposed as deltas, consolidated in the
// RoundDelta view (RoundInfo.Delta()). On the output side,
// RoundInfo.Changed is the sorted list of nodes whose output differs from
// the previous round, folded from the per-worker shards at the phase-2
// barrier. On the topology side, RoundInfo.EdgeAdds/EdgeRemoves are the
// adversary step's sorted edge diff against the previous round, passed
// through verbatim. Observers that maintain per-round state (the
// checkers in internal/verify, violation trackers in internal/problems,
// the sliding windows in internal/dyngraph) consume the delta plane
// whole (verify.(*TDynamic).Feed) to do O(|changed| + |diff|) work per
// round instead of rescanning all n outputs or all |E_r| edges. The
// model invariant that edges only touch awake nodes is asserted on the
// delta too: each added edge is checked as it enters — O(|adds|) per
// round, with persisting edges covered by induction since wake-ups are
// monotone.
//
// # Buffer ownership
//
// The engine pools aggressively; observers own nothing they are handed:
// RoundInfo.Outputs is a snapshot ring slot reused OutputLag+1 rounds
// later; RoundInfo.Wake, Changed, EdgeAdds and EdgeRemoves are reused on
// the next Step. RoundInfo.Graph() returns an immutable graph that
// aliases a pooled graph.DynAdj arena recycled two builds later: it
// may be read freely during its round and the next, and must be Cloned to
// be retained longer. RoundInfo.Retain is the one sanctioned way to hold
// a whole round past those lifetimes. Inside algorithm callbacks,
// Broadcast's buf and Process's inbox are likewise engine-owned scratch,
// valid only for the duration of the call: the inbox lives in its
// worker's scratch buffer and is overwritten by the next node that worker
// processes. Broadcast must return its sub-messages in nondecreasing Chan
// order (Step panics otherwise, naming the node and round), a round's
// channels must span at most 2^16 (likewise checked), and Process
// receives its inbox sorted by (Chan, adjacency order) — a combiner can
// slice each instance's run out of it without copying.
//
// The per-round topologies come from an adversary (internal/adversary).
package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// SubMsg is one sub-message of a node's per-round broadcast. Chan is a
// logical channel id used by the combiner to multiplex concurrently
// running algorithm instances (0 for standalone algorithms); Kind and the
// two payload words are algorithm-defined.
type SubMsg struct {
	Chan int32
	Kind uint8
	A, B int64
}

// Incoming is a received sub-message together with its sender.
type Incoming struct {
	From graph.NodeID
	M    SubMsg
}

// Ctx carries per-(node, round) context into algorithm callbacks.
// Algorithms must treat Round as opaque randomness-derivation state — the
// model gives nodes no common round counter; local age must be tracked by
// the algorithm itself.
type Ctx struct {
	Node graph.NodeID
	// Isolated reports that the node has no edge in G_r. The engine sets
	// it for Broadcast and Process. Broadcast may read it only to skip
	// work whose messages would reach no neighbor: the node's messages
	// as delivered, its state and its later behavior must be the same
	// whatever the field holds. (Process learns the same fact from its
	// degree.) The Concat combiner reads it to keep a settled isolated
	// node parked (see core.Settler). It sits in Node's padding, so a
	// Ctx stays four words.
	Isolated    bool
	Round       int
	Seed        uint64
	PurposeBase prf.Purpose
}

// Stream returns the node's random stream for this round and purpose.
func (c *Ctx) Stream(p prf.Purpose) prf.Stream {
	return prf.Make(c.Seed, c.Node, c.Round, c.PurposeBase+p)
}

// NodeProc is the per-node state machine of a distributed algorithm.
type NodeProc interface {
	// Start is invoked once, in the node's wake-up round, before its
	// first Broadcast, with the node's input value (Bot if none).
	Start(ctx *Ctx, input problems.Value)
	// Broadcast appends the node's sub-messages for this round to buf and
	// returns it, in nondecreasing Chan order. Returning an empty slice
	// means the node stays silent. All outboxes of one round together may
	// span at most 2^16 channels, from the lowest to the highest; Step
	// panics otherwise, naming the round and both channels.
	Broadcast(ctx *Ctx, buf []SubMsg) []SubMsg
	// Process handles the inbox (all sub-messages broadcast by current
	// neighbors this round) and the node's degree in G_r. The inbox is
	// stably sorted by Chan: within a channel, senders come in ascending
	// node order, each sender's sub-messages in its outbox order.
	Process(ctx *Ctx, in []Incoming, deg int)
	// Output returns the node's current output (Bot for ⊥).
	Output() problems.Value
}

// Quiescer is optionally implemented by NodeProcs whose nodes can reach a
// terminal silent state. Quiescent must only report true once the node
// has permanently decided: from this round on, regardless of any future
// inbox contents, degrees or topology changes, its Broadcast always
// returns buf unchanged and its Output never changes. The engine then
// drops the node from the active set (after the snapshot-ring grace
// period) and stops invoking its callbacks — a dropped node is literally
// free — re-running them only if one of its edges churns, so skipped
// rounds must be unobservable. Internal bookkeeping (ages, streaks) may
// freeze while dropped; the contract only constrains Broadcast and
// Output. Nodes that can revert, or that beacon indefinitely, must never
// report quiescent.
type Quiescer interface {
	Quiescent() bool
}

// Algorithm creates per-node processes.
type Algorithm interface {
	Name() string
	NewNode(v graph.NodeID) NodeProc
}

// BitSizer is optionally implemented by algorithms that declare the
// encoded size of their messages; the engine then accounts message bits
// per round (experiment E12, the poly log n message-size remark).
type BitSizer interface {
	MessageBits(m SubMsg) int
}

// DefaultOutputLag is the adversary obliviousness lag used when
// Config.OutputLag is left zero: the 2-oblivious adversary that DMis
// (Lemma 5.1) requires.
const DefaultOutputLag = 2

// Config parameterizes a simulation.
type Config struct {
	// N is the size of the potential-node universe (the paper's n, known
	// to all nodes).
	N int
	// Seed keys all randomness.
	Seed uint64
	// Workers is the parallelism degree; 0 means GOMAXPROCS.
	Workers int
	// OutputLag is the adversary's obliviousness lag ρ: when constructing
	// G_r the adversary sees outputs through round r-ρ. The zero value
	// selects DefaultOutputLag (= 2, the 2-oblivious adversary DMis
	// needs); 1 is a fully adaptive online adversary; negative values
	// panic in New.
	OutputLag int
	// Input provides per-node input values (nil = all Bot).
	Input []problems.Value
}

// RoundDelta is the consolidated view of one round's delta plane: the
// topology diff, the wake set, the end-of-round output snapshot and the
// output diff. It is the single argument of verify.(*TDynamic).Feed and
// is obtained from RoundInfo.Delta. The slices alias the RoundInfo they
// came from and follow its pooling lifetimes.
//
//dynlint:loan
type RoundDelta struct {
	// Round is the 1-based round the delta describes.
	Round int
	// EdgeAdds and EdgeRemoves are the sorted edge diff against the
	// previous round's graph.
	EdgeAdds, EdgeRemoves []graph.EdgeKey
	// Wake lists the nodes that woke this round.
	Wake []graph.NodeID
	// Changed lists, ascending, the nodes whose output changed this round.
	Changed []graph.NodeID
	// Outputs is the full end-of-round output snapshot.
	Outputs []problems.Value
}

// RoundInfo is the observer view of a completed round. The struct itself
// is pooled on the same ring as its Outputs snapshot — reused
// OutputLag+1 rounds later — so it shares its buffers' lifetime exactly;
// use Retain to hold a round longer.
//
//dynlint:loan
type RoundInfo struct {
	Round int
	// Wake lists the nodes that woke this round. Pooled and reused on the
	// next Step — copy to retain. Do not modify.
	//dynlint:loan
	Wake []graph.NodeID
	// Outputs is the end-of-round snapshot. The engine pools snapshot
	// buffers: the slice is reused OutputLag+1 rounds later, so observers
	// that retain outputs across rounds must copy it (or Retain the
	// round). Do not modify.
	//dynlint:loan
	Outputs []problems.Value
	// Changed lists, in ascending node order and without duplicates, the
	// nodes whose Outputs entry differs from the previous round's snapshot
	// (round 1 diffs against the all-⊥ initial state). It is folded from
	// the per-worker shards at the phase barrier, so its contents are
	// bit-identical for every worker count. This is the output side of the
	// round-delta plane: checkers consume it (via Delta and
	// verify.(*TDynamic).Feed) to update violation state in O(|Changed|)
	// instead of re-scanning all n outputs. The slice is pooled and reused
	// on the next Step — copy to retain. Do not modify.
	//dynlint:loan
	//dynlint:sorted
	Changed []graph.NodeID
	// EdgeAdds and EdgeRemoves are the topology side of the round-delta
	// plane: the sorted edge diff of this round's graph against the
	// previous round's (round 1 diffs against the empty G_0), as the
	// adversary emitted it. Both slices are pooled and reused on the next
	// Step — copy to retain. Do not modify.
	//dynlint:loan
	//dynlint:sorted
	EdgeAdds, EdgeRemoves []graph.EdgeKey
	Messages              int   // sub-messages delivered
	Bits                  int64 // declared encoded bits (0 if no BitSizer)

	eng *Engine      // source engine for the on-demand graph build
	g   *graph.Graph // graph of a retained copy
}

// Graph returns the round's communication graph G_r, built on demand from
// the engine's adjacency rows (graph.DynAdj.Graph): no CSR graph exists
// unless an observer asks for one, so rounds whose observers never call
// Graph never pay the O(n + m) build, and a second call in the same round
// returns the same graph. The returned graph is immutable but aliases a
// pooled arena — it may be read during this round and the next, and must
// be Cloned (or the round Retained) to be held longer.
// For a live (non-retained) RoundInfo of a sparse engine, Graph must be
// called before the next Step; afterwards it panics, since the engine's
// topology has moved past this round.
//
//dynlint:loan
func (ri *RoundInfo) Graph() *graph.Graph {
	if ri.g != nil {
		return ri.g
	}
	if ri.eng == nil || ri.eng.round != ri.Round {
		panic(fmt.Sprintf("engine: RoundInfo.Graph for round %d called after the engine moved on — call it during the round, or use Retain", ri.Round))
	}
	return ri.eng.adj.Graph()
}

// Delta returns the round's consolidated delta-plane view. The slices
// alias this RoundInfo and follow its pooling lifetimes, so a RoundDelta
// is meant to be consumed within the observer callback (exactly what
// verify.(*TDynamic).Feed does).
func (ri *RoundInfo) Delta() RoundDelta {
	return RoundDelta{
		Round:    ri.Round,
		EdgeAdds: ri.EdgeAdds, EdgeRemoves: ri.EdgeRemoves,
		Wake: ri.Wake, Changed: ri.Changed, Outputs: ri.Outputs,
	}
}

// Retain returns a deep copy of the round that owns all of its storage —
// the one sanctioned way to hold a round past the pooled-buffer
// lifetimes. The graph is materialized and cloned too, so Retain costs
// O(n + m); call it only for rounds actually kept. Like Graph, Retain
// must be called before the engine plays the next Step.
func (ri *RoundInfo) Retain() *RoundInfo {
	cp := *ri
	cp.g = ri.Graph().Clone()
	cp.eng = nil
	cp.Wake = slices.Clone(ri.Wake)
	cp.Outputs = slices.Clone(ri.Outputs)
	cp.Changed = slices.Clone(ri.Changed)
	cp.EdgeAdds = slices.Clone(ri.EdgeAdds)
	cp.EdgeRemoves = slices.Clone(ri.EdgeRemoves)
	return &cp
}

// Engine drives one simulation.
type Engine struct {
	cfg   Config
	adv   adversary.Adversary
	algo  Algorithm
	sizer BitSizer
	// The adversary's checkpoint views, asserted once in New: an
	// interface assertion may allocate when the runtime refreshes its
	// per-site cache, which a delta record must not.
	advCk    adversary.Checkpointer
	advDelta adversary.DeltaCheckpointer

	round   int
	states  []NodeProc
	awake   []bool
	wakeRnd []int
	outbox  [][]SubMsg
	scratch []workerScratch    // per-worker delivery buffers
	multiCh bool               // this round some outbox carries a nonzero channel
	snaps   [][]problems.Value // ring of pooled output snapshots
	infos   []RoundInfo        // ring of pooled RoundInfo headers, same lifetime
	lag     int
	workers int
	acc     []workerAcc      // per-worker accounting cells
	chg     [][]graph.NodeID // per-worker changed-output shards
	changed []graph.NodeID   // folded changed-node list (pooled)

	// Sparse activity plane.
	adj        *graph.DynAdj    // the round topology; its Graph is built on demand
	active     []bool           // membership bitmap of activeList
	activeList []graph.NodeID   // sorted active set, both phases walk this
	listBuf    []graph.NodeID   // ping-pong scratch for merge/compaction
	newAct     []graph.NodeID   // this round's activations (wake + edge touch)
	quiet      []int32          // consecutive quiescent rounds, for the drop grace
	quiescer   []Quiescer       // cached Quiescer view of states[v], nil if none
	drops      [][]graph.NodeID // per-worker drop shards
	cuts       []int            // active-list shard-cut scratch
	pool       *phasePool       // persistent phase workers (lazy)

	// Per-Step state read by the prebuilt sparse phase callbacks. The
	// callbacks are built once in New — a closure literal inside Step
	// would allocate every round.
	stepRound          int
	snapCur, snapPrev  []problems.Value
	phase1Fn, phase2Fn phaseFunc
	sctx               Ctx  // serial-path scratch; a stack Ctx would escape
	vw                 view // adversary View scratch; boxing a value would allocate

	// Incremental-checkpoint dirty tracking, disabled (and nil) until the
	// first NoteCheckpoint — runs that never write checkpoint chains pay
	// nothing. While enabled, each round marks the nodes whose serialized
	// state may have changed (the phase-time active list), the nodes whose
	// output changed, the net topology diff and whether the active list
	// moved, all since the last persisted record. A delta record
	// serializes exactly these marks; NoteCheckpoint resets them once a
	// record survives.
	ckptTrack    bool
	ckptSeq      uint64                // records persisted in the current chain
	ckptSum      uint32                // CRC-32 fingerprint of the last record
	ckptRound    int                   // round the last record captured
	dirtyNode    []bool                // node state touched since last record
	dirtyList    []graph.NodeID        // set bits of dirtyNode, unsorted
	dirtyOut     []bool                // output changed since last record
	dirtyOutList []graph.NodeID        // set bits of dirtyOut, unsorted
	topDirty     graph.EdgeTable[bool] // net edge diff: true=added, false=removed
	activeDirty  bool                  // active list changed since last record
	ckptScratch  []graph.NodeID        // a base record's node lists (checkpoint.go)
	diffKeys     []graph.EdgeKey       // a delta record's diff keys, sorted (topologyDiff)
	diffTmp      []graph.EdgeKey       // their radix sort's buffer
	diffAdds     []graph.EdgeKey       // a delta record's added edges (topologyDiff)
	diffRems     []graph.EdgeKey       // a delta record's removed edges (topologyDiff)
	recW         ckpt.Writer           // record encoder; its buffer is kept across records

	observers []func(*RoundInfo)
}

// New creates an engine. It panics on invalid configuration.
func New(cfg Config, adv adversary.Adversary, algo Algorithm) *Engine {
	if cfg.N <= 0 {
		panic("engine: N must be positive")
	}
	if cfg.Input != nil && len(cfg.Input) != cfg.N {
		panic("engine: input length does not match N")
	}
	lag := cfg.OutputLag
	if lag == 0 {
		lag = DefaultOutputLag
	}
	if lag < 1 {
		panic("engine: OutputLag must be >= 1 (1 = fully adaptive online)")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cfg:      cfg,
		adv:      adv,
		algo:     algo,
		round:    0,
		states:   make([]NodeProc, cfg.N),
		awake:    make([]bool, cfg.N),
		wakeRnd:  make([]int, cfg.N),
		outbox:   make([][]SubMsg, cfg.N),
		scratch:  make([]workerScratch, workers),
		snaps:    make([][]problems.Value, lag+1),
		infos:    make([]RoundInfo, lag+1),
		lag:      lag,
		workers:  workers,
		acc:      make([]workerAcc, workers),
		chg:      make([][]graph.NodeID, workers),
		adj:      graph.NewDynAdj(cfg.N),
		active:   make([]bool, cfg.N),
		quiet:    make([]int32, cfg.N),
		quiescer: make([]Quiescer, cfg.N),
		drops:    make([][]graph.NodeID, workers),
		cuts:     make([]int, 0, workers+1),
	}
	e.phase1Fn = e.sparseBroadcast
	e.phase2Fn = e.sparseProcess
	e.vw.e = e
	e.advCk, _ = adv.(adversary.Checkpointer)
	e.advDelta, _ = adv.(adversary.DeltaCheckpointer)
	if s, ok := algo.(BitSizer); ok {
		e.sizer = s
	}
	return e
}

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// N returns the node-universe size.
func (e *Engine) N() int { return e.cfg.N }

// Seed returns the PRF seed (used to construct clairvoyant adversaries).
func (e *Engine) Seed() uint64 { return e.cfg.Seed }

// Awake reports whether v has woken up.
func (e *Engine) Awake(v graph.NodeID) bool { return e.awake[v] }

// OnRound registers an observer invoked after every completed round.
func (e *Engine) OnRound(fn func(*RoundInfo)) { e.observers = append(e.observers, fn) }

// view adapts the engine to adversary.View for the round being built. It
// lives on the Engine and is handed out by pointer: boxing a fresh value
// into the interface would allocate on every Step.
type view struct {
	e *Engine
	r int
}

func (v *view) Round() int                 { return v.r }
func (v *view) N() int                     { return v.e.cfg.N }
func (v *view) Awake(id graph.NodeID) bool { return v.e.awake[id] }
func (v *view) DelayedOutputs() []problems.Value {
	seen := v.r - v.e.lag
	if seen < 1 {
		return nil
	}
	return v.e.snaps[seen%len(v.e.snaps)]
}

// Step plays one round and returns its info. The returned info's buffers
// are pooled — see RoundInfo for what may be retained and for how long.
func (e *Engine) Step() *RoundInfo {
	r := e.round + 1
	e.vw.r = r
	st := e.adv.Step(&e.vw)
	// The round's topology is the step's sorted diff, folded into the
	// adjacency before any other state changes; no CSR graph is built
	// here.
	adds, removes := st.EdgeAdds, st.EdgeRemoves
	if err := e.adj.Apply(adds, removes); err != nil {
		panic(fmt.Sprintf("engine: round %d %v", r, err))
	}
	if e.ckptTrack {
		for _, k := range adds {
			e.markEdgeDirty(k, true)
		}
		for _, k := range removes {
			e.markEdgeDirty(k, false)
		}
	}

	// Wake phase.
	e.newAct = e.newAct[:0]
	for _, v := range st.Wake {
		if e.awake[v] {
			continue
		}
		e.awake[v] = true
		e.wakeRnd[v] = r
		e.states[v] = e.algo.NewNode(v)
		e.quiescer[v], _ = e.states[v].(Quiescer)
		e.active[v] = true
		e.newAct = append(e.newAct, v)
		ctx := Ctx{Node: v, Round: r, Seed: e.cfg.Seed}
		input := problems.Bot
		if e.cfg.Input != nil {
			input = e.cfg.Input[v]
		}
		e.states[v].Start(&ctx, input)
	}
	// Model invariant: edges only between awake nodes. Edges enter the
	// topology only through the diff and wake-ups are monotone, so
	// checking each added edge — O(|adds|), not O(n) — covers every edge
	// by induction over rounds.
	for _, k := range adds {
		if u, v := k.Nodes(); !e.awake[u] || !e.awake[v] {
			panicSleepingEdge(r, u, v, e.awake[u])
		}
	}

	info := e.stepSparse(r, &st, adds, removes)
	for _, fn := range e.observers {
		fn(info)
	}
	return info
}

// ringSlots returns this round's snapshot buffer and the previous
// round's (nil in round 1, which diffs against the all-⊥ initial state).
// The slot being overwritten is OutputLag+1 rounds old; a still-sleeping
// node was sleeping then too (wakefulness is monotone), so its entry is
// already Bot, and a node dropped from the active set wrote its final
// output into every slot during the drop grace period.
func (e *Engine) ringSlots(r int) (snap, prev []problems.Value) {
	snap = e.snaps[r%len(e.snaps)]
	if snap == nil {
		snap = make([]problems.Value, e.cfg.N)
		e.snaps[r%len(e.snaps)] = snap
	}
	if r > 1 {
		prev = e.snaps[(r-1)%len(e.snaps)]
	}
	return snap, prev
}

// markNodeDirty records that v's serialized per-node state (wake round,
// quiescence counter or Stater payload) may differ from the last
// persisted checkpoint record.
func (e *Engine) markNodeDirty(v graph.NodeID) {
	if !e.dirtyNode[v] {
		e.dirtyNode[v] = true
		e.dirtyList = append(e.dirtyList, v)
	}
}

// markOutDirty records that v's output changed since the last persisted
// checkpoint record (fed from the round's folded Changed list).
func (e *Engine) markOutDirty(v graph.NodeID) {
	if !e.dirtyOut[v] {
		e.dirtyOut[v] = true
		e.dirtyOutList = append(e.dirtyOutList, v)
	}
}

// markEdgeDirty folds one edge of the round diff into the net diff since
// the last record, with exact cancellation: an edge added and then
// removed (or vice versa) between two records vanishes from the delta.
func (e *Engine) markEdgeDirty(k graph.EdgeKey, added bool) {
	if prev, ok := e.topDirty.Get(k); ok && prev != added {
		e.topDirty.Delete(k)
		return
	}
	e.topDirty.Put(k, added)
}

// touch marks a node hit by the round's topology diff: it re-enters the
// active set if dropped and restarts its quiescence grace either way.
// Diff endpoints are awake (the model invariant was just asserted), so no
// wakefulness check is needed.
func (e *Engine) touch(v graph.NodeID) {
	e.quiet[v] = 0
	if !e.active[v] {
		e.active[v] = true
		e.newAct = append(e.newAct, v)
	}
}

// mergeActive folds the round's sorted activations into the sorted
// active list, ping-ponging between two pooled buffers. newAct is
// disjoint from the current list (guarded by the active bitmap), so the
// merge never sees equal keys.
func (e *Engine) mergeActive() {
	slices.Sort(e.newAct)
	old := e.activeList
	dst := e.listBuf[:0]
	i, j := 0, 0
	for i < len(old) && j < len(e.newAct) {
		if old[i] < e.newAct[j] {
			dst = append(dst, old[i])
			i++
		} else {
			dst = append(dst, e.newAct[j])
			j++
		}
	}
	dst = append(dst, old[i:]...)
	dst = append(dst, e.newAct[j:]...)
	e.activeList, e.listBuf = dst, old[:0]
}

// applyDrops removes this round's quiesced nodes from the active set and
// compacts the list. A dropped node's outbox is emptied once here — by
// the Quiescer contract it would stay empty anyway — so a node off the
// active list has nothing to deliver, and inbox assembly skips it on the
// bitmap alone (deliver).
func (e *Engine) applyDrops() {
	total := 0
	for w := range e.drops {
		total += len(e.drops[w])
	}
	if total == 0 {
		return
	}
	if e.ckptTrack {
		e.activeDirty = true
	}
	for w := range e.drops {
		for _, v := range e.drops[w] {
			e.active[v] = false
			e.outbox[v] = e.outbox[v][:0]
		}
	}
	old := e.activeList
	dst := e.listBuf[:0]
	for _, v := range old {
		if e.active[v] {
			dst = append(dst, v)
		}
	}
	e.activeList, e.listBuf = dst, old[:0]
}

// stepSparse plays the round over the active set: O(active + changes)
// total, with accounting summed per sender so skipped quiescent receivers
// cost nothing while Messages/Bits still count every delivery.
func (e *Engine) stepSparse(r int, st *adversary.Step, adds, removes []graph.EdgeKey) *RoundInfo {
	for _, k := range adds {
		u, v := k.Nodes()
		e.touch(u)
		e.touch(v)
	}
	for _, k := range removes {
		u, v := k.Nodes()
		e.touch(u)
		e.touch(v)
	}
	if len(e.newAct) > 0 {
		e.mergeActive()
		if e.ckptTrack {
			e.activeDirty = true
		}
	}
	list := e.activeList
	cuts := e.listCuts(list)

	// Phase 1: broadcast (sparseBroadcast over the active list).
	e.stepRound = r
	msgs, bits := e.runPhase(list, cuts, e.phase1Fn)
	e.foldChannels(r)

	// Phase 2: deliver, process, snapshot, diff and quiesce
	// (sparseProcess), fused per node.
	e.snapCur, e.snapPrev = e.ringSlots(r)
	for w := range e.chg {
		e.chg[w] = e.chg[w][:0]
		e.drops[w] = e.drops[w][:0]
	}
	e.runPhase(list, cuts, e.phase2Fn)

	// Fold the per-worker changed shards. Shards are contiguous ascending
	// ranges of the active list, so concatenation in worker order yields
	// the same sorted list for every worker count; quiescent-dropped
	// nodes never change output, so no change is missed.
	changed := e.changed[:0]
	for w := range e.chg {
		changed = append(changed, e.chg[w]...)
	}
	e.changed = changed
	if e.ckptTrack {
		// Every node whose serialized state could move this round is on
		// the phase-time list: wake-ups and diff endpoints were merged in
		// above, and grace-path quiet increments happen on the list too.
		for _, v := range list {
			e.markNodeDirty(v)
		}
		for _, v := range changed {
			e.markOutDirty(v)
		}
	}
	e.applyDrops()

	snap := e.snapCur
	e.round = r
	info := &e.infos[r%len(e.infos)]
	*info = RoundInfo{
		Round: r, Wake: st.Wake, Outputs: snap, Changed: changed,
		EdgeAdds: adds, EdgeRemoves: removes,
		Messages: msgs, Bits: bits,
		eng: e,
	}
	return info
}

// sparseBroadcast is the sparse phase-1 callback: broadcast plus
// per-sender accounting. len(outbox)·deg sums to exactly the
// per-receiver delivery count, since every neighbor of a sender is awake
// and receives the batch (whether or not it is active enough to act on
// it) — which is what lets phase 2 skip quiescent receivers without
// perturbing Messages/Bits.
func (e *Engine) sparseBroadcast(ctx *Ctx, w int, v graph.NodeID) (int, int64) {
	if e.quiet[v] > 0 {
		// Grace fast path: v reported Quiescent with an unchanged output,
		// so by the terminal contract its Broadcast is forever empty —
		// skip the call. The outbox may still hold the batch from the
		// round quiescence was detected and must be emptied.
		e.outbox[v] = e.outbox[v][:0]
		return 0, 0
	}
	deg := e.adj.Degree(v)
	*ctx = Ctx{Node: v, Round: e.stepRound, Seed: e.cfg.Seed, Isolated: deg == 0}
	out := e.states[v].Broadcast(ctx, e.outbox[v][:0])
	e.outbox[v] = out
	return e.sent(w, e.stepRound, v, out, deg)
}

// sent accounts one sender's fresh outbox, delivered to its deg
// neighbors: it returns the delivered message count and declared bits. It
// also enforces the nondecreasing channel order delivery relies on, and
// folds the outbox's channel range — given the order, its two ends —
// into the worker's accounting cell, so that phase 2 sorts by channel
// only in rounds that need it and the barrier can bound the round's
// channel span. An isolated sender delivers nothing, so its messages are
// not sized.
func (e *Engine) sent(w, r int, v graph.NodeID, out []SubMsg, deg int) (int, int64) {
	if len(out) == 0 {
		return 0, 0
	}
	for i := 1; i < len(out); i++ {
		if out[i].Chan < out[i-1].Chan {
			panic(fmt.Sprintf("engine: round %d node %d broadcast channel %d after channel %d — outboxes must be in nondecreasing Chan order", r, v, out[i].Chan, out[i-1].Chan))
		}
	}
	acc := &e.acc[w]
	lo, hi := out[0].Chan, out[len(out)-1].Chan
	if !acc.sending {
		acc.lo, acc.hi, acc.sending = lo, hi, true
	} else {
		acc.lo, acc.hi = min(acc.lo, lo), max(acc.hi, hi)
	}
	var b int64
	if e.sizer != nil && deg > 0 {
		for i := range out {
			b += int64(e.sizer.MessageBits(out[i]))
		}
		b *= int64(deg)
	}
	return len(out) * deg, b
}

// maxChanSpan bounds the number of channels one round's outboxes may
// span: delivery counts messages per channel, at a cost of O(span) per
// receiver.
const maxChanSpan = 1 << 16

// foldChannels folds the per-worker channel ranges of phase 1 at the
// barrier and clears them for the next round. It panics, naming the
// round and both channels, when the round's channels span more than
// maxChanSpan.
func (e *Engine) foldChannels(r int) {
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for w := range e.acc {
		if acc := &e.acc[w]; acc.sending {
			lo, hi = min(lo, acc.lo), max(hi, acc.hi)
			acc.sending = false
		}
	}
	e.multiCh = lo <= hi && (lo != 0 || hi != 0)
	if e.multiCh && int64(hi)-int64(lo) >= maxChanSpan {
		panic(fmt.Sprintf("engine: round %d broadcast channels %d to %d — a round's channels must span at most %d", r, lo, hi, maxChanSpan))
	}
}

// workerScratch is one worker's delivery scratch: the inbox loaned to
// Process and the per-channel counts of the counting sort. Workers store
// the headers back after every node, so each cell is padded out to a
// cache line of its own.
type workerScratch struct {
	inbox []Incoming
	count []int
	_     [16]byte
}

// deliver assembles v's inbox from its neighbors' outboxes in worker w's
// scratch buffer, which keeps its high-water capacity across rounds, so
// delivery stops allocating once the round mix is steady. The inbox is
// stably sorted by Chan — within a channel in adjacency order, then
// outbox order. When every outbox of the round is on channel 0 that is
// plain neighbor order: one pass of appends, the whole cost for
// standalone algorithms. Otherwise it is a counting sort over the
// receiver's channel span [lo, hi]: the ends of each neighbor's sorted
// outbox give the span and the inbox size, one pass counts the messages
// per channel, prefix sums turn the counts into each channel's first
// inbox slot, and a second pass scatters the outboxes in adjacency
// order. The cost is O(deg + messages + span), and the barrier bounds
// the span (foldChannels).
//
// Only active neighbors are read: a node off the active list is
// dropped, with its outbox emptied by applyDrops and kept empty by the
// Quiescer contract, so it has nothing to deliver. The check reads one
// byte of the active bitmap instead of an outbox header, and the bitmap
// is written only serially between phases, so the gate is exact; a node
// revived by this round's topology diff was marked active before phase 1.
func (e *Engine) deliver(w int, nbrs []graph.NodeID) []Incoming {
	sc := &e.scratch[w]
	in := sc.inbox[:0]
	act := e.active
	if !e.multiCh {
		for _, u := range nbrs {
			if !act[u] {
				continue
			}
			run := e.outbox[u]
			for i := range run {
				in = append(in, Incoming{From: u, M: run[i]})
			}
		}
		sc.inbox = in
		return in
	}
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	total := 0
	for _, u := range nbrs {
		if !act[u] {
			continue
		}
		if run := e.outbox[u]; len(run) > 0 {
			lo, hi = min(lo, run[0].Chan), max(hi, run[len(run)-1].Chan)
			total += len(run)
		}
	}
	if total == 0 {
		sc.inbox = in
		return in
	}
	span := int(hi-lo) + 1
	count := slices.Grow(sc.count[:0], span)[:span]
	clear(count)
	for _, u := range nbrs {
		if !act[u] {
			continue
		}
		for _, m := range e.outbox[u] {
			count[m.Chan-lo]++
		}
	}
	next := 0
	for i, c := range count {
		count[i] = next
		next += c
	}
	in = slices.Grow(in, total)[:total]
	for _, u := range nbrs {
		if !act[u] {
			continue
		}
		run := e.outbox[u]
		for i := range run {
			p := &count[run[i].Chan-lo]
			in[*p] = Incoming{From: u, M: run[i]}
			*p++
		}
	}
	sc.inbox, sc.count = in, count
	return in
}

// sparseProcess is the sparse phase-2 callback: deliver, process,
// snapshot, diff and quiesce, fused per node.
func (e *Engine) sparseProcess(ctx *Ctx, w int, v graph.NodeID) (int, int64) {
	if e.quiet[v] > 0 {
		// Grace fast path: a quiescent node's output is frozen regardless
		// of inputs, so delivery and Process are skipped; the node only
		// propagates its terminal value through the snapshot ring until
		// every slot holds it and applyDrops retires it. Any edge touch
		// resets quiet and routes it back through the full path.
		e.snapCur[v] = e.snapPrev[v]
		if e.quiet[v]++; int(e.quiet[v]) > e.lag {
			e.drops[w] = append(e.drops[w], v)
		}
		return 0, 0
	}
	nbrs := e.adj.Neighbors(v)
	in := e.deliver(w, nbrs)
	*ctx = Ctx{Node: v, Round: e.stepRound, Seed: e.cfg.Seed, Isolated: len(nbrs) == 0}
	e.states[v].Process(ctx, in, len(nbrs))
	val := e.states[v].Output()
	e.snapCur[v] = val
	old := problems.Bot
	if e.snapPrev != nil {
		old = e.snapPrev[v]
	}
	if val != old {
		e.chg[w] = append(e.chg[w], v)
		e.quiet[v] = 0
	} else if q := e.quiescer[v]; q != nil && q.Quiescent() {
		// Drop only after the output has been stable for OutputLag+1
		// consecutive quiescent rounds, so every snapshot-ring slot — and
		// therefore Outputs and DelayedOutputs for all future rounds —
		// already holds the terminal value.
		if e.quiet[v]++; int(e.quiet[v]) > e.lag {
			e.drops[w] = append(e.drops[w], v)
		}
	} else {
		e.quiet[v] = 0
	}
	return 0, 0
}

// panicSleepingEdge is the cold path for model violations, kept out of
// the O(|adds|) validation loop.
func panicSleepingEdge(r int, u, v graph.NodeID, uAwake bool) {
	s := u
	if uAwake {
		s = v
	}
	o := u + v - s
	panic(fmt.Sprintf("engine: round %d edge {%d,%d} touches sleeping node", r, s, o))
}

// Run plays the given number of rounds and returns the last round's info
// (nil if rounds <= 0).
func (e *Engine) Run(rounds int) *RoundInfo {
	var last *RoundInfo
	for i := 0; i < rounds; i++ {
		last = e.Step()
	}
	return last
}

// RunUntil plays rounds until pred returns true or maxRounds is reached.
// It returns the round at which pred first held and true, or maxRounds
// and false.
func (e *Engine) RunUntil(maxRounds int, pred func(*RoundInfo) bool) (int, bool) {
	for i := 0; i < maxRounds; i++ {
		info := e.Step()
		if pred(info) {
			return info.Round, true
		}
	}
	return maxRounds, false
}

// Outputs returns the latest output snapshot (nil before round 1). The
// slice is pooled like RoundInfo.Outputs: it stays valid until the engine
// plays OutputLag+1 further rounds; copy to retain beyond that.
//
//dynlint:loan
func (e *Engine) Outputs() []problems.Value {
	if e.round == 0 {
		return nil
	}
	return e.snaps[e.round%len(e.snaps)]
}
