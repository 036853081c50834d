package engine

import (
	"runtime"

	"dynlocal/internal/graph"
)

// serialThreshold is the node count below which sharding overhead exceeds
// the benefit and phases run on the calling goroutine.
const serialThreshold = 512

// phaseFunc processes one node and returns its delivered message count and
// declared bits (both zero for phases without accounting). ctx is a
// per-worker scratch the callback must fully overwrite before use: a
// per-node stack Ctx would escape to the heap at every interface call. w is
// the worker index (0 on the serial path), letting callbacks append to
// per-worker buffers — e.g. the changed-output shards — without contention.
type phaseFunc func(ctx *Ctx, w int, v graph.NodeID) (msgs int, bits int64)

// workerAcc is a per-worker accounting cell, padded out to a cache line so
// concurrent workers do not false-share. Phase 1 sets sending when a
// sender of the worker's shard broadcasts; lo and hi are then the lowest
// and highest channel of the shard's outboxes (see Engine.sent).
type workerAcc struct {
	msgs    int
	bits    int64
	lo, hi  int32
	sending bool
	_       [39]byte
}

// runPhase applies fn to every node of the sorted active list and returns
// the summed accounting. Nodes on the list are awake by construction, so
// there is no bitmap gate; the whole round does no work proportional to
// n. Shards are the contiguous list ranges of cuts (listCuts; nil runs
// the phase serially), run on the persistent phasePool workers.
//
// fn must only touch state owned by its node (plus read-only shared
// state), which both engine phases guarantee. Accounting is summed
// per worker and folded at the barrier; integer addition is exact and
// order-independent, so outputs and totals are bit-identical for every
// worker count.
func (e *Engine) runPhase(list []graph.NodeID, cuts []int, fn phaseFunc) (int, int64) {
	if cuts == nil {
		// The scratch Ctx lives on the Engine, not the stack: fn is a
		// dynamic func value, so a local would escape and allocate on
		// every phase of every round.
		ctx := &e.sctx
		var msgs int
		var bits int64
		for _, v := range list {
			m, b := fn(ctx, 0, v)
			msgs += m
			bits += b
		}
		return msgs, bits
	}
	p := e.ensurePool()
	p.cuts = cuts
	p.list = list
	p.fn = fn
	for _, c := range p.work {
		c <- struct{}{}
	}
	for range p.work {
		<-p.done
	}
	p.list, p.fn = nil, nil
	var msgs int
	var bits int64
	for w := range e.acc {
		msgs += e.acc[w].msgs
		bits += e.acc[w].bits
	}
	return msgs, bits
}

// phasePool is the persistent worker set behind runPhase: one goroutine
// per worker, parked on a channel between phases, so a sharded sparse
// phase costs only channel operations — no goroutine spawns and no
// closure allocations per round. The channel sends publish cuts/list/fn
// to the workers and the dones publish the accounting back (channel
// happens-before on both edges), preserving the determinism contract:
// sharding is identical to spawning fresh goroutines.
//
// The pool must not keep the Engine reachable while idle — fn (which
// captures the engine) and list are cleared after every phase, and the
// remaining fields alias engine-owned backing arrays without referencing
// the Engine itself — so an abandoned Engine is collectable and its
// finalizer shuts the workers down by closing the work channels.
type phasePool struct {
	acc  []workerAcc
	cuts []int
	list []graph.NodeID
	fn   phaseFunc
	work []chan struct{}
	done chan struct{}
}

func (e *Engine) ensurePool() *phasePool {
	if e.pool == nil {
		p := &phasePool{
			acc:  e.acc,
			work: make([]chan struct{}, e.workers),
			done: make(chan struct{}, e.workers),
		}
		for w := range p.work {
			p.work[w] = make(chan struct{}, 1)
			go p.worker(w)
		}
		e.pool = p
		runtime.SetFinalizer(e, func(e *Engine) { e.pool.shutdown() })
	}
	return e.pool
}

func (p *phasePool) shutdown() {
	for _, c := range p.work {
		close(c)
	}
}

func (p *phasePool) worker(w int) {
	var ctx Ctx
	for range p.work[w] {
		lo, hi := p.cuts[w], p.cuts[w+1]
		var msgs int
		var bits int64
		for _, v := range p.list[lo:hi] {
			m, b := p.fn(&ctx, w, v)
			msgs += m
			bits += b
		}
		p.acc[w].msgs = msgs
		p.acc[w].bits = bits
		p.done <- struct{}{}
	}
}

// listCuts cuts the active list into one contiguous index range per
// worker with near-equal total weight, where node v weighs deg(v)+1 in
// the current dynamic adjacency, or returns nil when the list is too
// short to shard (or there is one worker) and phases run serially. It
// costs one pass over the list, O(active + workers); weighing by degree
// keeps skewed-degree graphs (stars, heavy-tailed churn) from piling
// their edge work onto one worker. A round cuts once for both phases:
// neither the list nor the adjacency changes between them. The cuts
// slice is reused across rounds.
func (e *Engine) listCuts(list []graph.NodeID) []int {
	if e.workers <= 1 || len(list) < serialThreshold {
		return nil
	}
	total := 0
	for _, v := range list {
		total += e.adj.Degree(v) + 1
	}
	cuts := append(e.cuts[:0], 0)
	acc, i := 0, 0
	for w := 1; w < e.workers; w++ {
		target := total * w / e.workers
		for i < len(list) && acc < target {
			acc += e.adj.Degree(list[i]) + 1
			i++
		}
		cuts = append(cuts, i)
	}
	cuts = append(cuts, len(list))
	e.cuts = cuts
	return cuts
}
