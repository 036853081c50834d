package ckpt_test

import (
	"bytes"
	"errors"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

// TestStickyWriteError verifies that a failed chain write surfaces and
// stops the append, and that Engine.WriteRecord notes nothing when its
// write fails, so the next delta still diffs against the record that
// persisted.
func TestStickyWriteError(t *testing.T) {
	rec := ckpt.NewWriter(nil)
	rec.String("record")
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	for limit := 0; limit < 2; limit++ {
		fw := &failAfter{limit: limit}
		if err := ckpt.AppendChainRecord(fw, rec); err == nil {
			t.Errorf("limit %d: AppendChainRecord swallowed the write error", limit)
		}
		if fw.writes > limit+1 {
			t.Errorf("limit %d: kept writing after the error: %d writes", limit, fw.writes)
		}
	}

	const n = 64
	cfg := engine.Config{N: n, Seed: 1, Workers: 1}
	mk := func() *engine.Engine {
		base := graph.GNP(n, 6.0/n, prf.NewStream(7, 0, 0, prf.PurposeWorkload))
		return engine.New(cfg, &adversary.Churn{Base: base, Add: 2, Del: 2, Seed: 3}, mis.NewDynamic(n))
	}
	e := mk()
	e.Run(4)
	// A base fails at the magic, the length prefix or the body.
	for limit := 0; limit < 3; limit++ {
		if err := e.WriteRecord(&failAfter{limit: limit}, true, nil); err == nil {
			t.Fatalf("limit %d: base record over a failing writer succeeded", limit)
		}
		if seq := e.ChainSeq(); seq != 0 {
			t.Fatalf("limit %d: failed base noted, ChainSeq = %d", limit, seq)
		}
	}
	var chain bytes.Buffer
	if err := e.WriteRecord(&chain, true, nil); err != nil {
		t.Fatal(err)
	}
	e.Run(4)
	// A delta fails at the length prefix or the body.
	for limit := 0; limit < 2; limit++ {
		if err := e.WriteRecord(&failAfter{limit: limit}, false, nil); err == nil {
			t.Fatalf("limit %d: delta record over a failing writer succeeded", limit)
		}
		if seq := e.ChainSeq(); seq != 1 {
			t.Fatalf("limit %d: failed delta noted, ChainSeq = %d", limit, seq)
		}
	}
	if err := e.WriteRecord(&chain, false, nil); err != nil {
		t.Fatal(err)
	}
	r := mk()
	if err := r.ReadChain(bytes.NewReader(chain.Bytes()), nil, nil); err != nil {
		t.Fatalf("chain around the failed writes: %v", err)
	}
	if r.Round() != e.Round() || r.ChainSeq() != 2 {
		t.Fatalf("restored round %d seq %d, want round %d seq 2", r.Round(), r.ChainSeq(), e.Round())
	}
}

// failAfter accepts limit writes then fails every subsequent one.
type failAfter struct {
	limit  int
	writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.limit {
		return 0, errors.New("injected write failure")
	}
	return len(p), nil
}
