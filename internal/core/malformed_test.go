package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xmlclust/internal/p2p"
	"xmlclust/internal/txn"
)

// TestMalformedRepsRejected sends malformed representative messages
// through the in-process transport into a live two-peer session: item ids
// outside the interning table, cluster ids outside [0,k), cluster weights
// outside [1,|S|] and a bogus sender must each fail the phase with
// ErrUnexpectedMessage, never panic.
func TestMalformedRepsRejected(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	good := toWire(corpus.Items, corpus.Transactions[0])
	n := txn.ItemID(corpus.Items.Len())
	bad := func(ids ...txn.ItemID) WireTxn {
		return WireTxn{Items: append(append([]txn.ItemID(nil), good.Items...), ids...)}
	}

	// open drives peer 0 of a k=2, m=2 run up to the given phase.
	open := func(t *testing.T, phase Phase) (*session, *p2p.ChanTransport) {
		tr := p2p.NewChanTransport(2, nil)
		t.Cleanup(func() { tr.Close() })
		part := EqualPartition(len(corpus.Transactions), 2, 1)
		s := newSession(testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) { cfg.DeltaRounds = true }))
		start := startMsgFor(2, 2)
		start.DeltaExchange = true
		start.Txns = len(corpus.Transactions)
		if err := tr.Send(0, 0, start); err != nil {
			t.Fatal(err)
		}
		if phase != PhaseBroadcastGlobals {
			if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 0, Reps: map[int]WireTxn{1: good}}); err != nil {
				t.Fatal(err)
			}
		}
		for s.phase != phase {
			if err := s.step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		return s, tr
	}
	expectRejected := func(t *testing.T, s *session, tr *p2p.ChanTransport, msg any) error {
		t.Helper()
		if err := tr.Send(1, 0, msg); err != nil {
			t.Fatal(err)
		}
		err := s.step(context.Background())
		if !errors.Is(err, ErrUnexpectedMessage) {
			t.Fatalf("want ErrUnexpectedMessage, got %v", err)
		}
		return err
	}

	globals := map[string]map[int]WireTxn{
		"item id past table": {1: bad(n)},
		"negative item id":   {1: bad(-1)},
		"cluster id k":       {2: good},
		"negative cluster":   {-1: good},
	}
	for name, reps := range globals {
		t.Run("GlobalRepsMsg/"+name, func(t *testing.T) {
			s, tr := open(t, PhaseBroadcastGlobals)
			expectRejected(t, s, tr, GlobalRepsMsg{From: 1, Round: 0, Reps: reps})
		})
	}

	locals := map[string]LocalRepsMsg{
		"item id past table":  {From: 1, Flag: FlagContinue, Reps: map[int]WeightedWireRep{1: {Rep: bad(n + 7), Weight: 1}}},
		"negative item id":    {From: 1, Flag: FlagContinue, Reps: map[int]WeightedWireRep{0: {Rep: bad(-3), Weight: 1}}},
		"cluster id k":        {From: 1, Flag: FlagContinue, Reps: map[int]WeightedWireRep{2: {Rep: good, Weight: 1}}},
		"negative cluster":    {From: 1, Flag: FlagContinue, Reps: map[int]WeightedWireRep{-1: {Rep: good, Weight: 1}}},
		"marker cluster k":    {From: 1, Flag: FlagContinue, Unchanged: map[int]UnchangedRep{5: {Weight: 1}}},
		"sender out of range": {From: 9, Flag: FlagContinue, Reps: map[int]WeightedWireRep{0: {Rep: good, Weight: 1}}},
		"sender is receiver":  {From: 0, Flag: FlagContinue},
	}
	for name, msg := range locals {
		t.Run("LocalRepsMsg/"+name, func(t *testing.T) {
			s, tr := open(t, PhaseExchangeLocals)
			expectRejected(t, s, tr, msg)
		})
	}

	// Weights rank the items of the global representative, and a sender
	// ships only non-empty clusters of the |S|-transaction corpus: a valid
	// weight lies in [1,|S|]. The error must name the weight, because a
	// stray marker fails later anyway (no cached representative).
	txns := len(corpus.Transactions)
	weights := map[string]LocalRepsMsg{
		"zero weight":               {From: 1, Flag: FlagContinue, Reps: map[int]WeightedWireRep{1: {Rep: good, Weight: 0}}},
		"negative weight":           {From: 1, Flag: FlagContinue, Reps: map[int]WeightedWireRep{1: {Rep: good, Weight: -3}}},
		"weight past corpus":        {From: 1, Flag: FlagContinue, Reps: map[int]WeightedWireRep{1: {Rep: good, Weight: txns + 1}}},
		"marker zero weight":        {From: 1, Flag: FlagContinue, Unchanged: map[int]UnchangedRep{1: {Weight: 0}}},
		"marker weight past corpus": {From: 1, Flag: FlagContinue, Unchanged: map[int]UnchangedRep{1: {Weight: txns + 1}}},
	}
	for name, msg := range weights {
		t.Run("LocalRepsMsg/"+name, func(t *testing.T) {
			s, tr := open(t, PhaseExchangeLocals)
			if err := expectRejected(t, s, tr, msg); !strings.Contains(err.Error(), "weight") {
				t.Errorf("rejected for another reason: %v", err)
			}
		})
	}

	// Startup buffers round traffic that overtakes the StartMsg; it is
	// checked when the round consumes it.
	t.Run("GlobalRepsMsg/buffered before StartMsg", func(t *testing.T) {
		tr := p2p.NewChanTransport(2, nil)
		t.Cleanup(func() { tr.Close() })
		part := EqualPartition(len(corpus.Transactions), 2, 1)
		s := newSession(testPeer(corpus, tr, 0, part, nil))
		if err := tr.Send(1, 0, GlobalRepsMsg{From: 1, Round: 0, Reps: map[int]WireTxn{1: bad(n)}}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(0, 0, startMsgFor(2, 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.step(context.Background()); err != nil { // startup
			t.Fatal(err)
		}
		if err := s.step(context.Background()); !errors.Is(err, ErrUnexpectedMessage) {
			t.Fatalf("want ErrUnexpectedMessage, got %v", err)
		}
	})

	// A restored or transferred session keeps the weight bound.
	t.Run("SessionState/weight bound survives install", func(t *testing.T) {
		s, _ := open(t, PhaseRelocate)
		st := s.capture()
		s.txns = 0
		if err := s.install(st); err != nil {
			t.Fatal(err)
		}
		if s.txns != txns {
			t.Fatalf("installed session bounds weights by %d, want %d", s.txns, txns)
		}
	})

	// A checkpoint or state transfer is peer-supplied too.
	t.Run("SessionState/item id past table", func(t *testing.T) {
		s, _ := open(t, PhaseRelocate)
		st := s.capture()
		st.Global[0] = bad(n)
		if err := s.install(st); !errors.Is(err, ErrUnexpectedMessage) {
			t.Fatalf("want ErrUnexpectedMessage, got %v", err)
		}
	})
}
