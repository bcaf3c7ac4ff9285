package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"xmlclust/internal/dataset"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

func runCXKDelta(t testing.TB, cx *sim.Context, corpus *txn.Corpus, k, m int, seed int64, workers int, delta, indexed bool) *Result {
	t.Helper()
	res, err := Run(context.Background(), cx, corpus, Options{
		K: k, Params: cx.Params, Peers: m, Workers: workers,
		Partition:   EqualPartition(len(corpus.Transactions), m, seed),
		Seed:        seed,
		DeltaRounds: delta, IndexReps: indexed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunDeltaEquivalence asserts the collaborative engine produces
// byte-identical results — assignments, rounds AND representative item
// sequences — with the delta-round engine on and off, across network sizes,
// worker counts, both relocation paths and several corpora. This is the
// session-level byte-identity gate of the delta rounds (the representative
// memos and the digest-marker exchange both run in the delta configuration
// here).
func TestRunDeltaEquivalence(t *testing.T) {
	type corpusCase struct {
		name   string
		corpus *txn.Corpus
		k      int
	}
	mini, _ := miniCorpus(t, 8)
	cases := []corpusCase{{"two-topic", mini, 2}}
	for _, ds := range []struct {
		name string
		docs int
	}{{"DBLP", 20}, {"IEEE", 6}} {
		gen, ok := dataset.ByName(ds.name)
		if !ok {
			t.Fatalf("unknown dataset %q", ds.name)
		}
		col := gen(dataset.Spec{Docs: ds.docs, Seed: 99})
		cases = append(cases, corpusCase{ds.name, col.BuildCorpus(dataset.ByHybrid, 24, 1), col.K(dataset.ByHybrid)})
	}
	for _, c := range cases {
		cx := sim.NewContext(c.corpus, sim.Params{F: 0.5, Gamma: 0.7})
		for _, m := range []int{1, 3} {
			plain := runCXKDelta(t, cx, c.corpus, c.k, m, 9, 1, false, false)
			for _, workers := range []int{1, 4} {
				for _, indexed := range []bool{false, true} {
					got := runCXKDelta(t, cx, c.corpus, c.k, m, 9, workers, true, indexed)
					label := fmt.Sprintf("%s m=%d workers=%d indexed=%v delta", c.name, m, workers, indexed)
					assertResultsEqual(t, label, plain, got)
				}
			}
		}
	}
}

// TestRunDeltaCountersAndTraffic pins the observable effects of the delta
// engine on a multi-peer run: the representative-reuse counter moves, unchanged
// representatives ship as digest markers (modeled bytes saved), and the
// total modeled traffic drops below the full-shipping run's.
func TestRunDeltaCountersAndTraffic(t *testing.T) {
	gen, _ := dataset.ByName("DBLP")
	col := gen(dataset.Spec{Docs: 20, Seed: 99})
	corpus := col.BuildCorpus(dataset.ByHybrid, 24, 1)
	k := col.K(dataset.ByHybrid)

	cxOff := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.7})
	off := runCXKDelta(t, cxOff, corpus, k, 3, 9, 1, false, false)
	if got := cxOff.Counters.RepsReused.Load() + cxOff.Counters.DeltaRepBytes.Load(); got != 0 {
		t.Fatalf("delta-off run moved delta counters: %d", got)
	}

	cxOn := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.7})
	on := runCXKDelta(t, cxOn, corpus, k, 3, 9, 1, true, false)
	assertResultsEqual(t, "counters run", off, on)
	if on.Rounds < 3 {
		t.Skipf("run converged in %d rounds; too short to exercise the caches", on.Rounds)
	}
	if v := cxOn.Counters.RepsReused.Load(); v == 0 {
		t.Error("RepsReused did not move on a multi-round delta run")
	}
	if v := cxOn.Counters.DeltaRepBytes.Load(); v <= 0 {
		t.Error("DeltaRepBytes did not move: no representative shipped as a digest marker")
	}
	offMsgs, offBytes := off.TotalTraffic()
	onMsgs, onBytes := on.TotalTraffic()
	if onMsgs != offMsgs {
		t.Errorf("delta exchange changed the message count: %d vs %d", onMsgs, offMsgs)
	}
	if onBytes >= offBytes {
		t.Errorf("delta exchange did not reduce modeled traffic: %d B vs %d B", onBytes, offBytes)
	}
}

// TestRunPeerDeltaMismatchFails drives the wire-protocol agreement check:
// a peer that disables delta rounds while the coordinator announces the
// delta exchange (or vice versa) must fail fast with ErrConfigMismatch
// instead of stalling on markers it cannot expand.
func TestRunPeerDeltaMismatchFails(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2, Sizer(corpus.Items))
	defer tr.Close()
	errc := make(chan error, 2)
	for id, delta := range map[int]bool{0: true, 1: false} {
		go func(id int, delta bool) {
			cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
			_, err := RunPeer(context.Background(), cx, corpus, Options{
				K: 2, Params: cx.Params, Peers: 2,
				Partition: EqualPartition(len(corpus.Transactions), 2, 3),
				Seed:      3, Transport: tr, RoundTimeout: 2 * time.Second,
				DeltaRounds: delta,
			}, id)
			errc <- err
		}(id, delta)
	}
	sawMismatch := false
	for i := 0; i < 2; i++ {
		err := <-errc
		if err == nil {
			t.Fatal("mismatched delta modes must not produce a result")
		}
		if errors.Is(err, ErrConfigMismatch) {
			sawMismatch = true
		}
	}
	if !sawMismatch {
		t.Error("no peer reported ErrConfigMismatch")
	}
}

// TestDeltaMarkerWithoutCacheFails pins the receiver-side protocol error: a
// digest marker for a representative the receiver never cached (or whose
// digest disagrees) is a protocol violation, not something to paper over.
func TestDeltaMarkerWithoutCacheFails(t *testing.T) {
	corpus, _ := miniCorpus(t, 4)
	tr := p2p.NewChanTransport(2, nil)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 2, 1)
	p := testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) { cfg.DeltaRounds = true })
	s := newSession(p)
	start := startMsgFor(2, 2)
	start.DeltaExchange = true
	if err := tr.Send(0, 0, start); err != nil {
		t.Fatal(err)
	}
	if err := s.step(context.Background()); err != nil {
		t.Fatal(err)
	}

	// No full representative for cluster 0 was ever received from peer 1:
	// the marker has nothing to expand.
	_, err := s.expandLocalReps(LocalRepsMsg{
		From: 1, Round: 0,
		Unchanged: map[int]UnchangedRep{0: {Weight: 2, Digest: 0xdead}},
	})
	if !errors.Is(err, ErrUnexpectedMessage) {
		t.Fatalf("stray marker: want ErrUnexpectedMessage, got %v", err)
	}

	// A cached representative with a disagreeing digest is just as fatal.
	w := toWire(corpus.Items, corpus.Transactions[0])
	if _, err := s.expandLocalReps(LocalRepsMsg{
		From: 1, Round: 0,
		Reps: map[int]WeightedWireRep{0: {Rep: w, Weight: 2}},
	}); err != nil {
		t.Fatalf("full representative must expand cleanly: %v", err)
	}
	_, err = s.expandLocalReps(LocalRepsMsg{
		From: 1, Round: 1,
		Unchanged: map[int]UnchangedRep{0: {Weight: 2, Digest: wireDigest(w) + 1}},
	})
	if !errors.Is(err, ErrUnexpectedMessage) {
		t.Fatalf("digest mismatch: want ErrUnexpectedMessage, got %v", err)
	}

	// The matching digest expands to the cached representative with the
	// marker's weight.
	reps, err := s.expandLocalReps(LocalRepsMsg{
		From: 1, Round: 1,
		Unchanged: map[int]UnchangedRep{0: {Weight: 5, Digest: wireDigest(w)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reps[0]
	if !ok || got.Weight != 5 || wireDigest(got.Rep) != wireDigest(w) {
		t.Fatalf("marker expansion: got %+v, want cached rep at weight 5", got)
	}
}

// TestSessionOneRelocationPassPerRound pins Fig. 5's relocation step: each
// round relocates every local transaction exactly once against the fixed
// globals. With the index on, one pass moves IndexCandidates + IndexSkipped
// by exactly Active() × len(Local), so every relocate phase of an R-round
// session must move them by that much, and R phases must run.
func TestSessionOneRelocationPassPerRound(t *testing.T) {
	gen, _ := dataset.ByName("DBLP")
	col := gen(dataset.Spec{Docs: 30, Seed: 99})
	corpus := col.BuildCorpus(dataset.ByHybrid, 24, 1)
	k := col.K(dataset.ByHybrid)
	tr := p2p.NewChanTransport(1, nil)
	defer tr.Close()
	part := EqualPartition(len(corpus.Transactions), 1, 9)
	s := newSession(testPeer(corpus, tr, 0, part, func(cfg *PeerConfig) { cfg.IndexReps = true }))
	if err := tr.Send(0, 0, startMsgFor(k, 1)); err != nil {
		t.Fatal(err)
	}
	ctrs := &s.p.cfg.Ctx.Counters
	passes := 0
	for s.phase != PhaseDone {
		relocating := s.phase == PhaseRelocate
		before := ctrs.IndexCandidates.Load() + ctrs.IndexSkipped.Load()
		if err := s.step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !relocating {
			continue
		}
		passes++
		if !s.repIndex.Enabled() {
			t.Fatal("index unexpectedly disabled")
		}
		want := int64(s.repIndex.Active()) * int64(len(s.p.cfg.Local))
		if got := ctrs.IndexCandidates.Load() + ctrs.IndexSkipped.Load() - before; got != want {
			t.Errorf("round %d: relocation touched %d representative slots, want one pass = %d", s.round, got, want)
		}
	}
	if s.rounds < 3 {
		t.Fatalf("session ran %d rounds; too short to show a per-round pass count", s.rounds)
	}
	if passes != s.rounds {
		t.Errorf("%d relocate phases for %d rounds", passes, s.rounds)
	}
}
