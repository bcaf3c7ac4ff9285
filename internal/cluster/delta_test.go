package cluster

import (
	"fmt"
	"testing"

	"xmlclust/internal/sim"
)

// TestXKMeansDeltaEquivalence pins the full clustering loop byte-identical
// with the delta-round engine on and off — assignments, sizes, iteration
// counts AND representative item sequences — across similarity regimes,
// worker counts and both relocation paths (flat and index-guided).
func TestXKMeansDeltaEquivalence(t *testing.T) {
	corpus := tieHeavyCorpus(t, 50, 23)
	s := corpus.Transactions
	for _, p := range []sim.Params{{F: 0.5, Gamma: 0.6}, {F: 0.5, Gamma: 0.3}, {F: 1, Gamma: 0.7}} {
		cx := sim.NewContext(corpus, p)
		plain := XKMeans(cx, s, Config{K: 5, MaxIter: 8, Seed: 11, Workers: 1})
		for _, workers := range []int{1, 4} {
			for _, indexed := range []bool{false, true} {
				got := XKMeans(cx, s, Config{
					K: 5, MaxIter: 8, Seed: 11, Workers: workers,
					IndexReps: indexed, DeltaRounds: true,
				})
				label := fmt.Sprintf("params %+v workers %d indexed %v", p, workers, indexed)
				assertClusteringsEqual(t, label, plain, got)
			}
		}
	}
}

// TestDeltaRepMemo pins both memos: an unchanged membership fingerprint
// returns the cached representative object (no recomputation, counter
// moves), a changed one recomputes; same for the weighted global merge.
// Reset drops both, so the next lookups recompute.
func TestDeltaRepMemo(t *testing.T) {
	corpus := twoTopicDocs(t, 6)
	s := corpus.Transactions
	cx := ctxFor(corpus, 0.5, 0.6)
	cfg := RepConfig{Ctx: cx, Workers: 1}
	d := NewDeltaState(2)

	membersA, membersB := s[:6], s[6:]
	assign := make([]int, len(s))
	for i := range assign {
		if i < 6 {
			assign[i] = 0
		} else {
			assign[i] = 1
		}
	}
	fps := d.MemberFingerprints(assign)
	fpA, fpB := fps[0], fps[1]

	reused0 := cx.Counters.RepsReused.Load()
	repA := d.LocalRep(cfg, 0, fpA, membersA)
	if repA == nil {
		t.Fatal("nil representative for non-empty cluster")
	}
	if got := d.LocalRep(cfg, 0, fpA, membersA); got != repA {
		t.Error("unchanged membership did not return the memoized representative object")
	}
	if reused := cx.Counters.RepsReused.Load() - reused0; reused != 1 {
		t.Errorf("RepsReused moved by %d, want 1", reused)
	}
	if got := d.LocalRep(cfg, 0, fpB, membersB); got == repA {
		t.Error("changed membership returned the stale memoized representative")
	}

	// Global-representative memo: identical (weight, items) inputs reuse.
	reps := []WeightedRep{{Rep: repA, Weight: 6}}
	g := d.GlobalRep(cfg, 0, reps)
	if got := d.GlobalRep(cfg, 0, reps); got != g {
		t.Error("unchanged weighted inputs did not return the memoized global representative")
	}
	if got := d.GlobalRep(cfg, 0, []WeightedRep{{Rep: repA, Weight: 7}}); got == g && g != nil {
		// A weight change re-ranks: the memo must not serve the old object.
		t.Error("changed weight returned the stale memoized global representative")
	}

	// Reset: the memoized inputs (membership B, weight 7) recompute.
	d.Reset()
	reused0 = cx.Counters.RepsReused.Load()
	d.LocalRep(cfg, 0, fpB, membersB)
	d.GlobalRep(cfg, 0, []WeightedRep{{Rep: repA, Weight: 7}})
	if reused := cx.Counters.RepsReused.Load() - reused0; reused != 0 {
		t.Errorf("RepsReused moved by %d after Reset, want 0", reused)
	}
}
