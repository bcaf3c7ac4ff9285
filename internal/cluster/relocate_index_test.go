package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// tieHeavyCorpus generates a randomized corpus engineered for similarity
// ties: documents are drawn from a handful of templates over a tiny tag and
// word vocabulary, so many (document, representative) pairs score exactly
// equal and the lowest-index tie rule is exercised constantly — the
// adversarial shape for a reordered candidate scan.
func tieHeavyCorpus(t testing.TB, n int, seed int64) *txn.Corpus {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tags := [][2]string{{"paper", "writer"}, {"report", "editor"}, {"paper", "editor"}}
	words := []string{"alpha", "beta", "gamma", "delta"}
	var trees []*xmltree.Tree
	for i := 0; i < n; i++ {
		tg := tags[rng.Intn(len(tags))]
		w1 := words[rng.Intn(len(words))]
		w2 := words[rng.Intn(len(words))]
		doc := fmt.Sprintf(`<db><%s key="d%d"><%s>%s %s</%s><venue>%s</venue></%s></db>`,
			tg[0], i, tg[1], w1, w2, tg[1], words[rng.Intn(len(words))], tg[0])
		tree, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	corpus := txn.Build(trees, txn.BuildOptions{})
	weighting.Apply(corpus)
	return corpus
}

// indexParamsGrid covers every regime of the representative index: tag-only
// qualification (f ≥ γ), term-only (1−f ≥ γ), both-channel AND (γ above
// each individually), the exact f = γ boundary, γ = 0 (index disabled, flat
// fallback) and an unreachable γ (no candidates at all).
var indexParamsGrid = []sim.Params{
	{F: 0.5, Gamma: 0.6}, // AND regime: needs tag AND term sharing
	{F: 0.5, Gamma: 0.4}, // tag or term alone qualifies
	{F: 0.5, Gamma: 0.9}, // high-γ AND regime
	{F: 1, Gamma: 0.7},   // structure only
	{F: 0, Gamma: 0.4},   // content only
	{F: 0.6, Gamma: 0.6}, // f = γ boundary (tagQ inclusive edge)
	{F: 0.3, Gamma: 0.7}, // termQ false, tagQ false, bothQ true
	{F: 0.5, Gamma: 0},   // index disabled: flat fallback
	{F: 0.5, Gamma: 1},   // γ = 1 edge
}

// TestRelocateIndexEquivalence pins the index-guided relocation
// byte-identical to the flat scan — assignment AND winning similarity —
// per document and through the batch scan, across the regime grid, on both the structured two-topic
// fixture and a randomized tie-heavy corpus, against raw initial and
// refined synthetic representatives, for workers ∈ {1, 4}. The parallel
// runs also go through postings-only indexes (pruning off), and each run
// gets a fresh index, so its workers race to build the postings on first
// use.
func TestRelocateIndexEquivalence(t *testing.T) {
	corpora := map[string]*txn.Corpus{
		"twoTopic": twoTopicDocs(t, 10),
		"tieHeavy": tieHeavyCorpus(t, 60, 17),
	}
	for name, corpus := range corpora {
		s := corpus.Transactions
		for _, p := range indexParamsGrid {
			cx := sim.NewContext(corpus, p)
			rng := rand.New(rand.NewSource(31))
			initial := SelectInitial(s, 6, rng)
			cl := XKMeans(cx, s, Config{K: 6, MaxIter: 3, Seed: 31, Workers: 1})
			for ri, reps := range [][]*txn.Transaction{initial, cl.Reps} {
				ix := sim.NewRepIndex()
				ix.Build(cx, reps)
				sc := sim.NewScratch()
				rq := sim.NewRepQuery()
				wantSims := make([]float64, len(s))
				for i, tr := range s {
					wantJ, wantV := RelocateOne(cx, tr, reps, nil, nil, sc)
					gotJ, gotV := RelocateOne(cx, tr, reps, ix, rq, sc)
					if gotJ != wantJ || gotV != wantV {
						t.Fatalf("%s params %+v reps#%d doc %d: indexed (%d, %v) != flat (%d, %v)",
							name, p, ri, i, gotJ, gotV, wantJ, wantV)
					}
					wantSims[i] = wantV
				}
				want := relocateFlat(cx, s, reps, 1)
				for _, workers := range []int{1, 4} {
					for _, prune := range []bool{true, false} {
						fresh := sim.NewRepIndex()
						fresh.BuildMode(cx, reps, prune)
						sims := make([]float64, len(s))
						got, err := RelocateCtxIndexed(nil, cx, s, reps, workers, fresh, sims)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if got[i] != want[i] || sims[i] != wantSims[i] {
								t.Fatalf("%s params %+v reps#%d workers %d prune %v: batch (%d, %v) diverges at %d from (%d, %v)",
									name, p, ri, workers, prune, got[i], sims[i], i, want[i], wantSims[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestRelocateIndexCounters pins the work accounting: per document the
// evaluated candidates and the skipped representatives sum to exactly the
// active (non-nil, non-empty) representative count.
func TestRelocateIndexCounters(t *testing.T) {
	corpus := tieHeavyCorpus(t, 40, 3)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	cl := XKMeans(cx, s, Config{K: 5, MaxIter: 3, Seed: 7, Workers: 1})
	ix := sim.NewRepIndex()
	ix.Build(cx, cl.Reps)
	if !ix.Enabled() {
		t.Fatal("index unexpectedly disabled")
	}
	cand0 := cx.Counters.IndexCandidates.Load()
	skip0 := cx.Counters.IndexSkipped.Load()
	if _, err := RelocateCtxIndexed(nil, cx, s, cl.Reps, 4, ix); err != nil {
		t.Fatal(err)
	}
	cand := cx.Counters.IndexCandidates.Load() - cand0
	skip := cx.Counters.IndexSkipped.Load() - skip0
	if total := cand + skip; total != int64(ix.Active())*int64(len(s)) {
		t.Fatalf("candidates %d + skipped %d = %d, want active %d × docs %d = %d",
			cand, skip, total, ix.Active(), len(s), int64(ix.Active())*int64(len(s)))
	}
	if cand <= 0 {
		t.Fatal("no candidates evaluated — relocation cannot have assigned anything")
	}
}

// TestXKMeansIndexEquivalence runs the full clustering loop with the
// representative index on and off and requires byte-identical assignments
// AND representatives (item id sequences, not just set equality) for
// workers ∈ {1, 4}.
func TestXKMeansIndexEquivalence(t *testing.T) {
	corpus := tieHeavyCorpus(t, 50, 23)
	s := corpus.Transactions
	for _, p := range []sim.Params{{F: 0.5, Gamma: 0.6}, {F: 0.5, Gamma: 0.3}, {F: 1, Gamma: 0.7}} {
		cx := sim.NewContext(corpus, p)
		flat := XKMeans(cx, s, Config{K: 5, MaxIter: 5, Seed: 11, Workers: 1})
		for _, workers := range []int{1, 4} {
			indexed := XKMeans(cx, s, Config{K: 5, MaxIter: 5, Seed: 11, Workers: workers, IndexReps: true})
			if !assignEqual(indexed.Assign, flat.Assign) {
				t.Fatalf("params %+v workers %d: indexed assignments diverge from flat", p, workers)
			}
			if len(indexed.Reps) != len(flat.Reps) {
				t.Fatalf("params %+v workers %d: rep count %d != %d", p, workers, len(indexed.Reps), len(flat.Reps))
			}
			for j := range flat.Reps {
				a, b := indexed.Reps[j], flat.Reps[j]
				switch {
				case a == nil && b == nil:
					continue
				case a == nil || b == nil:
					t.Fatalf("params %+v workers %d: rep %d nil-ness differs", p, workers, j)
				}
				if len(a.Items) != len(b.Items) {
					t.Fatalf("params %+v workers %d: rep %d length %d != %d", p, workers, j, len(a.Items), len(b.Items))
				}
				for x := range a.Items {
					if a.Items[x] != b.Items[x] {
						t.Fatalf("params %+v workers %d: rep %d item %d: %d != %d",
							p, workers, j, x, a.Items[x], b.Items[x])
					}
				}
			}
		}
	}
}

// TestRelocateOneIndexedZeroAllocWarm extends the CI allocation guards to
// the indexed assignment path: with a warm scratch, query state and index,
// RelocateOne through the index performs zero heap allocations.
// A companion check pins the per-round index rebuild to zero steady-state
// allocations too (all slabs and maps are reused), counting the
// representatives' term postings, which the index builds on first use.
func TestRelocateOneIndexedZeroAllocWarm(t *testing.T) {
	corpus := twoTopicDocs(t, 12)
	s := corpus.Transactions
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	cl := XKMeans(cx, s, Config{K: 4, MaxIter: 3, Seed: 3, Workers: 1})
	reps := cl.Reps
	ix := sim.NewRepIndex()
	ix.Build(cx, reps)
	if !ix.Enabled() {
		t.Fatal("index unexpectedly disabled")
	}
	sc := sim.NewScratch()
	rq := sim.NewRepQuery()
	for _, tr := range s {
		RelocateOne(cx, tr, reps, ix, rq, sc)
	}
	if avg := testing.AllocsPerRun(200, func() {
		RelocateOne(cx, s[0], reps, ix, rq, sc)
	}); avg != 0 {
		t.Errorf("warm indexed RelocateOne allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		ix.Build(cx, reps)
		for j := range reps {
			ix.Postings(j)
		}
	}); avg != 0 {
		t.Errorf("warm index rebuild allocates %.2f/op, want 0", avg)
	}
}
