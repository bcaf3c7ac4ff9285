package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// The seed (pre-kernel) oracle the property tests pin the kernel against
// lives in seed.go as SeedMatchSet/SeedTransactions — one frozen snapshot
// shared with the speedup-vs-seed baselines of
// internal/cluster/bench_test.go and cxkbench's kernel experiment.

// randomKernelCorpus builds a synthetic corpus straight from the interning
// tables: nItems items over a deliberately small path and vector vocabulary
// (so exact similarity ties — the case that makes naive pruning bounds
// unsound — occur constantly) and nTxns random transactions over them,
// including empty and single-item ones.
func randomKernelCorpus(rng *rand.Rand, nItems, nTxns int) *txn.Corpus {
	paths := xmltree.NewPathTable()
	tags := []string{"a", "b", "c"}
	var pids []xmltree.PathID
	for _, t1 := range tags {
		for _, t2 := range tags {
			pids = append(pids, paths.Intern(xmltree.Path{"root", t1, t2, "S"}))
		}
	}
	// Four vector patterns shared across many items: identical contents at
	// identical paths intern to the same item, identical contents at
	// different paths force exact content-cosine ties.
	vecs := []map[int32]float64{
		{1: 1.0},
		{1: 0.5, 2: 0.5},
		{3: 1.0, 4: 0.25},
		{5: 0.75},
	}
	answers := []string{"x", "y", "z", "w"}
	items := txn.NewItemTable(paths)
	var ids []txn.ItemID
	for i := 0; i < nItems; i++ {
		v := rng.Intn(len(vecs))
		id := items.Intern(pids[rng.Intn(len(pids))], answers[v]+answers[rng.Intn(len(answers))])
		items.SetVector(id, vector.FromMap(vecs[v]))
		ids = append(ids, id)
	}
	trs := make([]*txn.Transaction, nTxns)
	for i := range trs {
		n := rng.Intn(9) // 0..8 items, duplicates removed by NewTransaction
		pick := make([]txn.ItemID, n)
		for j := range pick {
			pick[j] = ids[rng.Intn(len(ids))]
		}
		trs[i] = txn.NewTransaction(pick, i, 0, -1)
	}
	return &txn.Corpus{Paths: paths, Items: items, Transactions: trs}
}

var kernelParamsGrid = []Params{
	{F: 0, Gamma: 0},
	{F: 0, Gamma: 0.9},
	{F: 0.5, Gamma: 0.4},
	{F: 0.5, Gamma: 0.8},
	{F: 1, Gamma: 0.6},
	{F: 1, Gamma: 0.999},
}

// conflatedKernelCorpus builds the content shapes of Eq. 1 that the
// postings path must reproduce bit for bit: document transactions of short
// items (0–4 terms over a 120-term vocabulary, zero-vector items included)
// and representative transactions whose items are conflations — TCU
// vectors summed over 12 document items and topped up to at least 32
// terms, so every one is ≥8× longer than any document item — mixed with a
// twin of a document item (identical terms, another id), the document item
// itself, an item disjoint from every document term and a zero-vector item.
// The first docTxns transactions are the documents.
func conflatedKernelCorpus(rng *rand.Rand) (corpus *txn.Corpus, docTxns int) {
	paths := xmltree.NewPathTable()
	var pids []xmltree.PathID
	for _, tag := range []string{"a", "b", "c"} {
		pids = append(pids, paths.Intern(xmltree.Path{"root", tag, "S"}))
	}
	items := txn.NewItemTable(paths)
	const vocab = 120
	var docItems []txn.ItemID
	var docVecs []vector.Sparse
	for i := 0; i < 40; i++ {
		id := items.Intern(pids[rng.Intn(len(pids))], fmt.Sprintf("d%d", i))
		m := map[int32]float64{}
		for n := rng.Intn(5); len(m) < n; {
			m[int32(rng.Intn(vocab))] = 0.25 + rng.Float64()
		}
		v := vector.FromMap(m)
		if !v.IsZero() {
			items.SetVector(id, v)
		}
		docItems = append(docItems, id)
		docVecs = append(docVecs, v)
	}
	var longItems []txn.ItemID
	for i := 0; i < 12; i++ {
		perm := rng.Perm(len(docItems))[:12]
		group := make([]txn.ItemID, len(perm))
		vecs := make([]vector.Sparse, len(perm))
		for g, d := range perm {
			group[g], vecs[g] = docItems[d], docVecs[d]
		}
		v := vector.Sum(vecs...)
		for v.Len() < 32 {
			v = vector.Add(v, vector.FromMap(map[int32]float64{int32(rng.Intn(vocab)): 0.5 + rng.Float64()}))
		}
		longItems = append(longItems, items.InternSynthetic(pids[rng.Intn(len(pids))], fmt.Sprintf("r%d", i), v, group))
	}
	disjoint := items.Intern(pids[0], "disjoint")
	items.SetVector(disjoint, vector.FromMap(map[int32]float64{vocab + 1: 1, vocab + 2: 2}))
	zero := items.Intern(pids[1], "zero")

	var trs []*txn.Transaction
	for i := 0; i < 10; i++ {
		pick := make([]txn.ItemID, 1+rng.Intn(6))
		for j := range pick {
			pick[j] = docItems[rng.Intn(len(docItems))]
		}
		trs = append(trs, txn.NewTransaction(pick, len(trs), 0, -1))
	}
	docTxns = len(trs)
	for i := 0; i < 6; i++ {
		pick := []txn.ItemID{disjoint, zero}[:rng.Intn(3)]
		for n := 2 + rng.Intn(4); n > 0; n-- {
			pick = append(pick, longItems[rng.Intn(len(longItems))])
		}
		d := rng.Intn(len(docItems))
		twin := items.Intern(pids[rng.Intn(len(pids))], fmt.Sprintf("twin%d", i))
		if !docVecs[d].IsZero() {
			items.SetVector(twin, docVecs[d])
		}
		pick = append(pick, twin, docItems[d])
		trs = append(trs, txn.NewTransaction(pick, len(trs), 0, -1))
	}
	return &txn.Corpus{Paths: paths, Items: items, Transactions: trs}, docTxns
}

// TestMatchCountEqualsMatchSet pins the kernel to the seed oracle on
// randomized tie-heavy corpora and on conflated-representative corpora:
// for every pair and every params combination MatchCount == len(MatchSet)
// == len(SeedMatchSet), and Transactions, TransactionsAtLeast with a
// negative threshold and TransactionsRep — through postings a RepIndex
// built once, next to the Scratch-built postings of the bare calls — equal
// SeedTransactions bit for bit, also after the index is rebuilt over
// another representative set. A SetVector on a tr2 item between two calls
// on one Scratch must rebuild that Scratch's postings.
func TestMatchCountEqualsMatchSet(t *testing.T) {
	type fixture struct {
		name   string
		corpus *txn.Corpus
	}
	var fixtures []fixture
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fixtures = append(fixtures, fixture{fmt.Sprintf("random seed %d", seed), randomKernelCorpus(rng, 20+rng.Intn(40), 12)})
	}
	for seed := int64(1); seed <= 3; seed++ {
		corpus, _ := conflatedKernelCorpus(rand.New(rand.NewSource(seed)))
		fixtures = append(fixtures, fixture{fmt.Sprintf("conflated seed %d", seed), corpus})
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, fx := range fixtures {
		trs := fx.corpus.Transactions
		for _, p := range kernelParamsGrid {
			cx := NewContext(fx.corpus, p)
			sc := NewScratch()
			ix := NewRepIndex()
			ix.Build(cx, trs)
			for _, tr1 := range trs {
				for j, tr2 := range trs {
					ref := SeedMatchSet(cx, tr1, tr2)
					if got := cx.MatchCount(tr1, tr2, sc); got != len(ref) {
						t.Fatalf("%s params %+v: MatchCount = %d, reference set has %d",
							fx.name, p, got, len(ref))
					}
					set := cx.MatchSet(tr1, tr2)
					if len(set) != len(ref) {
						t.Fatalf("%s params %+v: MatchSet size %d, reference %d", fx.name, p, len(set), len(ref))
					}
					for id := range ref {
						if _, ok := set[id]; !ok {
							t.Fatalf("%s params %+v: item %d missing from MatchSet", fx.name, p, id)
						}
					}
					want := SeedTransactions(cx, tr1, tr2)
					if got := cx.Transactions(tr1, tr2, sc); !same(got, want) {
						t.Fatalf("%s params %+v: Transactions = %v, reference %v", fx.name, p, got, want)
					}
					if got := cx.TransactionsAtLeast(tr1, tr2, -1, sc); !same(got, want) {
						t.Fatalf("%s params %+v: TransactionsAtLeast(-1) = %v, reference %v",
							fx.name, p, got, want)
					}
					if got := cx.TransactionsRep(tr1, ix.Postings(j), -1, sc); !same(got, want) {
						t.Fatalf("%s params %+v: TransactionsRep with index postings = %v, reference %v",
							fx.name, p, got, want)
					}
				}
			}
			// A rebuild over another representative set must not serve the
			// previous build's postings.
			rev := slices.Clone(trs)
			slices.Reverse(rev)
			ix.BuildMode(cx, rev, false)
			for j, tr2 := range rev {
				want := SeedTransactions(cx, trs[0], tr2)
				if got := cx.TransactionsRep(trs[0], ix.Postings(j), -1, sc); !same(got, want) {
					t.Fatalf("%s params %+v: TransactionsRep after rebuild = %v, reference %v",
						fx.name, p, got, want)
				}
			}
		}
	}

	// SetVector on a tr2 item between two calls on the same Scratch: a
	// long representative item takes the vector of a document item, so the
	// content-only pair gains a perfect match.
	corpus, docTxns := conflatedKernelCorpus(rand.New(rand.NewSource(5)))
	cx := NewContext(corpus, Params{F: 0, Gamma: 0.9})
	var tr1 *txn.Transaction
	var donor vector.Sparse
	for _, tr := range corpus.Transactions[:docTxns] {
		for _, id := range tr.Items {
			if v := corpus.Items.Get(id).Vector; !v.IsZero() && tr1 == nil {
				tr1, donor = tr, v
			}
		}
	}
	tr2 := corpus.Transactions[docTxns]
	long := tr2.Items[0]
	for _, id := range tr2.Items {
		if corpus.Items.Get(id).Synthetic {
			long = id
			break
		}
	}
	sc := NewScratch()
	before := cx.Transactions(tr1, tr2, sc)
	cx.Items.SetVector(long, donor)
	warm := cx.Transactions(tr1, tr2, sc)
	if want := SeedTransactions(cx, tr1, tr2); !same(warm, want) {
		t.Fatalf("after SetVector on a tr2 item: warm scratch %v, reference %v (before %v)", warm, want, before)
	}
	if same(warm, before) {
		t.Fatalf("fixture: SetVector did not move the pair similarity (%v)", before)
	}
}

// TestTransactionsAtLeastExactDecisions verifies the branch-and-bound
// contract on random thresholds: whenever the true similarity exceeds the
// threshold the pruned call must return it exactly, and whenever it bails
// the returned value must not beat the threshold under a strict >
// comparison — the two cases an argmax caller distinguishes.
func TestTransactionsAtLeastExactDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	corpus := randomKernelCorpus(rng, 50, 16)
	for _, p := range kernelParamsGrid {
		cx := NewContext(corpus, p)
		sc := NewScratch()
		for _, tr1 := range corpus.Transactions {
			for _, tr2 := range corpus.Transactions {
				full := cx.Transactions(tr1, tr2, sc)
				for _, thr := range []float64{0, rng.Float64(), full, 0.99, 1} {
					got := cx.TransactionsAtLeast(tr1, tr2, thr, sc)
					if full > thr && got != full {
						t.Fatalf("params %+v thr %v: pruned call returned %v, want exact %v", p, thr, got, full)
					}
					if full <= thr && got > thr {
						t.Fatalf("params %+v thr %v: bailed call returned %v > threshold (true %v)", p, thr, got, full)
					}
				}
			}
		}
	}
}

// TestPrunedRowsCounterAdvances: a high threshold against a dissimilar pair
// must actually skip rows, and the skips must be visible in the counter.
func TestPrunedRowsCounterAdvances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpus := randomKernelCorpus(rng, 60, 20)
	cx := NewContext(corpus, Params{F: 0.5, Gamma: 0.9})
	sc := NewScratch()
	before := cx.Counters.PrunedRows.Load()
	for _, tr1 := range corpus.Transactions {
		for _, tr2 := range corpus.Transactions {
			cx.TransactionsAtLeast(tr1, tr2, 0.97, sc)
		}
	}
	if cx.Counters.PrunedRows.Load() == before {
		t.Error("PrunedRows never advanced despite a near-1 threshold")
	}
}

// TestScratchReusesCounter: the second kernel call on the same scratch and
// shape must count as a warm reuse.
func TestScratchReusesCounter(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.6)
	trs := corpus.Transactions
	sc := NewScratch()
	cx.Transactions(trs[0], trs[1], sc)
	before := cx.Counters.ScratchReuses.Load()
	cx.Transactions(trs[0], trs[1], sc)
	if cx.Counters.ScratchReuses.Load() != before+1 {
		t.Error("second call on a warm scratch did not count as a reuse")
	}
}

// TestTransactionsZeroAllocWarmScratch is the allocation-regression guard
// (run standalone in the CI lint job): with a warm caller-owned Scratch and
// a warm path cache, Transactions must perform exactly zero heap
// allocations per evaluation. MatchCount and TransactionsAtLeast share the
// kernel and are pinned too.
func TestTransactionsZeroAllocWarmScratch(t *testing.T) {
	cx, corpus := buildCtx(t, 0.5, 0.6)
	trs := corpus.Transactions
	sc := NewScratch()
	// Warm the scratch buffers and the Eq. 3 pair cache.
	for _, tr1 := range trs {
		for _, tr2 := range trs {
			cx.Transactions(tr1, tr2, sc)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		cx.Transactions(trs[0], trs[1], sc)
	}); avg != 0 {
		t.Errorf("Transactions with warm scratch allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		cx.MatchCount(trs[0], trs[1], sc)
	}); avg != 0 {
		t.Errorf("MatchCount with warm scratch allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		cx.TransactionsAtLeast(trs[0], trs[1], 0.5, sc)
	}); avg != 0 {
		t.Errorf("TransactionsAtLeast with warm scratch allocates %.2f/op, want 0", avg)
	}
}

// kernelBenchFixture prepares a mid-sized random corpus and a warmed
// context so the benchmarks measure the kernel, not first-touch cache
// fills. columnar selects the layout: spans attached (the production
// builder/Load shape, contiguous-scan resolution) or the bare pointer
// table (the fallback for hand-assembled transaction sets).
func kernelBenchFixture(b *testing.B, columnar bool) (*Context, []*txn.Transaction) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	corpus := randomKernelCorpus(rng, 120, 32)
	if columnar {
		corpus.RebuildColumnar()
	}
	cx := NewContext(corpus, Params{F: 0.5, Gamma: 0.7})
	sc := NewScratch()
	for _, tr1 := range corpus.Transactions {
		for _, tr2 := range corpus.Transactions {
			cx.Transactions(tr1, tr2, sc) // warm the path cache
		}
	}
	return cx, corpus.Transactions
}

// BenchmarkMatchKernelCold evaluates every pair with a fresh Scratch per
// evaluation — the price of first-touch buffer growth.
func BenchmarkMatchKernelCold(b *testing.B) {
	cx, trs := kernelBenchFixture(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr1 := trs[i%len(trs)]
		tr2 := trs[(i+7)%len(trs)]
		cx.Transactions(tr1, tr2, NewScratch())
	}
}

// BenchmarkMatchKernelWarm is the steady state on the production layout:
// one Scratch reused across evaluations, transactions carrying columnar
// spans, 0 allocs/op.
func BenchmarkMatchKernelWarm(b *testing.B) {
	cx, trs := kernelBenchFixture(b, true)
	sc := NewScratch()
	cx.Transactions(trs[0], trs[1], sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr1 := trs[i%len(trs)]
		tr2 := trs[(i+7)%len(trs)]
		cx.Transactions(tr1, tr2, sc)
	}
}

// BenchmarkMatchKernelWarmFallback is the same steady state through the
// pointer-table fallback (no spans) — the cost of losing the contiguous
// tag-path scan, visible next to the columnar number.
func BenchmarkMatchKernelWarmFallback(b *testing.B) {
	cx, trs := kernelBenchFixture(b, false)
	sc := NewScratch()
	cx.Transactions(trs[0], trs[1], sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr1 := trs[i%len(trs)]
		tr2 := trs[(i+7)%len(trs)]
		cx.Transactions(tr1, tr2, sc)
	}
}

// BenchmarkMatchKernelSeed is the seed implementation on the same pair
// stream — the baseline the kernel's allocs/op and ns/op are judged
// against.
func BenchmarkMatchKernelSeed(b *testing.B) {
	cx, trs := kernelBenchFixture(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr1 := trs[i%len(trs)]
		tr2 := trs[(i+7)%len(trs)]
		SeedTransactions(cx, tr1, tr2)
	}
}
