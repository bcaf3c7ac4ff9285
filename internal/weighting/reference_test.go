package weighting_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/textproc"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// refAccumulator is the map-based ttf.itf accumulator the dense
// weighting.Accumulator replaced, kept verbatim as an independent oracle:
// per-document and per-tuple counters are maps, per-item tf counts and
// context sums are maps keyed by term id, and vectors go through
// vector.FromMap.
type refAccumulator struct {
	c         *txn.Corpus
	itemTF    []map[int32]int
	itemTerms [][]int32
	nT        int
	njT       map[int32]int
	accCtx    []map[int32]float64
	accN      []int
	weighted  []bool
}

func newRefAccumulator(c *txn.Corpus) *refAccumulator {
	return &refAccumulator{c: c, njT: map[int32]int{}}
}

func (a *refAccumulator) syncItems() {
	n := a.c.Items.Len()
	for id := len(a.itemTF); id < n; id++ {
		it := a.c.Items.Get(txn.ItemID(id))
		tf := map[int32]int{}
		for _, w := range textproc.Preprocess(it.Answer) {
			tf[a.c.Terms.Intern(w)]++
		}
		a.itemTF = append(a.itemTF, tf)
		terms := make([]int32, 0, len(tf))
		for t := range tf {
			terms = append(terms, t)
		}
		a.itemTerms = append(a.itemTerms, terms)
		a.accCtx = append(a.accCtx, nil)
		a.accN = append(a.accN, 0)
		a.weighted = append(a.weighted, false)
	}
}

func (a *refAccumulator) ObserveDoc(doc int, trs []*txn.Transaction) {
	a.syncItems()
	docItems := map[txn.ItemID]struct{}{}
	for _, tr := range trs {
		a.nT += tr.Len()
		for _, id := range tr.Items {
			for _, t := range a.itemTerms[id] {
				a.njT[t]++
			}
			docItems[id] = struct{}{}
		}
	}
	nXT := len(docItems)
	if nXT == 0 {
		return
	}
	njXT := map[int32]int{}
	for id := range docItems {
		for _, t := range a.itemTerms[id] {
			njXT[t]++
		}
	}
	for _, tr := range trs {
		if tr.Len() == 0 {
			continue
		}
		nTau := float64(tr.Len())
		njTau := map[int32]int{}
		for _, id := range tr.Items {
			for _, t := range a.itemTerms[id] {
				njTau[t]++
			}
		}
		for _, id := range tr.Items {
			if a.accCtx[id] == nil {
				a.accCtx[id] = map[int32]float64{}
			}
			a.accN[id]++
			ctx := a.accCtx[id]
			for _, t := range a.itemTerms[id] {
				tupleFactor := math.Exp(float64(njTau[t]) / nTau)
				treeFactor := float64(njXT[t]) / float64(nXT)
				ctx[t] += tupleFactor * treeFactor
			}
		}
	}
}

func (a *refAccumulator) Finalize() weighting.Stats {
	a.syncItems()
	stats := weighting.Stats{TotalTCUs: a.nT}
	for id := range a.itemTF {
		a.weighted[id] = true
		if a.c.Items.Get(txn.ItemID(id)).Synthetic {
			continue
		}
		tf := a.itemTF[id]
		if len(tf) == 0 {
			stats.EmptyItems++
			continue
		}
		a.c.Items.SetVector(txn.ItemID(id), a.weigh(id, tf))
	}
	a.c.RefreshColumnarWeights()
	stats.Vocabulary = a.c.Terms.Len()
	return stats
}

func (a *refAccumulator) weigh(id int, tf map[int32]int) vector.Sparse {
	weights := make(map[int32]float64, len(tf))
	for t, f := range tf {
		nj := a.njT[t]
		if nj < 1 {
			nj = 1
		}
		idf := math.Log(float64(a.nT) / float64(nj))
		avgCtx := 1.0
		if a.accN[id] > 0 {
			avgCtx = a.accCtx[id][t] / float64(a.accN[id])
		}
		w := float64(f) * avgCtx * idf
		if w > 0 {
			weights[t] = w
		}
	}
	return vector.FromMap(weights)
}

func (a *refAccumulator) WeighNew() int {
	a.syncItems()
	n := 0
	for id := range a.itemTF {
		if a.weighted[id] {
			continue
		}
		a.weighted[id] = true
		n++
		if a.c.Items.Get(txn.ItemID(id)).Synthetic {
			continue
		}
		tf := a.itemTF[id]
		if len(tf) == 0 || a.nT == 0 {
			continue
		}
		a.c.Items.SetVector(txn.ItemID(id), a.weigh(id, tf))
	}
	a.c.RefreshNewColumnarWeights()
	return n
}

// requireSameWeighting compares two corpora weighted from the same input
// bit for bit: vocabulary, item count, and every item's term ids, weights
// and norm (math.Float64bits).
func requireSameWeighting(t *testing.T, what string, ref, got *txn.Corpus) {
	t.Helper()
	if ref.Terms.Len() != got.Terms.Len() {
		t.Fatalf("%s: vocabulary %d (reference) vs %d", what, ref.Terms.Len(), got.Terms.Len())
	}
	for i := int32(0); i < int32(ref.Terms.Len()); i++ {
		if ref.Terms.Term(i) != got.Terms.Term(i) {
			t.Fatalf("%s: term id %d is %q (reference) vs %q", what, i, ref.Terms.Term(i), got.Terms.Term(i))
		}
	}
	if ref.Items.Len() != got.Items.Len() {
		t.Fatalf("%s: %d items (reference) vs %d", what, ref.Items.Len(), got.Items.Len())
	}
	for i := 0; i < ref.Items.Len(); i++ {
		rv, gv := ref.Items.Get(txn.ItemID(i)).Vector, got.Items.Get(txn.ItemID(i)).Vector
		re, ge := rv.Entries(), gv.Entries()
		if len(re) != len(ge) {
			t.Fatalf("%s: item %d has %d entries (reference) vs %d", what, i, len(re), len(ge))
		}
		for k := range re {
			if re[k].Term != ge[k].Term || math.Float64bits(re[k].Weight) != math.Float64bits(ge[k].Weight) {
				t.Fatalf("%s: item %d entry %d is %v (reference) vs %v", what, i, k, re[k], ge[k])
			}
		}
		if math.Float64bits(rv.Norm()) != math.Float64bits(gv.Norm()) {
			t.Fatalf("%s: item %d norm %v (reference) vs %v", what, i, rv.Norm(), gv.Norm())
		}
	}
}

// weighBoth streams the trees mk returns through two fresh builders, one
// observed by the reference accumulator and one by weighting.Accumulator,
// finalizes both and requires bit-identical results. It returns both
// corpora and accumulators for follow-up steps.
func weighBoth(t *testing.T, what string, mk func() []*xmltree.Tree) (*txn.Corpus, *refAccumulator, *txn.Corpus, *weighting.Accumulator) {
	t.Helper()
	rb := txn.NewBuilder(txn.BuildOptions{})
	ref := newRefAccumulator(rb.Corpus())
	rb.Observe(ref)
	for _, tree := range mk() {
		rb.Add(tree)
	}
	rc := rb.Finish()
	refStats := ref.Finalize()

	gb := txn.NewBuilder(txn.BuildOptions{})
	acc := weighting.NewAccumulator(gb.Corpus())
	gb.Observe(acc)
	for _, tree := range mk() {
		gb.Add(tree)
	}
	gc := gb.Finish()
	gotStats := acc.Finalize()

	if refStats != gotStats {
		t.Fatalf("%s: stats %+v (reference) vs %+v", what, refStats, gotStats)
	}
	requireSameWeighting(t, what, rc, gc)
	return rc, ref, gc, acc
}

// randomDocs renders a document stream that stresses the fold's corner
// cases: answers drawn from a small pool (items shared across documents
// and tuples), repeated words inside an answer, stopword-only and empty
// answers, empty documents and one-item tuples.
func randomDocs(rng *rand.Rand, n int) []string {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "kappa", "lambda"}
	answers := []string{"", "the of and", "alpha alpha alpha", "beta beta gamma"}
	for len(answers) < 40 {
		var sb strings.Builder
		for j := 1 + rng.Intn(5); j > 0; j-- {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		answers = append(answers, sb.String())
	}
	labels := []string{"a", "b", "c", "d"}
	docs := make([]string, n)
	for i := range docs {
		switch rng.Intn(10) {
		case 0:
			docs[i] = `<r/>`
			continue
		case 1:
			docs[i] = fmt.Sprintf(`<r><a>%s</a></r>`, answers[rng.Intn(len(answers))])
			continue
		}
		var sb strings.Builder
		sb.WriteString("<r>")
		for rec := 1 + rng.Intn(3); rec > 0; rec-- {
			sb.WriteString("<rec>")
			for _, l := range labels {
				for k := rng.Intn(3); k > 0; k-- {
					fmt.Fprintf(&sb, "<%s>%s</%s>", l, answers[rng.Intn(len(answers))], l)
				}
			}
			sb.WriteString("</rec>")
		}
		sb.WriteString("</r>")
		docs[i] = sb.String()
	}
	return docs
}

func parseAll(t *testing.T, docs []string) []*xmltree.Tree {
	t.Helper()
	trees := make([]*xmltree.Tree, len(docs))
	for i, d := range docs {
		tree, err := xmltree.ParseString(d, xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		trees[i] = tree
	}
	return trees
}

// TestAccumulatorMatchesMapReference pins the dense, map-free accumulator
// to the map-based reference bit for bit — vocabulary, term ids, every
// weight and norm, and Stats — on randomized streams, generated IEEE and
// DBLP collections, and the serving layer's reopen → observe → WeighNew
// sequence with terms no document observed.
func TestAccumulatorMatchesMapReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			docs := randomDocs(rand.New(rand.NewSource(seed)), 1+int(seed)*3)
			weighBoth(t, fmt.Sprintf("seed %d", seed), func() []*xmltree.Tree { return parseAll(t, docs) })
		}
	})
	for _, gen := range []struct {
		name string
		fn   func(dataset.Spec) *dataset.Collection
	}{{"IEEE", dataset.IEEE}, {"DBLP", dataset.DBLP}} {
		t.Run(gen.name, func(t *testing.T) {
			weighBoth(t, gen.name, func() []*xmltree.Tree {
				return gen.fn(dataset.Spec{Docs: 200, Seed: 11}).Trees
			})
		})
	}
	t.Run("serve", func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		docs := randomDocs(rng, 12)
		rc, ref, gc, acc := weighBoth(t, "initial", func() []*xmltree.Tree { return parseAll(t, docs) })
		nextDoc := len(docs)

		// A synthetic item must be skipped by both.
		for _, c := range []*txn.Corpus{rc, gc} {
			c.Items.InternSynthetic(c.Items.Get(0).Path, "syn merged answer key",
				vector.FromMap(map[int32]float64{0: 0.125}), []txn.ItemID{0, 1})
		}
		more := append(randomDocs(rng, 3),
			`<r><rec><a>quantum entanglement alpha</a><b>unseen scribe unseen</b></rec></r>`)
		for step, doc := range more {
			for _, side := range []struct {
				c *txn.Corpus
				s txn.DocSink
			}{{rc, ref}, {gc, acc}} {
				b := txn.ReopenBuilder(side.c, nextDoc, txn.BuildOptions{})
				b.Observe(side.s)
				b.AddLabeled(parseAll(t, []string{doc})[0], -1)
			}
			nextDoc++
			if rn, gn := ref.WeighNew(), acc.WeighNew(); rn != gn {
				t.Fatalf("add %d: WeighNew weighted %d (reference) vs %d", step, rn, gn)
			}
			requireSameWeighting(t, fmt.Sprintf("add %d", step), rc, gc)
		}

		// Transient classify-time items: interned directly, observed by no
		// document, some with terms no document ever contained.
		for _, answer := range []string{"totally novel wording", "alpha novel", "", "beta beta"} {
			for _, c := range []*txn.Corpus{rc, gc} {
				c.Items.Intern(c.Items.Get(0).Path, answer)
			}
		}
		if rn, gn := ref.WeighNew(), acc.WeighNew(); rn != gn || gn == 0 {
			t.Fatalf("transient: WeighNew weighted %d (reference) vs %d", rn, gn)
		}
		requireSameWeighting(t, "transient", rc, gc)
	})
}
