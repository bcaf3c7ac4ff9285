// Package weighting implements the ttf.itf relevance weighting scheme of
// Sect. 4.1.2 — Tree tuple Term Frequency · Inverse Tree tuple Frequency —
// used to build the textual content unit (TCU) vectors of tree tuple items:
//
//	ttf.itf(w_j, u_i | τ) = tf(w_j,u_i) · exp(n_{j,τ}/N_τ) · (n_{j,XT}/N_XT) · ln(N_T/n_{j,T})
//
// where N_τ (resp. n_{j,τ}) is the number of TCUs in the tuple τ (resp.
// those containing w_j), N_XT/n_{j,XT} are the analogous counts at the
// document-tree level and N_T/n_{j,T} at the whole-collection level.
//
// One interpretation point: an item ⟨p, answer⟩ can occur in several tuples
// and trees (cf. item e5 in Fig. 4), so its context factors differ per
// occurrence while the item is a single domain object. We assign to the
// item the average of its per-occurrence ttf.itf weights; this keeps the
// item domain well-defined without losing the context sensitivity of the
// scheme (documented in DESIGN.md).
//
// The scheme decomposes into a per-document part and a collection part: the
// tuple and tree factors of an occurrence depend only on the occurrence's
// own document, while the itf factor ln(N_T/n_{j,T}) needs collection
// totals that are plain monotone counters. Accumulator exploits this to
// weight a corpus in one streaming pass — per-document counts are folded
// into per-item running sums the moment a document completes, so no
// document state outlives its document — with Finalize applying the
// collection-level factors at the end. Apply is the batch driver over the
// same accumulator.
//
// The fold builds no per-document or per-tuple maps. Its scratch (per-term
// counters, per-item epoch stamps, the tuple's exp memo) is sized by the
// item and term tables and reused across documents, so memory is still
// bounded by those tables plus the current document.
package weighting

import (
	"math"
	"slices"

	"xmlclust/internal/textproc"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
)

// Stats carries the collection-level counters computed during weighting,
// exposed for tests and diagnostics.
type Stats struct {
	// TotalTCUs is N_T: the number of TCUs over all tree tuples.
	TotalTCUs int
	// Vocabulary is |V| after term interning.
	Vocabulary int
	// EmptyItems counts items whose preprocessed text is empty (their TCU
	// vector is the zero vector; content similarity treats them as 0).
	EmptyItems int
}

// Accumulator computes ttf.itf incrementally. Feed each document's
// transactions with ObserveDoc as they are built (it implements
// txn.DocSink, so it plugs straight into txn.Builder.Observe), then call
// Finalize once to assign every item's vector. Memory is bounded by the
// item/term tables plus the current document — never by the corpus's
// document count. For the same corpus fed in the same document order the
// resulting vectors are byte-identical to the historical batch pass:
// per-item context sums accumulate in document order either way, and the
// collection-level itf factor is only applied at the end.
//
// The fold builds no map: term ids are dense interned int32s, so every
// per-term counter is a slice indexed by term id, zeroed again through a
// touched-terms list once its document or tuple is folded, and each
// item's terms, tf counts and context sums are parallel slices in
// ascending term order.
type Accumulator struct {
	c *txn.Corpus
	// Per-item distinct terms (ascending) and their parallel tf counts,
	// extended lazily as interning grows the item table; term interning
	// therefore happens in item-id order, keeping term ids deterministic.
	itemTerms [][]int32
	itemTF    [][]int32
	// Collection-level counters, following the tuple-multiplicity reading:
	// N_T = Σ_τ N_τ and n_{j,T} = Σ_τ n_{j,τ} (njT is indexed by term id).
	nT  int
	njT []int
	// Per-item occurrence-context running sums, aligned with itemTerms:
	// accCtx[id][k] = Σ over occurrences of exp(n_{j,τ}/N_τ)·(n_{j,XT}/N_XT)
	// for term itemTerms[id][k]; nil until the item's first occurrence.
	accCtx [][]float64
	accN   []int
	// weighted marks items whose vector a Finalize or WeighNew pass has
	// already assigned; WeighNew only touches unmarked items.
	weighted []bool

	// Per-document scratch, reused across documents. docStamp[id] == epoch
	// marks the items already counted in the current document; njXT and
	// njTau are n_{j,XT} and n_{j,τ} by term id, all zero between folds
	// (touched lists the terms to zero again); expMemo[m] caches
	// exp(m/N_τ) within one tuple, 0 meaning not yet computed; words holds
	// syncItems' term ids of one answer.
	docStamp []uint32
	epoch    uint32
	docItems []txn.ItemID
	njXT     []int32
	njTau    []int32
	touched  []int32
	expMemo  []float64
	words    []int32
}

// NewAccumulator creates an accumulator bound to the corpus under
// construction (the interning tables must be the ones the transactions
// reference).
func NewAccumulator(c *txn.Corpus) *Accumulator {
	return &Accumulator{c: c}
}

// syncItems extends the per-item state to cover items interned since the
// last call, preprocessing their answers and interning their terms, and
// grows the term-indexed counters to the vocabulary size.
func (a *Accumulator) syncItems() {
	n := a.c.Items.Len()
	for id := len(a.itemTerms); id < n; id++ {
		it := a.c.Items.Get(txn.ItemID(id))
		a.words = a.words[:0]
		for _, w := range textproc.Preprocess(it.Answer) {
			a.words = append(a.words, a.c.Terms.Intern(w))
		}
		slices.Sort(a.words)
		var terms, tf []int32
		for i, t := range a.words {
			if i > 0 && t == a.words[i-1] {
				tf[len(tf)-1]++
				continue
			}
			terms = append(terms, t)
			tf = append(tf, 1)
		}
		a.itemTerms = append(a.itemTerms, terms)
		a.itemTF = append(a.itemTF, tf)
		a.accCtx = append(a.accCtx, nil)
		a.accN = append(a.accN, 0)
		a.weighted = append(a.weighted, false)
		a.docStamp = append(a.docStamp, 0)
	}
	if v := a.c.Terms.Len(); v > len(a.njT) {
		a.njT = append(a.njT, make([]int, v-len(a.njT))...)
		a.njXT = append(a.njXT, make([]int32, v-len(a.njXT))...)
		a.njTau = append(a.njTau, make([]int32, v-len(a.njTau))...)
	}
}

// ObserveDoc folds one completed document into the accumulator: trs must be
// all transactions of document doc, exactly once per document, in document
// order. Implements txn.DocSink.
func (a *Accumulator) ObserveDoc(doc int, trs []*txn.Transaction) {
	a.syncItems()

	// Document-level counts over the document's distinct items.
	a.epoch++
	if a.epoch == 0 {
		clear(a.docStamp)
		a.epoch = 1
	}
	a.docItems = a.docItems[:0]
	for _, tr := range trs {
		a.nT += tr.Len()
		for _, id := range tr.Items {
			// itemTerms is already the distinct-term list of the item, so
			// n_{j,T} counts each (occurrence, term) pair exactly once.
			for _, t := range a.itemTerms[id] {
				a.njT[t]++
			}
			if a.docStamp[id] != a.epoch {
				a.docStamp[id] = a.epoch
				a.docItems = append(a.docItems, id)
			}
		}
	}
	nXT := len(a.docItems)
	if nXT == 0 {
		return
	}
	for _, id := range a.docItems {
		a.countTerms(a.njXT, id)
	}
	docTerms := len(a.touched)

	// Per-occurrence context factors, folded into the per-item sums.
	for _, tr := range trs {
		if tr.Len() == 0 {
			continue
		}
		nTau := float64(tr.Len())
		// n_{j,τ}: per-term count of TCUs (items) in this tuple. Items of a
		// tuple are distinct, so n_{j,τ} ∈ [1, N_τ] indexes expMemo.
		for _, id := range tr.Items {
			a.countTerms(a.njTau, id)
		}
		if need := tr.Len() + 1; len(a.expMemo) < need {
			a.expMemo = make([]float64, need)
		} else {
			clear(a.expMemo[:need])
		}
		for _, id := range tr.Items {
			terms := a.itemTerms[id]
			ctx := a.accCtx[id]
			if ctx == nil {
				ctx = make([]float64, len(terms))
				a.accCtx[id] = ctx
			}
			a.accN[id]++
			for k, t := range terms {
				m := a.njTau[t]
				tupleFactor := a.expMemo[m]
				if tupleFactor == 0 {
					tupleFactor = math.Exp(float64(m) / nTau)
					a.expMemo[m] = tupleFactor
				}
				treeFactor := float64(a.njXT[t]) / float64(nXT)
				ctx[k] += tupleFactor * treeFactor
			}
		}
		a.resetTouched(a.njTau, docTerms)
	}
	a.resetTouched(a.njXT, 0)
}

// countTerms adds one to counts[t] for every distinct term t of item id,
// recording on the touched list each term whose counter leaves zero.
func (a *Accumulator) countTerms(counts []int32, id txn.ItemID) {
	for _, t := range a.itemTerms[id] {
		if counts[t] == 0 {
			a.touched = append(a.touched, t)
		}
		counts[t]++
	}
}

// resetTouched zeroes counts at the terms touched since position from and
// truncates the touched list back to from.
func (a *Accumulator) resetTouched(counts []int32, from int) {
	for _, t := range a.touched[from:] {
		counts[t] = 0
	}
	a.touched = a.touched[:from]
}

// Finalize applies the collection-level itf factor and assigns every item's
// TCU vector. Call once, after the last document.
func (a *Accumulator) Finalize() Stats {
	a.syncItems()
	stats := Stats{TotalTCUs: a.nT}
	for id := range a.itemTerms {
		if a.c.Items.Get(txn.ItemID(id)).Synthetic {
			// Synthetic representative items carry vectors conflated at
			// intern time; re-deriving them from the merged answer key
			// would clobber the exact conflation.
			a.weighted[id] = true
			continue
		}
		a.weighted[id] = true
		if len(a.itemTerms[id]) == 0 {
			stats.EmptyItems++
			continue
		}
		a.c.Items.SetVector(txn.ItemID(id), a.weigh(id))
	}
	// Every raw item's vector may have changed: bring the whole columnar
	// weight column (per-position vector norms) back in sync.
	a.c.RefreshColumnarWeights()
	stats.Vocabulary = a.c.Terms.Len()
	return stats
}

// weigh computes one item's ttf.itf vector from its term frequencies and
// the collection-level counters. Entries come out in ascending term order.
func (a *Accumulator) weigh(id int) vector.Sparse {
	terms, tf, ctx := a.itemTerms[id], a.itemTF[id], a.accCtx[id]
	entries := make([]vector.Entry, 0, len(terms))
	for k, t := range terms {
		nj := a.njT[t]
		if nj < 1 {
			// Term unseen by any observed document (transient classify-time
			// items): treat it as occurring once so the idf stays finite.
			nj = 1
		}
		idf := math.Log(float64(a.nT) / float64(nj))
		avgCtx := 1.0
		if a.accN[id] > 0 {
			avgCtx = ctx[k] / float64(a.accN[id])
		}
		w := float64(tf[k]) * avgCtx * idf
		if w > 0 {
			entries = append(entries, vector.Entry{Term: t, Weight: w})
		}
	}
	if len(entries) == 0 {
		return vector.Sparse{}
	}
	return vector.FromEntries(entries)
}

// WeighNew assigns TCU vectors to the items interned since the last
// Finalize/WeighNew pass, using the CURRENT collection counters as a
// frozen-itf approximation — the online path of the serving layer, where a
// new document must be weighted and assigned immediately while the exact
// collection-wide re-weighting is deferred to the next representative
// refresh. Already-weighted items keep their vectors (their itf factors
// are not retroactively updated; only a fresh Finalize over a rebuilt
// corpus is exact), synthetic representative items are never touched, and
// items observed by no document weight with a neutral context factor.
// Returns the number of items weighted.
func (a *Accumulator) WeighNew() int {
	a.syncItems()
	n := 0
	for id := range a.itemTerms {
		if a.weighted[id] {
			continue
		}
		a.weighted[id] = true
		n++
		if a.c.Items.Get(txn.ItemID(id)).Synthetic {
			continue
		}
		if len(a.itemTerms[id]) == 0 || a.nT == 0 {
			continue // zero vector: no text, or nothing observed yet
		}
		a.c.Items.SetVector(txn.ItemID(id), a.weigh(id))
	}
	// Only never-weighted items changed, and older spans cannot reference
	// them, so refreshing the positions appended since the last pass keeps
	// the whole weight column current without an arena-wide scan per add.
	a.c.RefreshNewColumnarWeights()
	return n
}

// Apply computes the ttf.itf TCU vector of every item in the corpus in one
// batch: it groups the corpus's transactions per document (first-seen
// order; txn.Build emits documents contiguously, so this is the build
// order) and drives an Accumulator over them. It must run once, after
// txn.Build and before clustering.
func Apply(c *txn.Corpus) Stats {
	a := NewAccumulator(c)
	var docs []int
	byDoc := map[int][]*txn.Transaction{}
	for _, tr := range c.Transactions {
		if _, ok := byDoc[tr.Doc]; !ok {
			docs = append(docs, tr.Doc)
		}
		byDoc[tr.Doc] = append(byDoc[tr.Doc], tr)
	}
	for _, doc := range docs {
		a.ObserveDoc(doc, byDoc[doc])
	}
	return a.Finalize()
}
