package weighting_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

func accTestTrees(t *testing.T, n int) []*xmltree.Tree {
	t.Helper()
	trees := make([]*xmltree.Tree, n)
	for i := range trees {
		doc := fmt.Sprintf(
			`<paper key="k%d"><title>clustering xml trees %d</title><author>greco</author><author>tagarelli %d</author><venue>icpp</venue></paper>`,
			i, i%4, i%2)
		tree, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tree
	}
	return trees
}

// TestAccumulatorMatchesApply feeds the same corpus twice — once through
// the batch Apply pass, once document-by-document through an Accumulator
// attached to an incremental Builder — and requires identical vectors,
// term ids and stats.
func TestAccumulatorMatchesApply(t *testing.T) {
	mk := func() []*xmltree.Tree { return accTestTrees(t, 7) }

	batch := txn.Build(mk(), txn.BuildOptions{})
	batchStats := weighting.Apply(batch)

	b := txn.NewBuilder(txn.BuildOptions{})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)
	for _, tree := range mk() {
		b.Add(tree)
	}
	stream := b.Finish()
	streamStats := acc.Finalize()

	if batchStats != streamStats {
		t.Fatalf("stats differ: batch %+v, streaming %+v", batchStats, streamStats)
	}
	if batch.Terms.Len() != stream.Terms.Len() {
		t.Fatalf("vocabulary %d != %d", batch.Terms.Len(), stream.Terms.Len())
	}
	for i := int32(0); i < int32(batch.Terms.Len()); i++ {
		if batch.Terms.Term(i) != stream.Terms.Term(i) {
			t.Fatalf("term id %d is %q batch vs %q streaming — interning order diverged",
				i, batch.Terms.Term(i), stream.Terms.Term(i))
		}
	}
	if batch.Items.Len() != stream.Items.Len() {
		t.Fatalf("items %d != %d", batch.Items.Len(), stream.Items.Len())
	}
	for i := 0; i < batch.Items.Len(); i++ {
		a, s := batch.Items.Get(txn.ItemID(i)), stream.Items.Get(txn.ItemID(i))
		if !vector.Equal(a.Vector, s.Vector) {
			t.Fatalf("item %d (%q): vector differs between batch Apply and streaming Accumulator", i, a.Answer)
		}
	}
}

// TestAccumulatorEmptyDocs checks documents that contribute no items
// (empty elements only) flow through the per-document fold without
// skewing counts.
func TestAccumulatorEmptyDocs(t *testing.T) {
	docs := []string{
		`<r><a/><b/></r>`, // tuples with no content leaves
		`<r><x>real content here</x></r>`,
		`<r><c/></r>`,
	}
	trees := make([]*xmltree.Tree, len(docs))
	for i, d := range docs {
		trees[i] = xmltree.MustParseString(d, xmltree.DefaultParseOptions())
	}
	batch := txn.Build(trees, txn.BuildOptions{})
	batchStats := weighting.Apply(batch)

	trees2 := make([]*xmltree.Tree, len(docs))
	for i, d := range docs {
		trees2[i] = xmltree.MustParseString(d, xmltree.DefaultParseOptions())
	}
	b := txn.NewBuilder(txn.BuildOptions{})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)
	for _, tree := range trees2 {
		b.Add(tree)
	}
	stream := b.Finish()
	streamStats := acc.Finalize()
	if batchStats != streamStats {
		t.Fatalf("stats differ with empty docs: %+v vs %+v", batchStats, streamStats)
	}
	for i := 0; i < batch.Items.Len(); i++ {
		if !vector.Equal(batch.Items.Get(txn.ItemID(i)).Vector, stream.Items.Get(txn.ItemID(i)).Vector) {
			t.Fatalf("item %d vector differs", i)
		}
	}
}

// TestWeighNewFrozenITF covers the online weighting pass of the serving
// layer: items interned after Finalize get vectors under the frozen
// collection counters, already-weighted items keep theirs byte for byte,
// and synthetic (conflated) items are never re-derived.
func TestWeighNewFrozenITF(t *testing.T) {
	b := txn.NewBuilder(txn.BuildOptions{})
	acc := weighting.NewAccumulator(b.Corpus())
	b.Observe(acc)
	for _, tree := range accTestTrees(t, 3) {
		b.Add(tree)
	}
	c := b.Finish()
	acc.Finalize()

	if n := acc.WeighNew(); n != 0 {
		t.Fatalf("WeighNew right after Finalize weighted %d items, want 0", n)
	}
	itemsBefore := c.Items.Len()
	before := make([]vector.Sparse, itemsBefore)
	for i := range before {
		before[i] = c.Items.Get(txn.ItemID(i)).Vector
	}

	// A synthetic item must keep its conflated vector across WeighNew.
	synVec := vector.FromMap(map[int32]float64{0: 0.125})
	synID := c.Items.InternSynthetic(c.Items.Get(0).Path, "syn merged answer key", synVec, []txn.ItemID{0, 1})

	// Stream one more document with fresh vocabulary through a reopened
	// builder; its items exist but are unweighted until WeighNew runs.
	tree, err := xmltree.ParseString(
		`<paper key="k9"><title>quantum entanglement puzzles</title><author>unseen scribe</author><venue>icpp</venue></paper>`,
		xmltree.DefaultParseOptions())
	if err != nil {
		t.Fatal(err)
	}
	b2 := txn.ReopenBuilder(c, 3, txn.BuildOptions{})
	b2.Observe(acc)
	b2.AddLabeled(tree, -1)

	newID := txn.ItemID(-1)
	for i := int(synID) + 1; i < c.Items.Len(); i++ {
		it := c.Items.Get(txn.ItemID(i))
		if !it.Vector.IsZero() {
			t.Fatalf("item %d (%q) weighted before WeighNew", i, it.Answer)
		}
		if it.Answer == "quantum entanglement puzzles" {
			newID = txn.ItemID(i)
		}
	}
	if newID < 0 {
		t.Fatal("new document's title item not interned")
	}

	n := acc.WeighNew()
	if n == 0 {
		t.Fatal("WeighNew weighted nothing after a new document")
	}
	if c.Items.Get(newID).Vector.IsZero() {
		t.Fatal("new item still has a zero vector after WeighNew")
	}
	if !vector.Equal(c.Items.Get(synID).Vector, synVec) {
		t.Fatal("WeighNew re-derived a synthetic item's conflated vector")
	}
	for i := range before {
		if !vector.Equal(c.Items.Get(txn.ItemID(i)).Vector, before[i]) {
			t.Fatalf("WeighNew changed already-weighted item %d", i)
		}
	}
	if n2 := acc.WeighNew(); n2 != 0 {
		t.Fatalf("second WeighNew re-weighted %d items", n2)
	}

	// Transient classify-time items (interned directly, observed by no
	// document) weight with a neutral context and a clamped n_{j,T} ≥ 1,
	// so unseen terms keep a finite idf.
	transient := c.Items.Intern(c.Items.Get(0).Path, "totally novel wording")
	if acc.WeighNew() == 0 {
		t.Fatal("WeighNew skipped a directly interned item")
	}
	tv := c.Items.Get(transient).Vector
	if tv.IsZero() {
		t.Fatal("transient item got a zero vector")
	}
	for _, e := range tv.Entries() {
		if math.IsInf(e.Weight, 0) || math.IsNaN(e.Weight) {
			t.Fatalf("transient item weight is not finite: %v", tv)
		}
	}
}

// BenchmarkApply times the ttf.itf pass alone — the per-document fold plus
// Finalize — over a generated 200-document IEEE collection (long sectioned
// documents, tens of tuples each, fixed seed). Building the transactions
// each iteration is untimed and excluded from the allocation count; the
// figures of merit are ns/doc and allocs/doc.
func BenchmarkApply(b *testing.B) {
	trees := dataset.IEEE(dataset.Spec{Docs: 200, Seed: 424242}).Trees
	var before, after runtime.MemStats
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := txn.Build(trees, txn.BuildOptions{})
		runtime.ReadMemStats(&before)
		b.StartTimer()
		weighting.Apply(c)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		b.StartTimer()
	}
	docs := float64(b.N * len(trees))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/docs, "ns/doc")
	b.ReportMetric(float64(mallocs)/docs, "allocs/doc")
}
