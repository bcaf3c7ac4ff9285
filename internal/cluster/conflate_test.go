package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// refConflateItems is the reference conflation: group the distinct ids by
// complete path in first-appearance order, then intern each multi-item
// group with its answers merged and its vectors summed by a pairwise
// vector.Add fold in ascending id order.
func refConflateItems(tab *txn.ItemTable, rawIDs []txn.ItemID) *txn.Transaction {
	byPath := map[xmltree.PathID][]txn.ItemID{}
	seen := map[txn.ItemID]bool{}
	var paths []xmltree.PathID
	for _, id := range rawIDs {
		if seen[id] {
			continue
		}
		seen[id] = true
		p := tab.Get(id).Path
		if _, ok := byPath[p]; !ok {
			paths = append(paths, p)
		}
		byPath[p] = append(byPath[p], id)
	}
	out := make([]txn.ItemID, 0, len(paths))
	for _, p := range paths {
		group := byPath[p]
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		slices.Sort(group)
		answers := make([]string, len(group))
		var merged vector.Sparse
		for i, id := range group {
			it := tab.Get(id)
			answers[i] = it.Answer
			merged = vector.Add(merged, it.Vector)
		}
		out = append(out, tab.InternSynthetic(p, txn.MergedAnswerKey(answers), merged, group))
	}
	return txn.NewTransaction(out, -1, -1, -1)
}

// sameItems reports whether items [from, to) of two tables are identical:
// path, answer, vector bits, synthetic flag and constituents.
func sameItems(a, b *txn.ItemTable, from, to int) bool {
	for id := from; id < to; id++ {
		x, y := a.Get(txn.ItemID(id)), b.Get(txn.ItemID(id))
		if x.Path != y.Path || x.Answer != y.Answer || x.Synthetic != y.Synthetic ||
			!vector.Equal(x.Vector, y.Vector) || !slices.Equal(x.Constituents, y.Constituents) {
			return false
		}
	}
	return true
}

// TestConflaterMatchesConflateItems drives one incremental conflater, a
// from-scratch ConflateItems per prefix and the reference conflation per
// prefix over triplet item tables with the same randomized id streams:
// after every batch all three transactions must be equal, and all three
// tables must have interned the same new synthetic items in the same
// order. Streams repeat ids and mix in the flattened constituents of
// synthetic items, as GenerateTreeTuple's ranked batches do.
func TestConflaterMatchesConflateItems(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		table := func() (*txn.ItemTable, []txn.ItemID) {
			rng := rand.New(rand.NewSource(seed))
			tab, ids := randomItemTable(rng, 1+rng.Intn(6), 2+rng.Intn(30))
			// An empty answer makes a merged key that can equal a raw
			// item's key — an interning hit inside a dirty group.
			ids = append(ids, tab.Intern(tab.Get(ids[0]).Path, ""))
			// Pre-existing synthetic items, interned identically in every
			// table, whose constituents the stream will mix in.
			for s := 0; s < 3; s++ {
				pick := make([]txn.ItemID, 1+rng.Intn(len(ids)))
				for i := range pick {
					pick[i] = ids[rng.Intn(len(ids))]
				}
				ids = append(ids, refConflateItems(tab, pick).Items...)
			}
			return tab, ids
		}
		tabInc, ids := table()
		tabOne, _ := table()
		tabRef, _ := table()

		rng := rand.New(rand.NewSource(seed + 1000))
		cf := newConflater(tabInc)
		var prefix []txn.ItemID
		for step := 0; step < 12; step++ {
			var batch []txn.ItemID
			for n := 1 + rng.Intn(4); n > 0; n-- {
				// Repeats are likely: the stream draws with replacement.
				batch = append(batch, tabInc.Get(ids[rng.Intn(len(ids))]).Flatten()...)
			}
			before := tabRef.Len()
			cf.add(batch)
			got := cf.transaction()
			prefix = append(prefix, batch...)
			one := ConflateItems(tabOne, prefix)
			want := refConflateItems(tabRef, prefix)
			if !got.Equal(want) || !one.Equal(want) {
				t.Fatalf("seed %d step %d: conflater %v, ConflateItems %v, reference %v", seed, step, got.Items, one.Items, want.Items)
			}
			for _, tab := range []*txn.ItemTable{tabInc, tabOne} {
				if tab.Len() != tabRef.Len() || !sameItems(tab, tabRef, before, tabRef.Len()) {
					t.Fatalf("seed %d step %d: tables diverged (%d vs %d items)", seed, step, tab.Len(), tabRef.Len())
				}
			}
			if again := cf.transaction(); !again.Equal(got) {
				t.Fatalf("seed %d step %d: clean re-conflation changed: %v vs %v", seed, step, again.Items, got.Items)
			}
		}
	}
}
