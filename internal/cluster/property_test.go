package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// randomItemTable builds an item table with nPaths paths and nItems raw
// items carrying small random vectors.
func randomItemTable(rng *rand.Rand, nPaths, nItems int) (*txn.ItemTable, []txn.ItemID) {
	paths := xmltree.NewPathTable()
	pids := make([]xmltree.PathID, nPaths)
	labels := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < nPaths; i++ {
		p := xmltree.Path{"root", labels[i%len(labels)], labels[(i/len(labels))%len(labels)], "S"}
		pids[i] = paths.Intern(p)
	}
	items := txn.NewItemTable(paths)
	var ids []txn.ItemID
	for i := 0; i < nItems; i++ {
		pid := pids[rng.Intn(nPaths)]
		id := items.Intern(pid, string(rune('a'+i%26))+string(rune('a'+(i/26)%26)))
		m := map[int32]float64{}
		for t := 0; t < 1+rng.Intn(4); t++ {
			m[int32(rng.Intn(20))] = rng.Float64() + 0.1
		}
		items.SetVector(id, vector.FromMap(m))
		ids = append(ids, id)
	}
	return items, ids
}

// TestPropertyConflateTreeTupleForm: conflation always yields a
// tree-tuple-shaped transaction (distinct paths) whose constituent set is
// exactly the distinct input set.
func TestPropertyConflateTreeTupleForm(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab, ids := randomItemTable(rng, 2+rng.Intn(6), 3+rng.Intn(20))
		pick := make([]txn.ItemID, 0, len(ids))
		for _, id := range ids {
			if rng.Float64() < 0.6 {
				pick = append(pick, id)
			}
		}
		if len(pick) == 0 {
			pick = ids[:1]
		}
		rep := ConflateItems(tab, pick)
		// Distinct paths.
		seen := map[xmltree.PathID]bool{}
		gotConstituents := map[txn.ItemID]bool{}
		for _, id := range rep.Items {
			it := tab.Get(id)
			if seen[it.Path] {
				return false
			}
			seen[it.Path] = true
			for _, c := range it.Flatten() {
				gotConstituents[c] = true
			}
		}
		// Constituents == distinct inputs.
		want := map[txn.ItemID]bool{}
		for _, id := range pick {
			want[id] = true
		}
		if len(want) != len(gotConstituents) {
			return false
		}
		for id := range want {
			if !gotConstituents[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyConflateIdempotent: conflating a conflation (through its
// constituents) changes nothing.
func TestPropertyConflateIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab, ids := randomItemTable(rng, 3, 12)
		rep := ConflateItems(tab, ids)
		var flat []txn.ItemID
		for _, id := range rep.Items {
			flat = append(flat, tab.Get(id).Flatten()...)
		}
		return ConflateItems(tab, flat).Equal(rep)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRelocateWithinBounds: every assignment is a valid cluster id
// or the trash cluster, for arbitrary representative subsets.
func TestPropertyRelocateWithinBounds(t *testing.T) {
	corpus := twoTopicDocs(t, 4)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		reps := make([]*txn.Transaction, k)
		for j := range reps {
			if rng.Float64() < 0.7 {
				reps[j] = corpus.Transactions[rng.Intn(len(corpus.Transactions))]
			}
		}
		assign := relocateFlat(cx, corpus.Transactions, reps, 1)
		for _, a := range assign {
			if a != TrashCluster && (a < 0 || a >= k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRepresentativeSizeBound: representatives never exceed the
// longest member transaction by more than the final conflation step (the
// returned value respects the |trmax| guard).
func TestPropertyRepresentativeSizeBound(t *testing.T) {
	corpus := twoTopicDocs(t, 6)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var members []*txn.Transaction
		for _, tr := range corpus.Transactions {
			if rng.Float64() < 0.5 {
				members = append(members, tr)
			}
		}
		if len(members) == 0 {
			return true
		}
		rep := ComputeLocalRepresentative(RepConfig{Ctx: cx}, members)
		if rep == nil {
			return true
		}
		return rep.Len() <= txn.MaxTransactionLen(members)+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertySSEBounds: the SSE objective is within [0, |S|].
func TestPropertySSEBounds(t *testing.T) {
	corpus := twoTopicDocs(t, 4)
	cx := sim.NewContext(corpus, sim.Params{F: 0.5, Gamma: 0.6})
	s := corpus.Transactions
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		reps := make([]*txn.Transaction, k)
		for j := range reps {
			reps[j] = s[rng.Intn(len(s))]
		}
		assign := make([]int, len(s))
		for i := range assign {
			assign[i] = rng.Intn(k+1) - 1
		}
		v := SSE(cx, s, assign, reps)
		return v >= 0 && v <= float64(len(s))+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
