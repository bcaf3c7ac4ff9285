package cluster

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"xmlclust/internal/parallel"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// TrashCluster is the assignment value for the (k+1)-th cluster collecting
// transactions with zero similarity to every representative (Sect. 4.2).
const TrashCluster = -1

// Config parameterizes the centralized XK-means variant of [33,32]: the
// K-means-like transactional clustering that CXK-means runs per peer and
// that constitutes the m=1 baseline.
type Config struct {
	K int
	// MaxIter bounds the outer relocation/representative loop (the paper
	// observes convergence in fewer than 10 iterations).
	MaxIter int
	// Seed drives the deterministic initial representative selection.
	Seed int64
	// Rule selects the GenerateTreeTuple return reading.
	Rule ReturnRule
	// Workers bounds the goroutines used by the similarity-heavy loops
	// (relocation, item ranking, refinement objectives). 0 or negative
	// means one worker per CPU; 1 forces the serial path. Any value
	// produces output byte-identical to Workers: 1 for a fixed Seed.
	Workers int
	// IndexReps builds a sim.RepIndex over the representatives each
	// iteration and relocates through its candidate lists instead of the
	// flat k-scan. Assignments and representatives are byte-identical
	// either way (the index's bounds are exact); the index only changes how
	// many representatives each document touches.
	IndexReps bool
	// DeltaRounds carries a DeltaState across iterations: unchanged cluster
	// memberships reuse their memoized representatives (see delta.go).
	// Output is byte-identical either way.
	DeltaRounds bool
}

// DefaultMaxIter is the safety bound on clustering iterations.
const DefaultMaxIter = 20

// Clustering is the result of a (local or centralized) clustering run.
type Clustering struct {
	// Assign maps transaction index → cluster in [0,K), or TrashCluster.
	Assign []int
	// Reps holds the K cluster representatives (nil for empty clusters).
	Reps []*txn.Transaction
	// Sizes holds |C_j| per cluster.
	Sizes []int
	// Iterations is the number of outer iterations executed.
	Iterations int
}

// Members collects the transactions assigned to cluster j.
func (cl *Clustering) Members(s []*txn.Transaction, j int) []*txn.Transaction {
	var out []*txn.Transaction
	for i, a := range cl.Assign {
		if a == j {
			out = append(out, s[i])
		}
	}
	return out
}

// SelectInitial picks up to q transactions from s originating in distinct
// source documents ("coming from distinct original trees", Fig. 5), using
// the seeded rng for tie-breaking. The selection is deterministic for a
// fixed seed.
func SelectInitial(s []*txn.Transaction, q int, rng *rand.Rand) []*txn.Transaction {
	if q <= 0 || len(s) == 0 {
		return nil
	}
	perm := rng.Perm(len(s))
	seenDoc := map[int]struct{}{}
	var out []*txn.Transaction
	for _, i := range perm {
		tr := s[i]
		if tr.Len() == 0 {
			continue
		}
		if _, dup := seenDoc[tr.Doc]; dup {
			continue
		}
		seenDoc[tr.Doc] = struct{}{}
		out = append(out, tr)
		if len(out) == q {
			return out
		}
	}
	// Fewer distinct documents than q: fill with remaining transactions.
	for _, i := range perm {
		if len(out) == q {
			break
		}
		tr := s[i]
		if tr.Len() == 0 {
			continue
		}
		dup := false
		for _, o := range out {
			if o == tr {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, tr)
		}
	}
	return out
}

// RelocateCtxIndexed performs the transaction-relocation step of Fig. 5 for
// a fixed set of representatives: every transaction with zero similarity to
// all representatives joins the trash cluster; the others join the argmax
// cluster (ties to the lowest index; nil and empty representatives never
// win). Each transaction is decided by RelocateOne.
//
// Transactions are independent under a fixed representative set, so the
// scan is spread over a worker pool: each worker owns one similarity Scratch
// and one RepQuery, reused across every transaction it draws, and writes
// into the pre-indexed slot of the assignment slice. Tie-breaking happens
// inside the per-transaction scan, so the result is byte-identical for any
// worker count, and with the index's candidate pruning on or off. Workers
// stop drawing transactions once ctx is done and the call returns ctx's
// error; a nil ctx never cancels.
//
// ix must have been built over exactly this reps slice under cx's
// parameters; nil builds a postings-only index for this call. When sims is
// given, its first slice (len(s) long) also receives each transaction's
// winning similarity (0 for trash).
func RelocateCtxIndexed(ctx context.Context, cx *sim.Context, s []*txn.Transaction, reps []*txn.Transaction, workers int, ix *sim.RepIndex, sims ...[]float64) ([]int, error) {
	ix = postingsFor(cx, reps, ix)
	var best []float64
	if len(sims) > 0 {
		best = sims[0]
	}
	assign := make([]int, len(s))
	nw := parallel.WorkerCount(workers, len(s))
	scratches := make([]*sim.Scratch, nw)
	queries := make([]*sim.RepQuery, nw)
	err := parallel.ForCtxWorkers(ctx, workers, len(s), func(w, i int) {
		if scratches[w] == nil {
			scratches[w], queries[w] = sim.NewScratch(), sim.NewRepQuery()
		}
		j, v := RelocateOne(cx, s[i], reps, ix, queries[w], scratches[w])
		assign[i] = j
		if best != nil {
			best[i] = v
		}
	})
	if err != nil {
		return nil, err
	}
	return assign, nil
}

// postingsFor returns ix, or — when the caller has no index — a
// postings-only index over reps, so a scan builds each representative's
// term postings once rather than once per document.
func postingsFor(cx *sim.Context, reps []*txn.Transaction, ix *sim.RepIndex) *sim.RepIndex {
	if ix != nil {
		return ix
	}
	ix = sim.NewRepIndex()
	ix.BuildMode(cx, reps, false)
	return ix
}

// RelocateOne relocates a single transaction against a fixed representative
// set: it returns the argmax cluster (ties to the lowest index, nil and
// empty representatives never win, TrashCluster when every similarity is
// zero) together with the winning similarity. It is the per-transaction
// scan RelocateCtxIndexed runs, and the single-document entry point of the
// incremental serving layer, so online assignments match what a batch
// relocation would produce for the same representatives by construction.
//
// ix, built over reps, supplies the representatives' term postings; a nil
// ix builds them for this call alone, so scans pass one index for all their
// documents. When ix.Enabled(), only its candidates for tr are evaluated,
// in decreasing upper-bound order, and the scan stops once the remaining
// bounds prove no unseen candidate can strictly beat the running best — or
// tie it at a lower cluster index. Otherwise every representative is
// evaluated in index order, each through the branch-and-bound kernel
// thresholded at the running best. Both walks give the same result:
//
//   - every representative with nonzero similarity to tr is a candidate
//     (sim.RepIndex's soundness guarantee), and a zero-similarity
//     representative can never win the flat walk either (best starts at 0
//     and only strict improvements move it);
//   - the indexed walk nudges the kernel threshold one ulp below the running
//     best, so a candidate that exactly ties is always evaluated to
//     completion and can claim the tie when its index is lower — the flat
//     walk's lowest-index rule, reached from a different evaluation order;
//   - the early exit only fires when a candidate's bound is strictly below
//     best, or equal to it at a higher index: the (UB desc, index asc)
//     candidate order makes every remaining candidate lose by the same
//     argument.
//
// Work accounting (indexed walk only): evaluated candidates are added to
// Counters.IndexCandidates, and the representatives never touched
// (non-candidates plus bound-pruned candidates) to Counters.IndexSkipped;
// the two sum to ix.Active() per call. rq and sc may be nil (allocated per
// call); pass per-goroutine ones on hot paths.
func RelocateOne(cx *sim.Context, tr *txn.Transaction, reps []*txn.Transaction, ix *sim.RepIndex, rq *sim.RepQuery, sc *sim.Scratch) (int, float64) {
	ix = postingsFor(cx, reps, ix)
	if sc == nil {
		sc = sim.NewScratch()
	}
	best, bestJ := 0.0, TrashCluster
	if !ix.Enabled() {
		for j, rep := range reps {
			if rep == nil || rep.Len() == 0 {
				continue
			}
			if v := cx.TransactionsRep(tr, ix.Postings(j), best, sc); v > best {
				best, bestJ = v, j
			}
		}
		return bestJ, best
	}
	if rq == nil {
		rq = sim.NewRepQuery()
	}
	n := ix.Candidates(tr, rq)
	evaluated := 0
	for c := 0; c < n; c++ {
		j, ub := rq.Candidate(c)
		if ub < best || (ub == best && j > bestJ) {
			break
		}
		v := cx.TransactionsRep(tr, ix.Postings(j), math.Nextafter(best, math.Inf(-1)), sc)
		evaluated++
		if v > best {
			best, bestJ = v, j
		} else if v == best && j < bestJ {
			bestJ = j
		}
	}
	cx.Counters.IndexCandidates.Add(int64(evaluated))
	cx.Counters.IndexSkipped.Add(int64(ix.Active() - evaluated))
	return bestJ, best
}

// XKMeans runs the centralized transactional clustering: select k initial
// representatives from distinct documents, then alternate relocation and
// representative recomputation until representatives are stable.
func XKMeans(cx *sim.Context, s []*txn.Transaction, cfg Config) *Clustering {
	k := cfg.K
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	repCfg := RepConfig{Ctx: cx, Rule: cfg.Rule, Workers: cfg.Workers}

	reps := make([]*txn.Transaction, k)
	for i, tr := range SelectInitial(s, k, rng) {
		reps[i] = tr
	}
	cl := &Clustering{Assign: make([]int, len(s)), Reps: reps}
	for i := range cl.Assign {
		cl.Assign[i] = TrashCluster
	}
	ix := sim.NewRepIndex()
	var ds *DeltaState
	if cfg.DeltaRounds {
		ds = NewDeltaState(k)
	}
	for iter := 0; iter < maxIter; iter++ {
		cl.Iterations = iter + 1
		ix.BuildMode(cx, reps, cfg.IndexReps)
		assign, _ := RelocateCtxIndexed(nil, cx, s, reps, cfg.Workers, ix)
		newReps := make([]*txn.Transaction, k)
		members := make([][]*txn.Transaction, k)
		for i, a := range assign {
			if a >= 0 {
				members[a] = append(members[a], s[i])
			}
		}
		var memberFps []uint64
		if ds != nil {
			memberFps = ds.MemberFingerprints(assign)
		}
		// The cluster loop stays ordered: representative generation interns
		// synthetic items, and interning order must not depend on the
		// schedule (item ids are assigned sequentially). The worker pool
		// parallelizes *inside* each representative computation — ranking
		// and refinement objectives are where the similarity time goes.
		for j := 0; j < k; j++ {
			if len(members[j]) == 0 {
				newReps[j] = reps[j] // keep the old representative alive
				continue
			}
			if ds != nil {
				newReps[j] = ds.LocalRep(repCfg, j, memberFps[j], members[j])
				continue
			}
			newReps[j] = ComputeLocalRepresentative(repCfg, members[j])
		}
		stable := assignEqual(assign, cl.Assign) && repsEqual(newReps, reps)
		cl.Assign = assign
		reps = newReps
		cl.Reps = reps
		if stable {
			break
		}
	}
	cl.Sizes = make([]int, k)
	for _, a := range cl.Assign {
		if a >= 0 {
			cl.Sizes[a]++
		}
	}
	return cl
}

func assignEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func repsEqual(a, b []*txn.Transaction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch {
		case a[i] == nil && b[i] == nil:
		case a[i] == nil || b[i] == nil:
			return false
		case !a[i].Equal(b[i]):
			return false
		}
	}
	return true
}

// SSE computes the K-means-style objective adapted to the transactional
// similarity: Σ over non-trash transactions of (1 − simγJ(tr, rep_assigned)).
// Used by the PK-means baseline's global stopping rule.
func SSE(cx *sim.Context, s []*txn.Transaction, assign []int, reps []*txn.Transaction) float64 {
	return SSEWorkers(cx, s, assign, reps, 1, nil)
}

// SSEWorkers is SSE spread over a worker pool, each worker reusing one
// similarity Scratch so the objective allocates nothing per pair. Terms are
// reduced in index order (parallel.SumWorkers), so the float result is
// byte-identical to the serial SSE for any worker count. ix, when non-nil,
// is an index built over reps whose term postings the objective reads
// (a relocation phase's index); nil builds them for this call.
func SSEWorkers(cx *sim.Context, s []*txn.Transaction, assign []int, reps []*txn.Transaction, workers int, ix *sim.RepIndex) float64 {
	ix = postingsFor(cx, reps, ix)
	scratches := make([]*sim.Scratch, parallel.WorkerCount(workers, len(assign)))
	return parallel.SumWorkers(workers, len(assign), func(w, i int) float64 {
		a := assign[i]
		if a < 0 || a >= len(reps) || reps[a] == nil {
			return 1 // trash contributes maximal error
		}
		sc := scratches[w]
		if sc == nil {
			sc = sim.NewScratch()
			scratches[w] = sc
		}
		return 1 - cx.TransactionsRep(s[i], ix.Postings(a), -1, sc)
	})
}

// SortedClusterSizes returns the cluster sizes in descending order (used by
// diagnostics and the h-parameter estimate of Sect. 4.3.4).
func SortedClusterSizes(cl *Clustering) []int {
	out := append([]int(nil), cl.Sizes...)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
