package sim

import (
	"math/bits"
	"slices"
	"sync"

	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// This file is the transaction-similarity kernel: the single allocation-free
// inner loop behind Eq. 4 that every hot path of the system funnels into
// (Relocate's argmax scans, the refinement objectives of GenerateTreeTuple,
// the SSE stopping rules). The kernel computes the γ-matching marks of a
// transaction pair in one row-major pass over the item-similarity matrix and
// exposes three readings of them:
//
//   - MatchCount: |matchγ| — all the assignment path ever needs;
//   - TransactionsAtLeast: simγJ with exact branch-and-bound row pruning
//     against a caller-supplied threshold;
//   - MatchSet: the materialized id set, for the few callers (representative
//     conflation, tests) that genuinely need set membership.
//
// The inner loop is columnar: a transaction pair is resolved once into flat
// per-position arrays — item ids straight from the sorted Items slices, tag
// paths from the corpus's columnar arena (txn.Columnar) when the
// transaction carries a span, tr1's TCU vector headers bulk-copied from the
// item table's vector column — and the n1×n2 pass then reads only
// contiguous slices. The content half of Eq. 1 comes from term postings of
// the tr2 side (vector.Postings): each tr1 row walks its item's sorted
// terms once and scatters the matching products into the row, instead of
// one vector.Dot per item pair. Representative sets build those postings
// once and share them read-only (RepPostings, RepIndex); a bare tr2 gets
// them built into the Scratch behind the column memo. No *txn.Item is
// dereferenced anywhere on the hot path; the pointer-based layout survives
// only in the SeedTransactions oracle this kernel is benchmarked and
// equivalence-tested against.
//
// Tie rule (shared by all three readings): an item e ∈ tr_i belongs to
// matchγ(tr_i→tr_j) iff some e_h ∈ tr_j has sim(e, e_h) ≥ γ and no other
// item of tr_i matches that e_h strictly better — ties all qualify, i.e.
// every item whose similarity equals the per-row/per-column maximum is
// marked, not just the first one found. The count-only path reproduces the
// set cardinality exactly because marks live on disjoint index spaces
// (mark1 ⊆ tr1's positions, mark2 ⊆ tr2's positions) and the one source of
// double counting — an item id present in BOTH transactions and marked from
// both directions — is subtracted by a merge walk over the two sorted id
// slices.

// Scratch is the reusable working state of the match kernel: the resolved
// per-position vector and tag-path columns, the n1×n2 similarity matrix,
// the per-column maxima and the two direction-mark bitsets. All buffers are
// grown in place and reused across calls, so a warm Scratch makes
// Transactions allocation-free (the CI allocation guard pins this at
// exactly 0 allocs/op on both the columnar and the fallback resolution
// paths).
//
// A Scratch is NOT safe for concurrent use; give each goroutine its own
// (see parallel.ForCtxWorkers) or pass nil to borrow one from the shared
// pool.
type Scratch struct {
	vecs1, vecs2 []vector.Sparse // resolved TCU vector headers per position
	simM         []float64       // row-major n1×n2 item similarities
	colBest      []float64       // per-column maximum over the rows seen so far
	mark1        []uint64        // bitset over tr1 positions (direction tr1→tr2)
	mark2        []uint64        // bitset over tr2 positions (direction tr2→tr1)

	// tpRaw1/tpRaw2 hold the per-position tag paths of a side when the
	// transaction has no columnar span and they must be resolved from the
	// item table (span transactions read the arena block directly, zero
	// copies). tp1/tp2 and tpIdx1/tpIdx2 are the deduplicated view either
	// way: each side's distinct tag paths (tp1[:nd1], tp2[:nd2]) with
	// per-position slot indices, plus the d1×d2 structural similarity
	// matrix filled lazily one d1-row at a time (structDone tracks filled
	// rows). Tree-tuple items share tag paths heavily (every author of an
	// article, say), so one Eq. 3 probe per distinct tag-path pair replaces
	// one per item pair — same float64 values, an order of magnitude fewer
	// sharded-cache probes on same-schema corpora.
	tpRaw1, tpRaw2 []xmltree.PathID
	tp1, tp2       []xmltree.PathID
	tpIdx1, tpIdx2 []int32
	nd1, nd2       int
	structM        []float64
	structDone     []uint64

	// structKey/structVal form a scratch-local, lock-free L1-resident memo
	// of Eq. 3 tag-path pair similarities layered over the shared sharded
	// PathCache: the same pairs recur across every representative of a
	// relocation scan and across the transactions a worker draws, and a
	// direct-mapped probe here replaces a RWMutex + map probe there. Values
	// are the PathCache's own (pure functions of the pair), so results are
	// bit-identical; collisions simply overwrite (it is a cache of a
	// cache). Allocated on first structural use, fixed size afterwards.
	// The memo is only valid for one Context — PathIDs are table-relative
	// and Δ is pluggable — so lastCx guards it and a context switch clears
	// it (rare: a scratch normally lives inside one clustering pass).
	structKey []uint64 // packed ordered pair + 1; 0 = empty slot
	structVal []float64
	lastCx    *Context

	// lastTab/lastVecVer/lastTr1/lastTr2 memoize the column resolution of
	// the previous call: transactions are immutable after construction and
	// the interning table is append-only, so when the same side recurs —
	// tr1 is fixed across a Relocate argmax scan, the candidate
	// representative is fixed across a refinement-objective pass — the
	// resolved columns are reused without touching the table lock. The
	// vector headers are value copies, so unlike the old pointer memo they
	// would NOT see an in-place SetVector; lastVecVer pins the table's
	// vector version at resolution time and any weighting pass since then
	// forces a re-resolve. Holding the *Transaction references also keeps
	// the memo keys from being reused by the allocator.
	lastTab          *txn.ItemTable
	lastVecVer       uint64
	lastTr1, lastTr2 *txn.Transaction

	// post holds the term postings of a bare tr2 (callers without a
	// RepPostings), keyed like the column memo: postTr at vector version
	// postVer of table postTab. A SetVector since the build forces a
	// rebuild from freshly resolved vectors.
	post    vector.Postings
	postTab *txn.ItemTable
	postVer uint64
	postTr  *txn.Transaction
}

// NewScratch returns an empty kernel scratch; buffers are grown on first
// use and reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs the nil-Scratch convenience path. Pool reuse is
// schedule-dependent, but Scratch contents never influence results, only
// allocation behavior.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// getScratch resolves the caller's scratch: non-nil is used as-is, nil
// borrows from the pool (the caller must hand it back with putScratch).
func getScratch(sc *Scratch) (*Scratch, bool) {
	if sc != nil {
		return sc, false
	}
	return scratchPool.Get().(*Scratch), true
}

func putScratch(sc *Scratch, pooled bool) {
	if pooled {
		scratchPool.Put(sc)
	}
}

// words is the uint64 word count of an n-bit bitset.
func words(n int) int { return (n + 63) / 64 }

func setBit(b []uint64, i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func hasBit(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// ensure sizes every buffer for an n1×n2 pair, growing only when capacity
// is insufficient, and reports whether the call reused a fully warm scratch
// (no buffer grew).
func (sc *Scratch) ensure(n1, n2 int) bool {
	reused := true
	if cap(sc.vecs1) < n1 {
		sc.vecs1 = make([]vector.Sparse, n1)
		reused = false
	} else {
		sc.vecs1 = sc.vecs1[:n1]
	}
	if cap(sc.vecs2) < n2 {
		sc.vecs2 = make([]vector.Sparse, n2)
		reused = false
	} else {
		sc.vecs2 = sc.vecs2[:n2]
	}
	if cap(sc.simM) < n1*n2 {
		sc.simM = make([]float64, n1*n2)
		reused = false
	} else {
		sc.simM = sc.simM[:n1*n2]
	}
	if cap(sc.colBest) < n2 {
		sc.colBest = make([]float64, n2)
		reused = false
	} else {
		sc.colBest = sc.colBest[:n2]
	}
	if w := words(n1); cap(sc.mark1) < w {
		sc.mark1 = make([]uint64, w)
		reused = false
	} else {
		sc.mark1 = sc.mark1[:w]
	}
	if w := words(n2); cap(sc.mark2) < w {
		sc.mark2 = make([]uint64, w)
		reused = false
	} else {
		sc.mark2 = sc.mark2[:w]
	}
	if cap(sc.tpRaw1) < n1 {
		sc.tpRaw1 = make([]xmltree.PathID, n1)
		reused = false
	} else {
		sc.tpRaw1 = sc.tpRaw1[:n1]
	}
	if cap(sc.tpRaw2) < n2 {
		sc.tpRaw2 = make([]xmltree.PathID, n2)
		reused = false
	} else {
		sc.tpRaw2 = sc.tpRaw2[:n2]
	}
	if cap(sc.tp1) < n1 {
		sc.tp1 = make([]xmltree.PathID, n1)
		reused = false
	} else {
		sc.tp1 = sc.tp1[:n1]
	}
	if cap(sc.tp2) < n2 {
		sc.tp2 = make([]xmltree.PathID, n2)
		reused = false
	} else {
		sc.tp2 = sc.tp2[:n2]
	}
	if cap(sc.tpIdx1) < n1 {
		sc.tpIdx1 = make([]int32, n1)
		reused = false
	} else {
		sc.tpIdx1 = sc.tpIdx1[:n1]
	}
	if cap(sc.tpIdx2) < n2 {
		sc.tpIdx2 = make([]int32, n2)
		reused = false
	} else {
		sc.tpIdx2 = sc.tpIdx2[:n2]
	}
	if cap(sc.structM) < n1*n2 {
		sc.structM = make([]float64, n1*n2)
		reused = false
	} else {
		sc.structM = sc.structM[:n1*n2]
	}
	if w := words(n1); cap(sc.structDone) < w {
		sc.structDone = make([]uint64, w)
		reused = false
	} else {
		sc.structDone = sc.structDone[:w]
	}
	return reused
}

// structCacheSize is the slot count of the scratch-local structural memo
// (a power of two; 4096 slots ≈ 64 KiB per Scratch).
const structCacheSize = 1 << 12

// structSim returns the Eq. 3 similarity of two interned tag paths through
// the scratch-local memo, falling back to (and refilling from) the
// context's shared path cache. Contexts with UseCache off (the path-cache
// ablation) bypass the memo too — it is a cache of a cache, and the
// ablation's uncached arm must keep measuring real alignment work.
func (sc *Scratch) structSim(cx *Context, pa, pb xmltree.PathID) float64 {
	if !cx.UseCache {
		return cx.TagPathSim(pa, pb)
	}
	a, b := pa, pb
	if b < a {
		a, b = b, a
	}
	// PathIDs are int32, so the packed ordered pair is injective and the
	// +1 keeps every real key distinct from the empty-slot sentinel 0.
	key := (uint64(uint32(a))<<32 | uint64(uint32(b))) + 1
	h := key * 0x9e3779b97f4a7c15
	slot := (h >> 32) & (structCacheSize - 1)
	if sc.structKey[slot] == key {
		return sc.structVal[slot]
	}
	v := cx.TagPathSim(pa, pb)
	sc.structKey[slot] = key
	sc.structVal[slot] = v
	return v
}

// indexTagPaths fills tps[:] with the distinct tag paths of src and idx
// with each position's slot, returning the distinct count. Linear-scan
// dedup: the distinct count is small (tree tuples repeat tag paths) and
// the scan allocates nothing. src is either a columnar arena block or the
// scratch's table-resolved tpRaw buffer — a flat int32 scan either way.
func indexTagPaths(src, tps []xmltree.PathID, idx []int32) int {
	nd := 0
	for j, tp := range src {
		slot := -1
		for d := 0; d < nd; d++ {
			if tps[d] == tp {
				slot = d
				break
			}
		}
		if slot < 0 {
			slot = nd
			tps[nd] = tp
			nd++
		}
		idx[j] = int32(slot)
	}
	return nd
}

// resolveSide fills one side's scratch columns — per-position TCU vector
// headers plus the deduplicated tag-path index — and returns the distinct
// tag-path count. Span transactions read their tag-path block straight out
// of the corpus's columnar arena (no table lock, no copy) and bulk-copy
// the vector headers from the table's vector column; spanless transactions
// (synthetic representatives, hand-assembled corpora, classify-time
// transients) resolve both columns from the table under one lock.
func (cx *Context) resolveSide(tr *txn.Transaction, vecs []vector.Sparse, tpRaw, tps []xmltree.PathID, idx []int32) int {
	if cols, start := tr.ColumnarSpan(); cols != nil {
		cx.Items.ResolveVectors(tr.Items, vecs)
		cx.Counters.ColumnarResolves.Add(1)
		return indexTagPaths(cols.TagPathSpan(start, len(tr.Items)), tps, idx)
	}
	cx.Items.ResolveColumns(tr.Items, tpRaw, vecs)
	return indexTagPaths(tpRaw, tps, idx)
}

// matchKernel computes the γ-matching marks of (tr1, tr2) into sc and
// returns |matchγ| plus whether the pass ran to completion.
//
// When threshold ≥ 0 (and u > 0), the pass is branch-and-bound over the
// rows of tr1: before computing row i it checks the exact upper bound
//
//	UB(i) = qualRows(i) + (n1 − i) + n2
//
// where qualRows(i) counts processed rows whose best similarity reached γ.
// The bound is sound without any assumption on the unseen similarities:
// a tr1 item can only be marked if its row maximum reaches γ (so marked
// processed rows ≤ qualRows(i), and each unprocessed row adds at most
// itself), while a single unprocessed row can — through exact similarity
// ties, which all qualify — mark arbitrarily many tr2 columns, so the
// column side admits no bound tighter than n2 until the last row is done.
// (The tie cases are precisely why the folklore "2 new marks per remaining
// row" bound is unsound; this kernel never trades exactness for pruning.)
// As soon as UB(i)/u ≤ threshold even a perfect remainder cannot beat the
// threshold, the remaining rows are skipped and Counters.PrunedRows grows
// by the rows saved. Integer count and same-divisor IEEE division make the
// bailout decision exact: the true similarity can never exceed the bound's
// quotient, so callers comparing with a strict > observe byte-identical
// decisions with pruning on or off.
//
// post is tr2's term postings; nil builds them into sc (memoized per tr2
// and vector version).
func (cx *Context) matchKernel(tr1, tr2 *txn.Transaction, post *vector.Postings, sc *Scratch, threshold float64, u int) (int, bool) {
	n1, n2 := tr1.Len(), tr2.Len()
	if n1 == 0 || n2 == 0 {
		return 0, true
	}
	f := cx.Params.F
	// The resolution memo is current only if the table is the same one AND
	// no SetVector ran since the columns were copied (the headers are value
	// copies; a weighting pass rewrites vectors in place and must not be
	// served stale — see lastVecVer).
	vecVer := cx.Items.VecVersion()
	sameCols := sc.lastTab == cx.Items && sc.lastVecVer == vecVer
	keep1 := sameCols && sc.lastTr1 == tr1
	keep2 := sameCols && sc.lastTr2 == tr2
	reused := sc.ensure(n1, n2)
	useStructMemo := f > 0 && cx.UseCache
	if useStructMemo && sc.structKey == nil {
		sc.structKey = make([]uint64, structCacheSize)
		sc.structVal = make([]float64, structCacheSize)
		reused = false
	}
	if reused {
		cx.Counters.ScratchReuses.Add(1)
	}
	if !keep1 {
		sc.nd1 = cx.resolveSide(tr1, sc.vecs1, sc.tpRaw1, sc.tp1, sc.tpIdx1)
	}
	if !keep2 {
		sc.nd2 = cx.resolveSide(tr2, sc.vecs2, sc.tpRaw2, sc.tp2, sc.tpIdx2)
	}
	sc.lastTab, sc.lastVecVer, sc.lastTr1, sc.lastTr2 = cx.Items, vecVer, tr1, tr2
	if f < 1 && post == nil {
		// sc.vecs2 holds tr2's vectors at vecVer: kept by the column memo
		// under the same key, or resolved just above.
		if sc.postTab != cx.Items || sc.postVer != vecVer || sc.postTr != tr2 {
			sc.post.Build(sc.vecs2)
			sc.postTab, sc.postVer, sc.postTr = cx.Items, vecVer, tr2
		}
		post = &sc.post
	}
	colBest := sc.colBest
	for j := range colBest {
		colBest[j] = -1
	}
	mark1, mark2 := sc.mark1, sc.mark2
	for i := range mark1 {
		mark1[i] = 0
	}
	for j := range mark2 {
		mark2[j] = 0
	}

	gamma := cx.Params.Gamma
	prune := threshold >= 0 && u > 0
	if f > 0 {
		for d := range sc.structDone[:words(sc.nd1)] {
			sc.structDone[d] = 0
		}
	}
	if useStructMemo {
		if sc.lastCx != cx {
			for s := range sc.structKey {
				sc.structKey[s] = 0
			}
		}
		sc.lastCx = cx
	}
	ids1, ids2 := tr1.Items, tr2.Items
	qualRows := 0
	for i := 0; i < n1; i++ {
		if prune && float64(qualRows+(n1-i)+n2)/float64(u) <= threshold {
			cx.Counters.PrunedRows.Add(int64(n1 - i))
			return 0, false
		}
		var structRow []float64
		if f > 0 {
			// One Eq. 3 probe per distinct (tr1, tr2) tag-path pair: the d1
			// structural row is filled on the first item row that needs it
			// and reused by every later row sharing the tag path.
			// structRow[d] is exactly the Eq. 3 term of every position pair
			// whose tag paths sit in slots (d1, d).
			d1 := int(sc.tpIdx1[i])
			structRow = sc.structM[d1*sc.nd2 : d1*sc.nd2+sc.nd2]
			if !hasBit(sc.structDone, d1) {
				tpa := sc.tp1[d1]
				for d := 0; d < sc.nd2; d++ {
					structRow[d] = sc.structSim(cx, tpa, sc.tp2[d])
				}
				setBit(sc.structDone, d1)
			}
		} else {
			structRow = sc.structM[:sc.nd2] // unread at f == 0
		}
		row := sc.simM[i*n2 : (i+1)*n2]
		rowBest := -1.0
		if f < 1 {
			// The content cosines of the whole row from tr2's postings:
			// Cosine(vecs1[i], ·) bit for bit (see vector.Postings).
			post.Cosines(sc.vecs1[i], row)
		}
		// The tight loop: contiguous reads only — the tag-path slot column
		// and the similarity row holding the cosines. The arithmetic
		// replicates Item (Eq. 1) operation for operation, so values are
		// bit-identical to direct Item calls.
		for j := range row {
			s := 0.0
			if f > 0 {
				s += f * structRow[sc.tpIdx2[j]]
			}
			if f < 1 {
				s += (1 - f) * row[j]
			}
			row[j] = s
			if s > rowBest {
				rowBest = s
			}
			if s > colBest[j] {
				colBest[j] = s
			}
		}
		// The row decided n2 item pairs (see Counters.ItemSims): one
		// batched add per processed row, none for pruned rows.
		cx.Counters.ItemSims.Add(int64(n2))
		// Direction tr2 → tr1: the best matchers of tr1's item i within tr2.
		// rowBest is final once the row is filled, so the marks are set here,
		// ties all qualifying.
		if rowBest >= gamma {
			qualRows++
			for j, s := range row {
				if s == rowBest {
					setBit(mark2, j)
				}
			}
		}
	}
	// Direction tr1 → tr2: for each tr2 item (column j), the best matchers
	// from tr1 — every row tying the column maximum qualifies.
	for j := 0; j < n2; j++ {
		best := colBest[j]
		if best < gamma {
			continue
		}
		for i := 0; i < n1; i++ {
			if sc.simM[i*n2+j] == best {
				setBit(mark1, i)
			}
		}
	}

	count := 0
	for _, w := range mark1 {
		count += bits.OnesCount64(w)
	}
	for _, w := range mark2 {
		count += bits.OnesCount64(w)
	}
	// matchγ is a set of item ids: an id held by BOTH transactions and
	// marked from both directions must count once, not twice. Both id
	// slices are sorted ascending and distinct, so a merge walk finds the
	// doubly-marked common ids.
	i, j := 0, 0
	for i < n1 && j < n2 {
		switch {
		case ids1[i] == ids2[j]:
			if hasBit(mark1, i) && hasBit(mark2, j) {
				count--
			}
			i++
			j++
		case ids1[i] < ids2[j]:
			i++
		default:
			j++
		}
	}
	return count, true
}

// MatchCount returns |matchγ(tr1, tr2)| — exactly len(MatchSet(tr1, tr2)) —
// without materializing the set. sc may be nil (a pooled scratch is used);
// pass a per-goroutine Scratch on hot paths to stay allocation-free.
func (cx *Context) MatchCount(tr1, tr2 *txn.Transaction, sc *Scratch) int {
	sc, pooled := getScratch(sc)
	n, _ := cx.matchKernel(tr1, tr2, nil, sc, -1, 0)
	putScratch(sc, pooled)
	return n
}

// MatchSet computes matchγ(tr1, tr2) = matchγ(tr1→tr2) ∪ matchγ(tr2→tr1):
// the set of γ-shared items (see the kernel comment for the tie rule). It
// is a thin materializing wrapper over the count kernel. No production
// path needs the set anymore — the assignment and objective paths use
// MatchCount / TransactionsAtLeast — but it stays exported as the
// readable specification of the match semantics and the oracle the
// equivalence tests pin the count-only kernel against.
func (cx *Context) MatchSet(tr1, tr2 *txn.Transaction) map[txn.ItemID]struct{} {
	n1, n2 := tr1.Len(), tr2.Len()
	shared := make(map[txn.ItemID]struct{}, n1+n2)
	if n1 == 0 || n2 == 0 {
		return shared
	}
	sc, pooled := getScratch(nil)
	cx.matchKernel(tr1, tr2, nil, sc, -1, 0)
	for i := 0; i < n1; i++ {
		if hasBit(sc.mark1, i) {
			shared[tr1.Items[i]] = struct{}{}
		}
	}
	for j := 0; j < n2; j++ {
		if hasBit(sc.mark2, j) {
			shared[tr2.Items[j]] = struct{}{}
		}
	}
	putScratch(sc, pooled)
	return shared
}

// Transactions computes simγJ(tr1, tr2) = |matchγ(tr1,tr2)| / |tr1 ∪ tr2|
// (Eq. 4), in [0,1]. sc may be nil (a pooled scratch is borrowed for the
// call); with a warm caller-owned Scratch the evaluation performs zero heap
// allocations.
func (cx *Context) Transactions(tr1, tr2 *txn.Transaction, sc *Scratch) float64 {
	return cx.transactionsAtLeast(tr1, tr2, nil, -1, sc)
}

// TransactionsAtLeast is Transactions with exact branch-and-bound pruning:
// it returns simγJ(tr1, tr2) whenever that value can exceed threshold, and
// bails out early — returning threshold itself — as soon as the running
// upper bound proves even a perfect remainder cannot beat it. Callers that
// keep a running maximum and compare with a strict `>` (Relocate's argmax
// over representatives) therefore make byte-identical decisions with
// pruning on or off; ties keep resolving to the earlier candidate either
// way. A negative threshold disables pruning, making the call exactly
// equivalent to Transactions.
//
// The skipped work is counted in Counters.PrunedRows (tr1 rows whose item
// similarities were never evaluated).
func (cx *Context) TransactionsAtLeast(tr1, tr2 *txn.Transaction, threshold float64, sc *Scratch) float64 {
	return cx.transactionsAtLeast(tr1, tr2, nil, threshold, sc)
}

// TransactionsRep is TransactionsAtLeast(tr1, tr2, threshold, sc) for the
// tr2 that rep was built over, bit for bit, reading tr2's content through
// postings built once by rep.Build instead of once per call: the form for
// scans that evaluate many transactions against the same representative.
// A negative threshold computes Transactions. rep must have been built
// against cx's item table, with no SetVector on its items since.
func (cx *Context) TransactionsRep(tr1 *txn.Transaction, rep *RepPostings, threshold float64, sc *Scratch) float64 {
	return cx.transactionsAtLeast(tr1, rep.tr, &rep.post, threshold, sc)
}

func (cx *Context) transactionsAtLeast(tr1, tr2 *txn.Transaction, post *vector.Postings, threshold float64, sc *Scratch) float64 {
	cx.Counters.TxnSims.Add(1)
	u := txn.UnionSize(tr1, tr2)
	if u == 0 {
		return 0
	}
	sc, pooled := getScratch(sc)
	n, completed := cx.matchKernel(tr1, tr2, post, sc, threshold, u)
	putScratch(sc, pooled)
	if !completed {
		return threshold
	}
	return float64(n) / float64(u)
}

// RepPostings is a transaction prepared as the representative (tr2) side
// of the match kernel: the term postings of its items' TCU vectors, built
// once and read by every TransactionsRep call against it. It is immutable
// between Builds and safe for concurrent reads; Build reuses its slabs.
type RepPostings struct {
	tr   *txn.Transaction
	post vector.Postings
	vecs []vector.Sparse // Build's resolution buffer
}

// Build prepares rep (nil is treated as empty) against cx's item table.
func (rp *RepPostings) Build(cx *Context, rep *txn.Transaction) {
	rp.tr = rep
	var ids []txn.ItemID
	if rep != nil {
		ids = rep.Items
	}
	rp.vecs = slices.Grow(rp.vecs[:0], len(ids))[:len(ids)]
	cx.Items.ResolveVectors(ids, rp.vecs)
	rp.post.Build(rp.vecs)
}
