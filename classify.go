package xmlclust

import (
	"context"
	"fmt"

	"xmlclust/internal/cluster"
	"xmlclust/internal/sim"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
)

// ClassifyOptions configures a read-only classification job: assigning
// transactions to a fixed representative set without running a clustering
// round. The similarity knobs mirror ClusterOptions.
type ClassifyOptions struct {
	// F ∈ [0,1] balances structural vs content similarity (Eq. 1).
	F float64
	// Gamma ∈ [0,1] is the γ-matching threshold (Eq. 2).
	Gamma float64
	// Workers bounds the goroutines scanning the transactions (0 = one per
	// CPU, 1 = serial; negative values are rejected with an *OptionsError).
	// The assignment is byte-identical for every legal value.
	Workers int
	// MaxTuplesPerTree caps tuple extraction in Engine.Classify
	// (0 = tuple package default). It should match the cap the corpus was
	// built with so documents decompose the same way on both paths.
	MaxTuplesPerTree int
	// IndexReps selects the inverted representative index for the scan
	// (default RepIndexAuto = on; the assignment is byte-identical in every
	// mode). Every mode reads the representatives' term postings from an
	// index: without a matching Index, each call builds one (candidate
	// structures only when the mode is on) and the postings of every
	// representative it evaluates, which for one short transaction costs
	// more than its scan. Pass a prebuilt Index when classifying one
	// document at a time.
	IndexReps RepIndexMode
	// Index, when non-nil, is a prebuilt representative index from
	// Engine.BuildRepIndex. It is used only when it matches this call — same
	// engine, same (F, Gamma) and the identical representative slice
	// contents — otherwise the call behaves as if Index were nil. A serving
	// layer that classifies many documents against a frozen representative
	// set should build once and reuse. A matching Index's own mode decides
	// the scan: one built with RepIndexOff serves every call with the flat
	// scan, one built with candidate pruning prunes whatever IndexReps says.
	Index *RepIndex
}

// RepIndex is a prebuilt inverted representative index bound to one
// (engine, F, Gamma, representative-set) combination — the amortized form
// of ClassifyOptions.IndexReps for serving layers that classify a stream of
// documents against frozen representatives. Build it with
// Engine.BuildRepIndex and pass it via ClassifyOptions.Index. A RepIndex is
// immutable after construction and safe for concurrent use; items interned
// after it was built (online document adds) are handled soundly by
// construction, so it never needs eager rebuilding — rebuild only when the
// representative set changes.
type RepIndex struct {
	ix   *sim.RepIndex
	cx   *sim.Context
	reps []*Transaction
}

// Enabled reports whether the index is active — false when the premises of
// the pruning bound fail for the (F, Gamma) it was built with (γ = 0 or a
// semantic tag matcher), in which case scans fall back to the flat path.
func (ri *RepIndex) Enabled() bool { return ri != nil && ri.ix.Enabled() }

// Entries reports the number of inverted-index postings keys (distinct
// tags + distinct terms) the index holds.
func (ri *RepIndex) Entries() int {
	if ri == nil {
		return 0
	}
	return ri.ix.Entries()
}

// Reps reports how many non-empty representatives the index covers.
func (ri *RepIndex) Reps() int {
	if ri == nil {
		return 0
	}
	return ri.ix.Active()
}

// BuildRepIndex builds a representative index over reps for the given
// similarity knobs, sharing the engine's warm caches. Every mode holds the
// representatives' term postings, which every scan reads; the inverted
// candidate structures are built unless mode is RepIndexOff. The returned
// index matches ClassifyTransactions calls with the same (F, Gamma) and the
// identical representative slice contents.
func (e *Engine) BuildRepIndex(reps []*Transaction, f, gamma float64, mode RepIndexMode) (*RepIndex, error) {
	if err := validateKFGamma(1, f, gamma); err != nil {
		return nil, err
	}
	cx := e.simContext(sim.Params{F: f, Gamma: gamma})
	ix := sim.NewRepIndex()
	ix.BuildMode(cx, reps, mode.enabled())
	return &RepIndex{ix: ix, cx: cx, reps: reps}, nil
}

// matches reports whether the prebuilt index covers exactly this scan:
// the same similarity context and the same representative pointers in the
// same order.
func (ri *RepIndex) matches(cx *sim.Context, reps []*Transaction) bool {
	if ri == nil || ri.cx != cx || len(ri.reps) != len(reps) {
		return false
	}
	for i := range reps {
		if ri.reps[i] != reps[i] {
			return false
		}
	}
	return true
}

// Classification is the outcome of classifying one document (or an explicit
// transaction set) against a fixed representative set.
type Classification struct {
	// Cluster is the document-level majority vote over Assign (ties to the
	// lower cluster id; TrashCluster when every transaction landed in the
	// trash).
	Cluster int
	// Assign maps input transaction index → cluster in [0,len(reps)) or
	// TrashCluster.
	Assign []int
	// Sims holds the winning similarity per transaction (0 for trash).
	Sims []float64
	// PrunedRows and ScratchReuses are the similarity-kernel counter deltas
	// of this call (see Result for their meaning; the same concurrency
	// attribution caveat applies).
	PrunedRows    int64
	ScratchReuses int64
	// IndexCandidates and IndexSkipped are the representative-index deltas
	// of this call (see Result; zero when the scan ran flat).
	IndexCandidates int64
	IndexSkipped    int64
}

// ClassifyTransactions assigns each transaction to its most similar
// representative — the relocation step of CXK-means under a frozen
// representative set, sharing the engine's warm similarity caches and the
// branch-and-bound kernel. It is read-only with respect to clustering
// state: no assignment, representative or corpus transaction is touched,
// so it is safe to call concurrently with Cluster jobs on the same engine
// (the serving layer does exactly that). ctx cancels the scan with an
// error wrapping ErrCanceled; a nil ctx never cancels.
func (e *Engine) ClassifyTransactions(ctx context.Context, trs []*Transaction, reps []*Transaction, opts ClassifyOptions) (*Classification, error) {
	if err := validateKFGamma(1, opts.F, opts.Gamma); err != nil {
		return nil, err
	}
	if err := validateRunOptions(0, opts.Workers, 0); err != nil {
		return nil, err
	}
	cx := e.simContext(sim.Params{F: opts.F, Gamma: opts.Gamma})
	prunedBefore := cx.Counters.PrunedRows.Load()
	reusesBefore := cx.Counters.ScratchReuses.Load()
	candBefore := cx.Counters.IndexCandidates.Load()
	skipBefore := cx.Counters.IndexSkipped.Load()

	// A matching prebuilt index wins; otherwise build one for this call.
	// The flat scan (IndexReps off) still reads the representatives' term
	// postings from it, so they are built once, not once per transaction.
	var ix *sim.RepIndex
	if opts.Index.matches(cx, reps) {
		ix = opts.Index.ix
	} else {
		ix = sim.NewRepIndex()
		ix.BuildMode(cx, reps, opts.IndexReps.enabled())
	}

	sims := make([]float64, len(trs))
	assign, err := cluster.RelocateCtxIndexed(ctx, cx, trs, reps, opts.Workers, ix, sims)
	if err != nil {
		return nil, fmt.Errorf("xmlclust: classify: %w: %w", ErrCanceled, err)
	}
	return &Classification{
		Cluster:         MajorityCluster(assign),
		Assign:          assign,
		Sims:            sims,
		PrunedRows:      cx.Counters.PrunedRows.Load() - prunedBefore,
		ScratchReuses:   cx.Counters.ScratchReuses.Load() - reusesBefore,
		IndexCandidates: cx.Counters.IndexCandidates.Load() - candBefore,
		IndexSkipped:    cx.Counters.IndexSkipped.Load() - skipBefore,
	}, nil
}

// ExtractTransactions decomposes a parsed tree into transactions over the
// engine's item domain WITHOUT adding the document to the corpus: unseen
// paths and items are interned into the shared tables (append-only and
// concurrency-safe — existing ids and similarities are unaffected), but
// nothing is appended to the corpus's transaction set. The returned
// transactions carry document id −1 to mark them transient.
//
// Items first seen here have zero content vectors until a weighting pass
// assigns them, so their content similarity is 0 (structural similarity is
// unaffected); the serving layer weights them with the accumulator's
// frozen-itf online pass before classifying.
func (e *Engine) ExtractTransactions(t *Tree, maxTuples int) []*Transaction {
	res := tuple.Extract(t, tuple.Options{MaxTuplesPerTree: maxTuples})
	out := make([]*Transaction, 0, len(res.Tuples))
	for _, tt := range res.Tuples {
		ids := make([]txn.ItemID, 0, len(tt.Leaves))
		for _, lf := range tt.Leaves {
			pid := e.corpus.Paths.Intern(lf.Path)
			ids = append(ids, e.corpus.Items.Intern(pid, lf.Node.Value))
		}
		out = append(out, txn.NewTransaction(ids, -1, tt.Index, -1))
	}
	return out
}

// Classify extracts a document's transactions against the engine's item
// domain and classifies them against reps, returning the per-transaction
// assignment and the document-level majority cluster. The document is NOT
// added to the corpus and no clustering state changes (see
// ExtractTransactions for the interning and weighting caveats).
func (e *Engine) Classify(ctx context.Context, t *Tree, reps []*Transaction, opts ClassifyOptions) (*Classification, error) {
	return e.ClassifyTransactions(ctx, e.ExtractTransactions(t, opts.MaxTuplesPerTree), reps, opts)
}
