// Package core implements CXK-means (Fig. 5 of the paper): the
// collaborative distributed clustering of XML transactions over a P2P
// network. Every peer clusters its local transactions against the k global
// representatives, computes local cluster representatives, and exchanges
// them so that the peers responsible for each cluster can compute the
// global representatives collaboratively.
//
// # Delta rounds
//
// With Options.DeltaRounds on (the default at the public surface), each
// peer threads a cluster.DeltaState through its rounds — memoized local
// and global representatives — and the representative exchange ships an
// unchanged representative as a digest marker (UnchangedRep) instead of
// the full wire transaction. The mode is part
// of the wire protocol: the coordinator announces it in
// StartMsg.DeltaExchange, a peer configured differently rejects the
// session with ErrConfigMismatch, and a marker the receiver never cached
// (or whose digest disagrees) fails the round with ErrUnexpectedMessage.
// Output is byte-identical with the engine on or off. The delta caches
// assume round-over-round continuity, so any break invalidates them:
// installing a checkpoint or a coordinator state stream (restore, crash
// recovery, -join), a membership epoch change, and worker errors all
// drop the DeltaState and both exchange caches, and the next round
// recomputes and re-ships everything from scratch.
package core

import (
	"fmt"
	"sort"

	"xmlclust/internal/cluster"
	"xmlclust/internal/p2p"
	"xmlclust/internal/txn"
	"xmlclust/internal/vector"
)

// WireTxn is the transport representation of a (representative)
// transaction: the flattened raw item ids of its leaves. Raw item ids are
// stable across every process that loaded the same corpus, while synthetic
// (conflated) representative items are process-local — so senders flatten
// to raw constituents (toWire) and receivers re-conflate in their own
// interning table (fromWire). WireTxnSize accounts for the full semantic
// payload (paths, answers, TCU vectors) a cross-machine deployment ships,
// matching the paper's cost model O(|tr|·(|u|+depth)).
type WireTxn struct {
	Items []txn.ItemID
}

// StartMsg is the trivial startup message of node N0: the partition of the
// cluster identifiers {1..k} into responsibility sets Z_1..Z_m, plus the
// clustering parameters. Seed, Txns and PartitionHash let every peer check
// that the whole cluster was launched with one consistent configuration —
// a multi-process deployment with divergent flags would otherwise compute
// silently wrong assignments.
type StartMsg struct {
	Zs    [][]int
	K     int
	F     float64
	Gamma float64
	// Seed is the base seed of the run (peer i derives Seed+i).
	Seed int64
	// Txns is the corpus size |S|.
	Txns int
	// PartitionHash fingerprints the data partition S_1..S_m.
	PartitionHash uint64
	// DeltaExchange announces that the run ships unchanged local
	// representatives as digest markers (LocalRepsMsg.Unchanged) instead of
	// full wire transactions. Every peer must agree: a receiver that does
	// not maintain the delta cache cannot resolve a marker, so a mixed
	// deployment fails fast at startup (StartExpectation.check) instead of
	// mid-round.
	DeltaExchange bool
}

// GlobalRepsMsg broadcasts the global representatives a peer is responsible
// for at the start of every round.
type GlobalRepsMsg struct {
	From  int
	Round int
	// Reps maps cluster id → representative.
	Reps map[int]WireTxn
}

// Flag is a peer's per-round state signal.
type Flag uint8

const (
	// FlagContinue signals that the peer's local representatives changed.
	FlagContinue Flag = iota
	// FlagDone signals a stable local clustering.
	FlagDone
)

// LocalRepsMsg carries a peer's local representatives (with cluster sizes
// as weights) for the clusters the destination peer is responsible for —
// or an empty broadcast when the peer is done.
type LocalRepsMsg struct {
	From  int
	Round int
	Flag  Flag
	// Reps maps cluster id → (representative, |C_i_j|).
	Reps map[int]WeightedWireRep
	// Unchanged maps cluster id → digest marker for representatives that
	// are byte-identical to the last full representative this sender shipped
	// to this destination for that cluster (delta exchange; only sent when
	// the StartMsg negotiated DeltaExchange). The weight still travels —
	// cluster sizes can change while the representative does not.
	Unchanged map[int]UnchangedRep
}

// WeightedWireRep pairs a representative with its local cluster size.
type WeightedWireRep struct {
	Rep    WireTxn
	Weight int
}

// UnchangedRep is the delta-exchange marker for one unchanged local
// representative: the digest of the full wire form the receiver already
// holds, plus the (possibly updated) cluster size.
type UnchangedRep struct {
	Weight int
	Digest uint64
}

// unchangedRepSize models the wire cost of one delta-exchange marker:
// cluster id + weight + digest.
const unchangedRepSize = 24

// cachedWireRep is a receiver-side delta-exchange cache entry: the last full
// wire representative a sender shipped for one cluster, with its digest so
// incoming UnchangedRep markers can be verified before reuse.
type cachedWireRep struct {
	wire WireTxn
	dig  uint64
}

// wireDigest fingerprints a wire transaction's flattened raw item ids
// (FNV-1a, order-sensitive — toWire is deterministic, so equal
// representatives produce equal sequences). Senders key their sent-rep
// caches on it and receivers verify delta-exchange markers against it.
func wireDigest(w WireTxn) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range w.Items {
		v := uint64(id)
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// AssignMsg reports a peer's final local assignment to the coordinator
// after its session terminates. Fig. 5 leaves result collection out of
// scope; multi-process deployments (RunPeer / cmd/cxkpeer) use it so the
// coordinator can assemble the corpus-wide assignment.
type AssignMsg struct {
	From   int
	Rounds int
	// Assign is the sender's local assignment in local transaction order
	// (the coordinator maps it back through the shared partition).
	Assign []int
}

func init() {
	p2p.RegisterWireType(StartMsg{})
	p2p.RegisterWireType(GlobalRepsMsg{})
	p2p.RegisterWireType(LocalRepsMsg{})
	p2p.RegisterWireType(AssignMsg{})
}

// toWire converts a transaction to its wire form: the flattened raw item
// ids (nil-safe). Synthetic (conflated) representative items are
// process-local — their ids do not exist in a remote peer's interning
// table — but they are fully determined by their raw constituents, which
// are corpus items and therefore share ids across every process that loaded
// the same corpus.
func toWire(items *txn.ItemTable, tr *txn.Transaction) WireTxn {
	if tr == nil {
		return WireTxn{}
	}
	out := make([]txn.ItemID, 0, len(tr.Items))
	for _, id := range tr.Items {
		out = append(out, items.Get(id).Flatten()...)
	}
	return WireTxn{Items: out}
}

// checkWire rejects a wire transaction holding an item id outside the local
// interning table — a malformed or foreign payload that fromWire would
// otherwise index out of range.
func checkWire(items *txn.ItemTable, w WireTxn) error {
	n := txn.ItemID(items.Len())
	for _, id := range w.Items {
		if id < 0 || id >= n {
			return fmt.Errorf("%w: item id %d outside the item table [0,%d)", ErrUnexpectedMessage, id, n)
		}
	}
	return nil
}

// fromWire rebuilds a transaction by re-conflating the raw ids in the local
// interning table (nil for the empty wire form). Conflation is
// deterministic and dedupes through the table, so on a shared in-process
// table it reproduces the sender's exact item ids, and across processes it
// reproduces items with identical semantics (path, merged answer, vector).
func fromWire(items *txn.ItemTable, w WireTxn) *txn.Transaction {
	if len(w.Items) == 0 {
		return nil
	}
	return cluster.ConflateItems(items, w.Items)
}

// RepsDigest canonically fingerprints a representative set: FNV-1a over
// each representative's sorted flattened raw item ids with separators, so
// two processes (or two runs) with the same corpus produce equal digests
// exactly when their representatives are identical item sets. This is the
// cross-process equality check behind the fabric's recovery-equivalence
// gate — synthetic item ids are process-local, raw constituents are not.
func RepsDigest(items *txn.ItemTable, reps []*txn.Transaction) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	for _, rep := range reps {
		mix(^uint64(0)) // representative separator
		w := toWire(items, rep)
		ids := append([]txn.ItemID(nil), w.Items...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			mix(uint64(id))
		}
	}
	return h
}

// WireTxnSize models the semantic wire size of a representative: each item
// costs its dotted path length + answer length + 12 bytes per sparse vector
// entry (term id + weight), mirroring the O(|trmax|·(|umax|+depth))
// transfer-cost bound of Sect. 4.3.3.
func WireTxnSize(items *txn.ItemTable, w WireTxn) int64 {
	n := int64(8)
	for _, id := range w.Items {
		it := items.Get(id)
		n += int64(len(it.Answer)) + 8
		n += int64(len(items.Paths().Path(it.Path).String()))
		n += vectorBytes(it.Vector)
	}
	return n
}

// Sizer returns a p2p.Sizer that models wire sizes for the core message
// types against the given item table.
func Sizer(items *txn.ItemTable) p2p.Sizer {
	return func(payload any) int64 {
		switch m := payload.(type) {
		case StartMsg:
			return int64(16 + 8*m.K)
		case GlobalRepsMsg:
			n := int64(16)
			for _, r := range m.Reps {
				n += 8 + WireTxnSize(items, r)
			}
			return n
		case LocalRepsMsg:
			n := int64(17)
			for _, r := range m.Reps {
				n += 16 + WireTxnSize(items, r.Rep)
			}
			n += int64(unchangedRepSize * len(m.Unchanged))
			return n
		case AssignMsg:
			return int64(24 + 8*len(m.Assign))
		default:
			return 64
		}
	}
}

// vectorBytes models the cost of shipping a sparse TCU vector.
func vectorBytes(v vector.Sparse) int64 { return int64(12 * v.Len()) }
