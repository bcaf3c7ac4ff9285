package core

import (
	"fmt"
	"sort"

	"xmlclust/internal/p2p"
	"xmlclust/internal/txn"
)

// SessionState is the restorable protocol state of a peer session at a
// round boundary (the entry of PhaseBroadcastGlobals, before any message of
// the round is sent). It is the unit of checkpointing and recovery for the
// elastic peer fabric: gob-encodable and process-portable — representatives
// travel in wire form (flattened raw item ids), so a state captured in one
// OS process installs into a fresh process that loaded the same corpus and
// replays the remaining rounds byte-identically.
type SessionState struct {
	// Epoch is the membership epoch the state belongs to. A session
	// installing a state adopts its epoch and rejects older traffic.
	Epoch int
	// Round is the 0-based round about to start.
	Round int
	// Rounds is the executed-round count at capture time (== Round).
	Rounds int
	// K is the cluster count; Zs the responsibility partition Z_1..Z_m
	// exactly as announced in the StartMsg.
	K  int
	Zs [][]int
	// Txns is the corpus size |S| announced in the StartMsg (0 in states
	// captured before the field existed).
	Txns int
	// Assign is the local assignment, parallel to PeerConfig.Local.
	Assign []int
	// Sizes holds the per-cluster local membership counts |C_i_j|.
	Sizes []int
	// Global and LocalRp are the global and local representatives in wire
	// form (index = cluster id; empty wire form = nil representative).
	Global  []WireTxn
	LocalRp []WireTxn
	// SeenStates are the cycle-detection fingerprints of past local
	// representative states, sorted so the encoding is deterministic.
	SeenStates []uint64
}

// ControlPayload marks message types that belong to the session-control
// plane (membership, checkpointing, recovery) rather than the clustering
// protocol itself. The session routes them to the configured Hooks from any
// blocking receive, in any phase, regardless of epoch — control traffic is
// what moves a session BETWEEN epochs.
type ControlPayload interface {
	SessionControl()
}

// Hooks lets a fabric layer ride along with a peer session: observe round
// boundaries (checkpointing), consume control messages (membership and
// recovery traffic), and decide what happens when a receive deadline
// expires (failure detection). All methods are called from the session's
// own goroutine; a returned *SessionState makes the session abandon its
// current round and install that state — the rollback/rejoin primitive.
type Hooks interface {
	// RoundBoundary is invoked at the entry of every round, before the
	// globals broadcast, with the session's captured state. Returning a
	// non-nil state installs it (e.g. a coordinator admitting a pending
	// join bumps the epoch in place); returning an error fails the session
	// (ErrLeft terminates it as a graceful leave).
	RoundBoundary(st *SessionState) (*SessionState, error)
	// Control is invoked for every ControlPayload envelope. Returning a
	// non-nil state rolls the session back to it.
	Control(env p2p.Envelope) (*SessionState, error)
	// Deadline is invoked when a blocking receive exceeds its deadline.
	// Returning (nil, nil) re-arms the deadline for one more window
	// (bounded by the hook's own accounting); a state rolls back; an error
	// fails the session.
	Deadline(phase Phase, round int) (*SessionState, error)
	// SendFailed is invoked when a protocol send fails. Returning nil
	// suppresses the failure — the message is dropped and the receive
	// deadline / recovery machinery reconciles the session later (a dead
	// neighbour must not cascade into every survivor failing with ErrSend
	// before recovery can run). Returning an error fails the session.
	SendFailed(to, round int, err error) error
}

// rollbackError carries an installable state up the phase-method stack to
// the RunSession loop. It never escapes RunSession.
type rollbackError struct {
	st *SessionState
}

func (e *rollbackError) Error() string {
	return fmt.Sprintf("core: rollback to epoch %d round %d", e.st.Epoch, e.st.Round)
}

// capture snapshots the session's restorable state. Valid at round
// boundaries only (protocol state initialized, no round in flight).
func (s *session) capture() *SessionState {
	zs := make([][]int, len(s.zs))
	for i, z := range s.zs {
		zs[i] = append([]int(nil), z...)
	}
	seen := make([]uint64, 0, len(s.seenStates))
	for fp := range s.seenStates {
		seen = append(seen, fp)
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
	return &SessionState{
		Epoch:      s.epoch,
		Round:      s.round,
		Rounds:     s.rounds,
		K:          s.k,
		Zs:         zs,
		Txns:       s.txns,
		Assign:     append([]int(nil), s.assign...),
		Sizes:      append([]int(nil), s.sizes...),
		Global:     wireReps(s.items(), s.global),
		LocalRp:    wireReps(s.items(), s.localRp),
		SeenStates: seen,
	}
}

// install replaces the session's protocol state with st and re-enters the
// round loop at st.Round under st.Epoch: reorder buffers are reset (traffic
// from the abandoned attempt belongs to a dead epoch), the transport's
// epoch stamp is advanced, and parked future-epoch envelopes become
// deliverable. The inverse of capture.
func (s *session) install(st *SessionState) error {
	id := s.p.cfg.ID
	if st.K <= 0 || len(st.Zs) != s.m || id >= len(st.Zs) {
		return fmt.Errorf("%w: state for %d peers, transport has %d (peer %d)",
			ErrUnexpectedMessage, len(st.Zs), s.m, id)
	}
	if len(st.Assign) != len(s.p.cfg.Local) {
		return fmt.Errorf("%w: state carries %d assignments for %d local transactions",
			ErrUnexpectedMessage, len(st.Assign), len(s.p.cfg.Local))
	}
	if len(st.Global) != st.K || len(st.LocalRp) != st.K {
		return fmt.Errorf("%w: state carries %d/%d representatives for k = %d",
			ErrUnexpectedMessage, len(st.Global), len(st.LocalRp), st.K)
	}
	for _, reps := range [][]WireTxn{st.Global, st.LocalRp} {
		for _, w := range reps {
			if err := checkWire(s.items(), w); err != nil {
				return fmt.Errorf("state representative: %w", err)
			}
		}
	}
	s.epoch = st.Epoch
	if es, ok := s.p.cfg.Transport.(p2p.EpochSetter); ok {
		es.SetEpoch(id, s.epoch)
	}
	s.k = st.K
	s.txns = st.Txns
	s.zs = st.Zs
	s.zi = st.Zs[id]
	s.round = st.Round
	s.rounds = st.Rounds
	s.assign = append([]int(nil), st.Assign...)
	s.sizes = make([]int, s.k)
	copy(s.sizes, st.Sizes)
	s.global = unwireReps(s.items(), st.Global)
	s.localRp = unwireReps(s.items(), st.LocalRp)
	s.newLocalRp = nil
	s.seenStates = make(map[uint64]struct{}, len(st.SeenStates))
	for _, fp := range st.SeenStates {
		s.seenStates[fp] = struct{}{}
	}
	s.changed = false
	s.bySender = nil
	s.anyContinue = false
	s.pendGlobal = map[int][]GlobalRepsMsg{}
	s.pendLocal = map[int][]LocalRepsMsg{}
	// The delta-round caches anchor to the abandoned attempt's assignments and
	// shipped representatives: drop them, so the first post-install round runs
	// the full scans and ships full representatives on every link (relocate
	// re-creates the delta state lazily, sized to the installed k).
	s.delta = nil
	s.sentRepDigest = nil
	s.recvRepCache = nil
	s.phase = PhaseBroadcastGlobals
	return nil
}

// wireReps converts a representative slice to wire form (nil-safe per
// entry; nil representatives become the empty wire form).
func wireReps(items *txn.ItemTable, reps []*txn.Transaction) []WireTxn {
	out := make([]WireTxn, len(reps))
	for i, rep := range reps {
		out[i] = toWire(items, rep)
	}
	return out
}

// unwireReps re-conflates a wire-form representative slice in the local
// interning table.
func unwireReps(items *txn.ItemTable, reps []WireTxn) []*txn.Transaction {
	out := make([]*txn.Transaction, len(reps))
	for i, w := range reps {
		out[i] = fromWire(items, w)
	}
	return out
}
