package core

import (
	"fmt"
	"time"
)

// EventKind discriminates the progress events a run emits.
type EventKind int

const (
	// EventPhaseChange reports that a peer's session advanced to a new
	// protocol phase (Event.Phase).
	EventPhaseChange EventKind = iota
	// EventRoundStart reports that a peer entered collaborative round
	// Event.Round.
	EventRoundStart
	// EventRepsExchanged reports that a peer finished the representative
	// exchange of the round (all neighbour messages collected).
	EventRepsExchanged
	// EventRoundEnd reports that a peer completed a round; Event.Objective
	// carries the peer's local clustering objective for the round.
	EventRoundEnd
	// EventDone reports run termination. Peer-level Done events carry the
	// peer id; the run-level Done event (emitted once per Run) has
	// Peer == -1 and the final round count.
	EventDone
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventPhaseChange:
		return "phase-change"
	case EventRoundStart:
		return "round-start"
	case EventRepsExchanged:
		return "reps-exchanged"
	case EventRoundEnd:
		return "round-end"
	case EventDone:
		return "done"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one progress notification of a running clustering job.
type Event struct {
	// Kind discriminates the event.
	Kind EventKind
	// Peer is the emitting peer id, or -1 for run-level events.
	Peer int
	// Round is the collaborative round the event belongs to (0-based;
	// for EventDone it is the total number of rounds executed).
	Round int
	// Phase is the session phase after a PhaseChange (PhaseDone for Done).
	Phase Phase
	// Objective is the peer's local clustering objective — the K-means-style
	// sum Σ (1 − simγJ(tr, rep)) over the peer's transactions — populated on
	// RoundEnd (and on pkmeans round events). Lower is better.
	Objective float64
	// SentMsgs/SentBytes/RecvMsgs/RecvBytes total the peer's modeled
	// traffic so far (cumulative over all completed accounting rounds).
	SentMsgs, SentBytes int64
	RecvMsgs, RecvBytes int64
	// PrunedRows and ScratchReuses snapshot the similarity context's kernel
	// counters at emission time: match-matrix rows skipped by the exact
	// branch-and-bound of the assignment path, and kernel invocations that
	// ran on a fully warm (zero-allocation) Scratch. In-process peers share
	// one context, so these are run-wide running totals, not per-peer ones.
	PrunedRows, ScratchReuses int64
	// IndexCandidates and IndexSkipped snapshot the representative-index
	// counters (IndexReps runs): representatives actually evaluated by
	// index-guided relocation versus representatives the index proved could
	// not win and never touched. Same run-wide running-total semantics as
	// PrunedRows.
	IndexCandidates, IndexSkipped int64
	// RepsReused and DeltaRepBytes snapshot the delta-round counters
	// (DeltaRounds runs): representatives returned verbatim from the
	// cross-round memo, and wire bytes saved by shipping
	// unchanged-representative digest markers instead of full representatives.
	// Same run-wide running-total semantics as PrunedRows.
	RepsReused, DeltaRepBytes int64
	// DocsSkipped is always 0: relocation makes one full pass per round and
	// skips no document.
	//
	// Deprecated: nothing sets it; it stays only for source compatibility.
	DocsSkipped int64
	// Elapsed is the time since the session (or run, for Peer == -1)
	// started.
	Elapsed time.Duration
}

// Observer receives progress events. Peers run concurrently, so an
// Observer must be safe for concurrent calls (the public xmlclust surface
// serializes them before user callbacks).
type Observer func(Event)

// TrafficTotals sums the report's per-round traffic counters — the
// "traffic so far" carried by progress events.
func (pr *PeerReport) TrafficTotals() (sentMsgs, sentBytes, recvMsgs, recvBytes int64) {
	for r := range pr.SentMsgsByRound {
		sentMsgs += pr.SentMsgsByRound[r]
		sentBytes += pr.SentBytesByRound[r]
		recvMsgs += pr.RecvMsgsByRound[r]
		recvBytes += pr.RecvBytesByRound[r]
	}
	return
}
