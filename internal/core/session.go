package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// PeerConfig assembles everything one peer process N_i of Fig. 5 needs to
// join a CXK-means session.
type PeerConfig struct {
	// ID is this peer's dense id in [0, Transport.Peers()).
	ID int
	// Ctx is the similarity context over the peer's interning tables.
	Ctx *sim.Context
	// Local is S_i, the peer's local transaction set.
	Local []*txn.Transaction
	// Transport connects the peer to the network. For multi-process
	// deployments this is a p2p.Node; in-process runs use ChanTransport or
	// TCPTransport.
	Transport p2p.Transport
	// Sizer models wire sizes for the per-round traffic report (nil
	// records zero bytes).
	Sizer p2p.Sizer
	// MaxRounds bounds the collaborative loop (0 = DefaultMaxRounds).
	MaxRounds int
	// Seed drives the initial representative selection.
	Seed int64
	// Rule selects the GenerateTreeTuple return reading.
	Rule cluster.ReturnRule
	// Workers bounds intra-peer parallelism (see Options.Workers).
	Workers int
	// IndexReps relocates through an inverted representative index rebuilt
	// once per round (see Options.IndexReps); assignments are byte-identical
	// either way.
	IndexReps bool
	// DeltaRounds carries a cluster.DeltaState across rounds (representative
	// memoization) and ships unchanged local representatives as digest
	// markers instead of full wire transactions (see Options.DeltaRounds).
	// Output is byte-identical either way; every peer of a session must
	// agree (StartMsg.DeltaExchange).
	DeltaRounds bool
	// RoundTimeout bounds every blocking receive of the session; a peer
	// that waits longer fails with ErrRoundDeadline instead of hanging on
	// a dead neighbour. 0 disables the deadline (trusted in-process runs).
	RoundTimeout time.Duration
	// StartupTimeout bounds the wait for N0's StartMsg. Peer processes of
	// a distributed deployment boot in any order, so this is typically
	// much longer than RoundTimeout. 0 falls back to RoundTimeout;
	// negative disables the startup deadline.
	StartupTimeout time.Duration
	// Expect, when non-nil, pins the run parameters this peer was
	// launched with; a StartMsg that disagrees fails the session with
	// ErrConfigMismatch instead of computing silently wrong assignments
	// (every process of a distributed run must share one configuration).
	Expect *StartExpectation
	// ComputeToken, when non-nil, serializes compute sections across peers
	// so per-peer timings stay clean on oversubscribed hosts.
	ComputeToken chan struct{}
	// Observer, when non-nil, receives progress events (phase changes,
	// round boundaries, termination). Peers run concurrently, so it must be
	// safe for concurrent calls. Enabling it also turns on the per-round
	// local objective computation reported in RoundEnd events.
	Observer Observer
	// Epoch is the membership epoch the session starts in (0 for a fresh
	// session; a recovered session starts in the epoch of its restored
	// state). Envelopes stamped with an older epoch are dropped, newer ones
	// parked until the session catches up.
	Epoch int
	// Initial, when non-nil, is a restored SessionState the session
	// installs instead of running startup: the peer skips the StartMsg wait
	// and re-enters the round loop at Initial.Round (cxkpeer -resume).
	Initial *SessionState
	// Rejoin makes the session await a recovery state transfer (delivered
	// through Hooks.Control) instead of a StartMsg: the state machine
	// starts in PhaseRejoin (cxkpeer -join). Mutually exclusive with
	// Initial.
	Rejoin bool
	// Hooks, when non-nil, attaches a fabric layer to the session: round
	// boundaries (checkpointing), control messages (membership, recovery)
	// and deadline expiries (failure detection) are routed through it. All
	// calls happen on the session goroutine.
	Hooks Hooks
}

// StartExpectation pins the parameters a peer expects node N0 to announce.
type StartExpectation struct {
	K             int
	F             float64
	Gamma         float64
	Seed          int64
	Txns          int
	PartitionHash uint64
	DeltaExchange bool
}

// check compares the expectation against a received StartMsg.
func (e *StartExpectation) check(msg StartMsg) error {
	switch {
	case msg.K != e.K:
		return fmt.Errorf("%w: k = %d here, %d at N0", ErrConfigMismatch, e.K, msg.K)
	case msg.F != e.F || msg.Gamma != e.Gamma:
		return fmt.Errorf("%w: (f, γ) = (%v, %v) here, (%v, %v) at N0",
			ErrConfigMismatch, e.F, e.Gamma, msg.F, msg.Gamma)
	case msg.Seed != e.Seed:
		return fmt.Errorf("%w: seed = %d here, %d at N0", ErrConfigMismatch, e.Seed, msg.Seed)
	case msg.Txns != e.Txns:
		return fmt.Errorf("%w: corpus has %d transactions here, %d at N0", ErrConfigMismatch, e.Txns, msg.Txns)
	case msg.PartitionHash != e.PartitionHash:
		return fmt.Errorf("%w: data partition diverges from N0's (check the split flags)", ErrConfigMismatch)
	case msg.DeltaExchange != e.DeltaExchange:
		return fmt.Errorf("%w: delta exchange %v here, %v at N0 (check -no-delta-rounds)",
			ErrConfigMismatch, e.DeltaExchange, msg.DeltaExchange)
	}
	return nil
}

// PartitionFingerprint hashes a data partition (FNV-1a over part sizes and
// indices) so peers can cross-check that they derived the same split.
func PartitionFingerprint(part [][]int) uint64 {
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
	for _, p := range part {
		mix(^uint64(0)) // part separator
		for _, idx := range p {
			mix(uint64(idx))
		}
	}
	return h
}

// Peer is one protocol participant. Create it with NewPeer and execute the
// protocol with RunSession; a Peer can run several sessions sequentially.
type Peer struct {
	cfg PeerConfig
}

// NewPeer validates and captures a peer configuration.
func NewPeer(cfg PeerConfig) *Peer {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	return &Peer{cfg: cfg}
}

// SessionResult is the local outcome of one completed session.
type SessionResult struct {
	// Assign is the final local assignment, parallel to PeerConfig.Local.
	Assign []int
	// Reps are the final global representatives as seen by this peer (all
	// peers converge to the same set on termination).
	Reps []*txn.Transaction
	// Rounds is the number of collaborative rounds executed.
	Rounds int
	// Report carries the per-round accounting.
	Report PeerReport
	// PendingAssigns are AssignMsg reports from peers that terminated
	// ahead of this one and whose messages overtook the final round
	// (coordinator only; consumed by RunPeer's collection step).
	PendingAssigns []AssignMsg
}

// RunSession executes the CXK-means protocol for this peer until
// convergence, MaxRounds, ctx cancellation or a protocol failure. Errors
// are *SessionError values wrapping the typed causes of phase.go;
// cancellation surfaces as ErrCanceled, observed at phase boundaries,
// blocking receives and between relocation passes.
func (p *Peer) RunSession(ctx context.Context) (*SessionResult, error) {
	s := newSession(p)
	if st := p.cfg.Initial; st != nil {
		if err := s.install(st); err != nil {
			return nil, &SessionError{Peer: p.cfg.ID, Round: s.round, Phase: s.phase, Err: err}
		}
	}
	for s.phase != PhaseDone {
		from := s.phase
		if err := s.step(ctx); err != nil {
			var rb *rollbackError
			if errors.As(err, &rb) {
				// A fabric hook rolled the session back (or delivered the
				// rejoin state): install it and re-enter the round loop.
				if ierr := s.install(rb.st); ierr != nil {
					return nil, &SessionError{Peer: p.cfg.ID, Round: s.round, Phase: s.phase, Err: ierr}
				}
				s.emit(EventPhaseChange, s.round, 0)
				continue
			}
			return nil, &SessionError{Peer: p.cfg.ID, Round: s.round, Phase: s.phase, Err: err}
		}
		if s.phase != from {
			s.emit(EventPhaseChange, s.round, 0)
		}
	}
	s.emit(EventDone, s.rounds, s.objective)
	return s.result(), nil
}

// session owns the run state of one protocol execution: the current phase
// and round, the representative sets, the reordering buffers and the
// per-round accounting. Each phase is one method; step dispatches on the
// current phase and the phase methods perform the transitions.
type session struct {
	p        *Peer
	phase    Phase
	round    int
	t0       time.Time // session start, for Event.Elapsed
	deadline time.Time // armed at every blocking-receive phase entry

	// objective is the peer's local clustering objective after the latest
	// relocation pass; maintained only when an Observer is configured.
	objective float64

	// Protocol state (Fig. 5 notation in the comments of peer fields).
	k          int
	m          int
	txns       int // |S|, the bound on a peer-supplied cluster weight
	zs         [][]int
	zi         []int
	global     []*txn.Transaction // g_1..g_k
	localRp    []*txn.Transaction // ℓ_i1..ℓ_ik
	newLocalRp []*txn.Transaction // scratch for the current round
	sizes      []int              // |C_i_j|
	assign     []int              // local assignment
	rounds     int
	report     PeerReport
	// repIndex is the per-round representative index: the globals' term
	// postings, plus candidate pruning when IndexReps is on. Rebuilt at
	// each relocation phase over the fixed globals, its arrays reused
	// across rounds.
	repIndex *sim.RepIndex
	// seenStates fingerprints past local-representative states. Fig. 5
	// terminates on exact representative stability; greedy representative
	// refinement can cycle through a short orbit of states instead of
	// reaching a fixpoint, so a revisited state is treated as stable
	// (guaranteeing termination without changing converged results).
	seenStates map[uint64]struct{}
	// changed / bySender / anyContinue carry intermediate per-round state
	// between the Relocate, ExchangeLocals and RefineGlobals phases.
	changed     bool
	bySender    []map[int]WeightedWireRep
	anyContinue bool
	// delta carries the cross-round memoization caches (DeltaRounds): the
	// per-cluster local and global representative memos. Dropped on every
	// rollback/install.
	delta *cluster.DeltaState
	// sentRepDigest / recvRepCache implement the delta representative
	// exchange: per (destination, cluster) the digest of the last full
	// representative shipped, and per (sender, cluster) the last full wire
	// representative received with its digest — so an UnchangedRep marker
	// resolves to the cached wire form. Both reset on install: the first
	// post-rollback round ships full representatives again on every link.
	sentRepDigest []map[int]uint64
	recvRepCache  []map[int]cachedWireRep

	// Message reordering buffers: peers may run ahead by one phase, so
	// envelopes are buffered per (round, type). A peer that terminates
	// ahead of this one may even deliver its post-session AssignMsg while
	// this session still drains the final round; those are parked in
	// pendAssign for the post-session consumer (see RunPeer).
	pendGlobal map[int][]GlobalRepsMsg
	pendLocal  map[int][]LocalRepsMsg
	pendAssign []AssignMsg

	// epoch is the membership epoch the session currently runs in. FIFO
	// holds per connection, not across connections, so after a membership
	// change a peer can receive new-epoch traffic before its own view
	// update (parked in pendFuture) or stale traffic from the abandoned
	// epoch (dropped, counted in staleDropped).
	epoch        int
	pendFuture   []p2p.Envelope
	staleDropped int64
}

func newSession(p *Peer) *session {
	s := &session{
		p:          p,
		phase:      PhaseStartup,
		t0:         time.Now(),
		m:          p.cfg.Transport.Peers(),
		epoch:      p.cfg.Epoch,
		seenStates: map[uint64]struct{}{},
		pendGlobal: map[int][]GlobalRepsMsg{},
		pendLocal:  map[int][]LocalRepsMsg{},
	}
	if p.cfg.Rejoin {
		s.phase = PhaseRejoin
	}
	if es, ok := p.cfg.Transport.(p2p.EpochSetter); ok {
		es.SetEpoch(p.cfg.ID, s.epoch)
	}
	return s
}

// emit publishes a progress event when an observer is configured.
func (s *session) emit(kind EventKind, round int, objective float64) {
	obs := s.p.cfg.Observer
	if obs == nil {
		return
	}
	sm, sb, rm, rb := s.report.TrafficTotals()
	ctrs := &s.p.cfg.Ctx.Counters
	obs(Event{
		Kind: kind, Peer: s.p.cfg.ID, Round: round, Phase: s.phase,
		Objective: objective,
		SentMsgs:  sm, SentBytes: sb, RecvMsgs: rm, RecvBytes: rb,
		PrunedRows:      ctrs.PrunedRows.Load(),
		ScratchReuses:   ctrs.ScratchReuses.Load(),
		IndexCandidates: ctrs.IndexCandidates.Load(),
		IndexSkipped:    ctrs.IndexSkipped.Load(),
		RepsReused:      ctrs.RepsReused.Load(),
		DeltaRepBytes:   ctrs.DeltaRepBytes.Load(),
		Elapsed:         time.Since(s.t0),
	})
}

// step executes the current phase. Phase methods mutate s.phase to advance
// the state machine. Cancellation is observed here at every phase edge, so
// an aborted session always stops on a clean protocol boundary.
func (s *session) step(ctx context.Context) error {
	if ctx != nil {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		default:
		}
	}
	switch s.phase {
	case PhaseStartup:
		return s.startup(ctx)
	case PhaseBroadcastGlobals:
		return s.broadcastGlobals(ctx)
	case PhaseRelocate:
		return s.relocate(ctx)
	case PhaseExchangeLocals:
		return s.exchangeLocals(ctx)
	case PhaseRefineGlobals:
		return s.refineGlobals(ctx)
	case PhaseRejoin:
		return s.rejoin(ctx)
	default:
		return fmt.Errorf("core: step in terminal phase %s", s.phase)
	}
}

// startup awaits N0's StartMsg, initializes the protocol state and selects
// the initial global representatives this peer is responsible for. Round
// messages from fast neighbours may overtake the StartMsg on a real network
// (FIFO holds per connection, not across connections), so they are buffered
// rather than rejected.
func (s *session) startup(ctx context.Context) error {
	s.armStartupDeadline()
	var startMsg StartMsg
awaitStart:
	for {
		env, err := s.recvEnvelope(ctx)
		if err != nil {
			return err
		}
		switch msg := env.Payload.(type) {
		case StartMsg:
			startMsg = msg
			break awaitStart
		case GlobalRepsMsg:
			s.pendGlobal[msg.Round] = append(s.pendGlobal[msg.Round], msg)
		case LocalRepsMsg:
			s.pendLocal[msg.Round] = append(s.pendLocal[msg.Round], msg)
		case AssignMsg:
			s.pendAssign = append(s.pendAssign, msg)
		default:
			return fmt.Errorf("%w: expected StartMsg, got %T", ErrUnexpectedMessage, env.Payload)
		}
	}
	id := s.p.cfg.ID
	if len(startMsg.Zs) != s.m || id >= s.m {
		return fmt.Errorf("%w: StartMsg for %d peers, transport has %d (peer %d)",
			ErrUnexpectedMessage, len(startMsg.Zs), s.m, id)
	}
	if e := s.p.cfg.Expect; e != nil {
		if err := e.check(startMsg); err != nil {
			return err
		}
	}
	s.k = startMsg.K
	s.txns = startMsg.Txns
	s.zs = startMsg.Zs
	s.zi = startMsg.Zs[id]

	s.global = make([]*txn.Transaction, s.k)
	s.localRp = make([]*txn.Transaction, s.k)
	s.sizes = make([]int, s.k)
	s.assign = make([]int, len(s.p.cfg.Local))
	for i := range s.assign {
		s.assign[i] = cluster.TrashCluster
	}

	// Select q_i initial global representatives from distinct local trees.
	rng := rand.New(rand.NewSource(s.p.cfg.Seed))
	for idx, tr := range cluster.SelectInitial(s.p.cfg.Local, len(s.zi), rng) {
		s.global[s.zi[idx]] = tr
	}
	s.phase = PhaseBroadcastGlobals
	return nil
}

// broadcastGlobals is protocol phase 1: send the global representatives
// this peer is responsible for, then collect everyone else's. Its entry is
// the round boundary: the protocol state is quiescent (no message of the
// round sent yet), so this is where the fabric hook checkpoints — and where
// a coordinator admits pending joins, which may install a same-round state
// under a bumped epoch.
func (s *session) broadcastGlobals(ctx context.Context) error {
	if h := s.p.cfg.Hooks; h != nil {
		st, err := h.RoundBoundary(s.capture())
		if err != nil {
			return err
		}
		if st != nil {
			return &rollbackError{st: st}
		}
	}
	s.rounds = s.round + 1
	s.growRound(s.round)
	s.emit(EventRoundStart, s.round, 0)

	own := map[int]WireTxn{}
	for _, j := range s.zi {
		own[j] = toWire(s.items(), s.global[j])
	}
	id := s.p.cfg.ID
	for h := 0; h < s.m; h++ {
		if h == id {
			continue
		}
		if err := s.send(s.round, h, GlobalRepsMsg{From: id, Round: s.round, Reps: own}); err != nil {
			return err
		}
	}
	s.armDeadline()
	for received := 0; received < s.m-1; {
		msg, err := s.nextGlobal(ctx, s.round)
		if err != nil {
			return err
		}
		for j, w := range msg.Reps {
			s.global[j] = fromWire(s.items(), w)
		}
		received++
	}
	s.phase = PhaseRelocate
	return nil
}

// relocate is protocol phase 2: one relocation pass against the fixed
// globals (Fig. 5), followed by the local representative of every non-empty
// cluster. Relocation is a pure function of (transaction, globals), so a
// second pass would reproduce the first. The pass is cancellable inside the
// parallel fork-join, so a canceled session aborts the compute section
// without finishing the corpus scan.
func (s *session) relocate(ctx context.Context) error {
	cfg := &s.p.cfg
	repCfg := cluster.RepConfig{Ctx: cfg.Ctx, Rule: cfg.Rule, Workers: cfg.Workers}
	if cfg.DeltaRounds && s.delta == nil {
		s.delta = cluster.NewDeltaState(s.k)
	}
	var relocErr error
	s.compute(s.round, func() {
		// The session keeps the index across rounds: rebuilds reuse its
		// slabs and maps. With candidate pruning off it still carries the
		// globals' term postings.
		if s.repIndex == nil {
			s.repIndex = sim.NewRepIndex()
		}
		s.repIndex.BuildMode(cfg.Ctx, s.global, cfg.IndexReps)
		assign, err := cluster.RelocateCtxIndexed(ctx, cfg.Ctx, cfg.Local, s.global, cfg.Workers, s.repIndex)
		if err != nil {
			relocErr = fmt.Errorf("%w: %w", ErrCanceled, err)
			return
		}
		s.assign = assign
		members := make([][]*txn.Transaction, s.k)
		for i, a := range s.assign {
			if a >= 0 {
				members[a] = append(members[a], cfg.Local[i])
			}
		}
		var memberFps []uint64
		if s.delta != nil {
			memberFps = s.delta.MemberFingerprints(s.assign)
		}
		for j := 0; j < s.k; j++ {
			s.sizes[j] = len(members[j])
			if len(members[j]) == 0 {
				s.newLocalRp[j] = nil
				continue
			}
			if s.delta != nil {
				s.newLocalRp[j] = s.delta.LocalRep(repCfg, j, memberFps[j], members[j])
				continue
			}
			s.newLocalRp[j] = cluster.ComputeLocalRepresentative(repCfg, members[j])
		}
	})
	if relocErr != nil {
		return relocErr
	}
	if cfg.Observer != nil {
		// Outside the compute section on purpose: the per-round objective
		// is instrumentation and must not inflate ComputeByRound (and with
		// it the paper's SimulatedTime metric).
		s.objective = cluster.SSEWorkers(cfg.Ctx, cfg.Local, s.assign, s.global, cfg.Workers, s.repIndex)
	}
	s.changed = !repSliceEqual(s.newLocalRp, s.localRp)
	copy(s.localRp, s.newLocalRp)
	if s.changed {
		fp := fingerprintReps(s.localRp)
		if _, cycle := s.seenStates[fp]; cycle {
			s.changed = false
		}
		s.seenStates[fp] = struct{}{}
	}
	s.phase = PhaseExchangeLocals
	return nil
}

// exchangeLocals is protocol phase 3: exchange local representatives (or a
// done broadcast) and collect the other peers' for own clusters. When every
// peer is done the session terminates; the flags are identical at every
// peer, so termination is consistent.
func (s *session) exchangeLocals(ctx context.Context) error {
	id := s.p.cfg.ID
	flag := FlagContinue
	if !s.changed {
		flag = FlagDone
	}
	for h := 0; h < s.m; h++ {
		if h == id {
			continue
		}
		msg := LocalRepsMsg{From: id, Round: s.round, Flag: flag}
		if s.changed {
			reps := map[int]WeightedWireRep{}
			var unchanged map[int]UnchangedRep
			for _, j := range s.zs[h] {
				if s.localRp[j] == nil {
					continue
				}
				w := toWire(s.items(), s.localRp[j])
				if s.p.cfg.DeltaRounds {
					if s.sentRepDigest == nil {
						s.sentRepDigest = make([]map[int]uint64, s.m)
					}
					if s.sentRepDigest[h] == nil {
						s.sentRepDigest[h] = map[int]uint64{}
					}
					dig := wireDigest(w)
					if prev, ok := s.sentRepDigest[h][j]; ok && prev == dig {
						// The receiver still holds this exact wire form: ship a
						// digest marker instead of the full representative. The
						// weight travels regardless — cluster sizes can change
						// while the representative does not.
						if unchanged == nil {
							unchanged = map[int]UnchangedRep{}
						}
						unchanged[j] = UnchangedRep{Weight: s.sizes[j], Digest: dig}
						s.p.cfg.Ctx.Counters.DeltaRepBytes.Add(16 + WireTxnSize(s.items(), w) - unchangedRepSize)
						continue
					}
					s.sentRepDigest[h][j] = dig
				}
				reps[j] = WeightedWireRep{Rep: w, Weight: s.sizes[j]}
			}
			msg.Reps = reps
			msg.Unchanged = unchanged
		}
		if err := s.send(s.round, h, msg); err != nil {
			return err
		}
	}

	// Per-sender slots keep the representative input order deterministic
	// regardless of message arrival order (reproducibility for a fixed
	// seed; floating-point aggregation is order-sensitive).
	s.bySender = make([]map[int]WeightedWireRep, s.m)
	s.anyContinue = s.changed
	s.armDeadline()
	for received := 0; received < s.m-1; {
		msg, err := s.nextLocal(ctx, s.round)
		if err != nil {
			return err
		}
		if msg.Flag == FlagContinue {
			s.anyContinue = true
		}
		reps, err := s.expandLocalReps(msg)
		if err != nil {
			return err
		}
		s.bySender[msg.From] = reps
		received++
	}
	s.emit(EventRepsExchanged, s.round, 0)

	if !s.anyContinue {
		s.emit(EventRoundEnd, s.round, s.objective)
		s.phase = PhaseDone // V_1 = … = V_m = done
		return nil
	}
	s.phase = PhaseRefineGlobals
	return nil
}

// checkRep rejects a peer-supplied representative whose cluster id lies
// outside [0,k) or whose wire form holds an item id outside the local
// interning table, before either can index a slice.
func (s *session) checkRep(from, j int, w WireTxn) error {
	if j < 0 || j >= s.k {
		return fmt.Errorf("%w: representative for cluster %d from peer %d outside [0,%d)",
			ErrUnexpectedMessage, j, from, s.k)
	}
	if err := checkWire(s.items(), w); err != nil {
		return fmt.Errorf("cluster %d representative from peer %d: %w", j, from, err)
	}
	return nil
}

// checkWeight rejects a peer-supplied cluster weight outside [1, |S|]: a
// sender ships only non-empty clusters, and a weight < 1 would zero or
// invert the ranking of ComputeGlobalRepresentative. A session restored
// from a state that predates SessionState.Txns has no upper bound.
func (s *session) checkWeight(from, j, w int) error {
	if w < 1 || (s.txns > 0 && w > s.txns) {
		return fmt.Errorf("%w: cluster %d weight %d from peer %d outside [1,%d]",
			ErrUnexpectedMessage, j, w, from, s.txns)
	}
	return nil
}

// checkPayload validates a received representative message before it is
// accounted, buffered or used: a LocalRepsMsg must name another peer as
// sender, every representative must pass checkRep, and every weight
// checkWeight.
func (s *session) checkPayload(payload any) error {
	switch msg := payload.(type) {
	case GlobalRepsMsg:
		for j, w := range msg.Reps {
			if err := s.checkRep(msg.From, j, w); err != nil {
				return err
			}
		}
	case LocalRepsMsg:
		if msg.From < 0 || msg.From >= s.m || msg.From == s.p.cfg.ID {
			return fmt.Errorf("%w: local representatives from invalid peer %d", ErrUnexpectedMessage, msg.From)
		}
		for j, wr := range msg.Reps {
			if err := s.checkRep(msg.From, j, wr.Rep); err != nil {
				return err
			}
			if err := s.checkWeight(msg.From, j, wr.Weight); err != nil {
				return err
			}
		}
		for j, u := range msg.Unchanged {
			if err := s.checkRep(msg.From, j, WireTxn{}); err != nil {
				return err
			}
			if err := s.checkWeight(msg.From, j, u.Weight); err != nil {
				return err
			}
		}
	}
	return nil
}

// expandLocalReps resolves a received LocalRepsMsg into the full per-cluster
// representative map, expanding delta-exchange markers from the per-sender
// cache and refreshing that cache with every full representative received.
// A marker with no matching cache entry is a protocol violation — the sender
// believes it shipped a full representative earlier that this peer never
// cached — and fails the session rather than risking a silently divergent
// refinement.
func (s *session) expandLocalReps(msg LocalRepsMsg) (map[int]WeightedWireRep, error) {
	if !s.p.cfg.DeltaRounds {
		return msg.Reps, nil
	}
	if s.recvRepCache == nil {
		s.recvRepCache = make([]map[int]cachedWireRep, s.m)
	}
	cache := s.recvRepCache[msg.From]
	if cache == nil {
		cache = map[int]cachedWireRep{}
		s.recvRepCache[msg.From] = cache
	}
	for j, wr := range msg.Reps {
		cache[j] = cachedWireRep{wire: wr.Rep, dig: wireDigest(wr.Rep)}
	}
	if len(msg.Unchanged) == 0 {
		return msg.Reps, nil
	}
	// In-process transports deliver the sender's own map object: merge into a
	// fresh map, never into msg.Reps.
	merged := make(map[int]WeightedWireRep, len(msg.Reps)+len(msg.Unchanged))
	for j, wr := range msg.Reps {
		merged[j] = wr
	}
	for j, u := range msg.Unchanged {
		c, ok := cache[j]
		if !ok || c.dig != u.Digest {
			return nil, fmt.Errorf("%w: delta marker for cluster %d from peer %d has no matching cached representative",
				ErrUnexpectedMessage, j, msg.From)
		}
		merged[j] = WeightedWireRep{Rep: c.wire, Weight: u.Weight}
	}
	return merged, nil
}

// refineGlobals is protocol phase 4: compute the global representatives for
// own clusters from the m local representatives in peer-id order, then
// advance the round.
func (s *session) refineGlobals(ctx context.Context) error {
	_ = ctx // pure local compute; cancellation is observed at the next receive
	cfg := &s.p.cfg
	repCfg := cluster.RepConfig{Ctx: cfg.Ctx, Rule: cfg.Rule, Workers: cfg.Workers}
	s.compute(s.round, func() {
		for _, j := range s.zi {
			var reps []cluster.WeightedRep
			for h := 0; h < s.m; h++ {
				if h == cfg.ID {
					if s.localRp[j] != nil {
						reps = append(reps, cluster.WeightedRep{Rep: s.localRp[j], Weight: s.sizes[j]})
					}
					continue
				}
				if wr, ok := s.bySender[h][j]; ok {
					reps = append(reps, cluster.WeightedRep{Rep: fromWire(s.items(), wr.Rep), Weight: wr.Weight})
				}
			}
			if len(reps) == 0 {
				continue // keep the previous global representative
			}
			var g *txn.Transaction
			if s.delta != nil {
				g = s.delta.GlobalRep(repCfg, j, reps)
			} else {
				g = cluster.ComputeGlobalRepresentative(repCfg, reps)
			}
			if g != nil {
				s.global[j] = g
			}
		}
	})
	s.bySender = nil
	s.emit(EventRoundEnd, s.round, s.objective)
	s.round++
	if s.round >= s.p.cfg.MaxRounds {
		s.phase = PhaseDone
		return nil
	}
	s.phase = PhaseBroadcastGlobals
	return nil
}

// result snapshots the session outcome.
func (s *session) result() *SessionResult {
	return &SessionResult{
		Assign:         append([]int(nil), s.assign...),
		Reps:           append([]*txn.Transaction(nil), s.global...),
		Rounds:         s.rounds,
		Report:         s.report,
		PendingAssigns: s.pendAssign,
	}
}

// armDeadline starts the receive deadline for the current blocking phase.
func (s *session) armDeadline() {
	if s.p.cfg.RoundTimeout > 0 {
		s.deadline = time.Now().Add(s.p.cfg.RoundTimeout)
	} else {
		s.deadline = time.Time{}
	}
}

// armStartupDeadline starts the (typically longer) deadline for the wait on
// N0's StartMsg: peer processes boot in any order, so the first wait must
// tolerate the whole cluster's spin-up, not just one round's slack.
func (s *session) armStartupDeadline() {
	st := s.p.cfg.StartupTimeout
	switch {
	case st > 0:
		s.deadline = time.Now().Add(st)
	case st == 0:
		s.armDeadline()
	default:
		s.deadline = time.Time{}
	}
}

// recvEnvelope blocks for the next protocol envelope of the current epoch,
// honouring ctx and the armed phase deadline. Control-plane payloads are
// routed to the fabric hooks from here — any phase, any epoch — and never
// surface to the protocol state machine; a hook that returns a state makes
// recvEnvelope fail with the internal rollback signal, unwound by
// RunSession. Stale-epoch protocol traffic is dropped, future-epoch traffic
// parked until the session catches up.
func (s *session) recvEnvelope(ctx context.Context) (p2p.Envelope, error) {
	ch := s.p.cfg.Transport.Recv(s.p.cfg.ID)
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	for {
		if env, ok := s.takeFuture(); ok {
			return env, nil
		}
		var timer *time.Timer
		var timerC <-chan time.Time
		if !s.deadline.IsZero() {
			d := time.Until(s.deadline)
			if d <= 0 {
				if err := s.deadlineExpired(); err != nil {
					return p2p.Envelope{}, err
				}
				continue
			}
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		select {
		case env, ok := <-ch:
			if timer != nil {
				timer.Stop()
			}
			if !ok {
				return p2p.Envelope{}, ErrTransportClosed
			}
			if _, ctl := env.Payload.(ControlPayload); ctl {
				if err := s.handleControl(env); err != nil {
					return p2p.Envelope{}, err
				}
				continue
			}
			if env.Epoch != p2p.EpochAny {
				if env.Epoch < s.epoch {
					s.staleDropped++
					continue
				}
				if env.Epoch > s.epoch {
					s.pendFuture = append(s.pendFuture, env)
					continue
				}
			}
			return env, nil
		case <-ctxDone:
			if timer != nil {
				timer.Stop()
			}
			return p2p.Envelope{}, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		case <-timerC:
			if err := s.deadlineExpired(); err != nil {
				return p2p.Envelope{}, err
			}
		}
	}
}

// handleControl routes a control-plane envelope to the fabric hooks. A
// session without hooks cannot participate in membership changes, so
// control traffic reaching it is a deployment mismatch and fails loudly.
func (s *session) handleControl(env p2p.Envelope) error {
	h := s.p.cfg.Hooks
	if h == nil {
		return fmt.Errorf("%w: control message %T on a session without fabric hooks",
			ErrUnexpectedMessage, env.Payload)
	}
	st, err := h.Control(env)
	if err != nil {
		return err
	}
	if st != nil {
		return &rollbackError{st: st}
	}
	return nil
}

// deadlineExpired consults the fabric hooks when a blocking receive ran out
// of time. Without hooks the legacy behaviour holds: the session fails with
// ErrRoundDeadline. With hooks, (nil, nil) grants one more timeout window
// (the hook does its own accounting — e.g. reporting a suspect to the
// coordinator and bounding the recovery wait), a state rolls back, an error
// fails the session.
func (s *session) deadlineExpired() error {
	h := s.p.cfg.Hooks
	if h == nil {
		return ErrRoundDeadline
	}
	st, err := h.Deadline(s.phase, s.round)
	if err != nil {
		return err
	}
	if st != nil {
		return &rollbackError{st: st}
	}
	s.armDeadline()
	return nil
}

// takeFuture scans the future-epoch parking lot for envelopes the session
// has caught up to; entries whose epoch fell behind in the meantime are
// dropped.
func (s *session) takeFuture() (p2p.Envelope, bool) {
	for i := 0; i < len(s.pendFuture); i++ {
		env := s.pendFuture[i]
		if env.Epoch < s.epoch {
			s.pendFuture = append(s.pendFuture[:i], s.pendFuture[i+1:]...)
			s.staleDropped++
			i--
			continue
		}
		if env.Epoch == s.epoch {
			s.pendFuture = append(s.pendFuture[:i], s.pendFuture[i+1:]...)
			return env, true
		}
	}
	return p2p.Envelope{}, false
}

// rejoin parks protocol traffic while the fabric negotiates this peer's
// admission; the session leaves this phase only through a rollback install
// (the recovery state arrives via Hooks.Control) or a failure. Protocol
// messages of the admission epoch race ahead of the state transfer on other
// connections, so they are parked rather than rejected — takeFuture replays
// them once the state is installed.
func (s *session) rejoin(ctx context.Context) error {
	if s.p.cfg.Hooks == nil {
		return fmt.Errorf("%w: rejoin requires fabric hooks", ErrUnexpectedMessage)
	}
	s.armStartupDeadline()
	for {
		env, err := s.recvEnvelope(ctx)
		if err != nil {
			return err
		}
		// Anything surfacing here carries the session's pre-admission epoch:
		// leftovers of the slot's previous occupant. They predate the view
		// the joiner will be admitted under, and install drops the buffers —
		// parking them is bookkeeping, not acceptance. (New-epoch traffic
		// racing ahead of the state transfer is parked inside recvEnvelope
		// and replayed by takeFuture after the install.)
		switch msg := env.Payload.(type) {
		case GlobalRepsMsg:
			s.pendGlobal[msg.Round] = append(s.pendGlobal[msg.Round], msg)
		case LocalRepsMsg:
			s.pendLocal[msg.Round] = append(s.pendLocal[msg.Round], msg)
		case AssignMsg, StartMsg:
			// Superseded by the incoming state transfer.
		default:
			return fmt.Errorf("%w: %T while awaiting rejoin state", ErrUnexpectedMessage, env.Payload)
		}
	}
}

// growRound ensures the per-round accounting slices cover the given round.
// Idempotent: messages can arrive one phase ahead of the local round.
func (s *session) growRound(round int) {
	for len(s.report.ComputeByRound) <= round {
		s.report.ComputeByRound = append(s.report.ComputeByRound, 0)
		s.report.SentBytesByRound = append(s.report.SentBytesByRound, 0)
		s.report.RecvBytesByRound = append(s.report.RecvBytesByRound, 0)
		s.report.SentMsgsByRound = append(s.report.SentMsgsByRound, 0)
		s.report.RecvMsgsByRound = append(s.report.RecvMsgsByRound, 0)
	}
	s.report.LocalTransactions = len(s.p.cfg.Local)
	if s.newLocalRp == nil {
		s.newLocalRp = make([]*txn.Transaction, s.k)
	}
}

// compute runs fn under the optional compute token, accounting its wall
// time to the given round.
func (s *session) compute(round int, fn func()) {
	if tok := s.p.cfg.ComputeToken; tok != nil {
		<-tok
		defer func() { tok <- struct{}{} }()
	}
	t0 := time.Now()
	fn()
	s.report.ComputeByRound[round] += time.Since(t0)
}

// send delivers a payload and accounts it; transport failures fail the
// session (a silent drop would leave the receiving peer to starve) unless
// fabric hooks decide the failure is survivable — then the message is
// dropped unaccounted and the deadline/recovery machinery reconciles.
func (s *session) send(round, to int, payload any) error {
	if err := s.p.cfg.Transport.Send(s.p.cfg.ID, to, payload); err != nil {
		if h := s.p.cfg.Hooks; h != nil {
			if herr := h.SendFailed(to, round, err); herr != nil {
				return herr
			}
			return nil
		}
		return fmt.Errorf("%w: to peer %d: %v", ErrSend, to, err)
	}
	s.report.SentMsgsByRound[round]++
	s.report.SentBytesByRound[round] += s.size(payload)
	return nil
}

func (s *session) size(payload any) int64 {
	if s.p.cfg.Sizer == nil {
		return 0
	}
	return s.p.cfg.Sizer(payload)
}

// items is the peer's interning table (shared in-process, private per OS
// process).
func (s *session) items() *txn.ItemTable { return s.p.cfg.Ctx.Items }

func (s *session) recvAccount(round int, env p2p.Envelope) {
	if round < 0 || s.k == 0 {
		return // startup message, before the protocol state exists
	}
	s.growRound(round)
	s.report.RecvMsgsByRound[round]++
	s.report.RecvBytesByRound[round] += s.size(env.Payload)
}

// nextGlobal returns the next GlobalRepsMsg for the given round, buffering
// out-of-phase messages.
func (s *session) nextGlobal(ctx context.Context, round int) (GlobalRepsMsg, error) {
	if q := s.pendGlobal[round]; len(q) > 0 {
		msg := q[0]
		s.pendGlobal[round] = q[1:]
		return msg, s.checkPayload(msg) // startup may have buffered it unchecked
	}
	for {
		env, err := s.recvEnvelope(ctx)
		if err != nil {
			return GlobalRepsMsg{}, err
		}
		if err := s.checkPayload(env.Payload); err != nil {
			return GlobalRepsMsg{}, err
		}
		switch msg := env.Payload.(type) {
		case GlobalRepsMsg:
			s.recvAccount(msg.Round, env)
			if msg.Round == round {
				return msg, nil
			}
			s.pendGlobal[msg.Round] = append(s.pendGlobal[msg.Round], msg)
		case LocalRepsMsg:
			s.recvAccount(msg.Round, env)
			s.pendLocal[msg.Round] = append(s.pendLocal[msg.Round], msg)
		case AssignMsg:
			s.pendAssign = append(s.pendAssign, msg)
		default:
			return GlobalRepsMsg{}, fmt.Errorf("%w: %T while awaiting global reps", ErrUnexpectedMessage, env.Payload)
		}
	}
}

// nextLocal returns the next LocalRepsMsg for the given round.
func (s *session) nextLocal(ctx context.Context, round int) (LocalRepsMsg, error) {
	if q := s.pendLocal[round]; len(q) > 0 {
		msg := q[0]
		s.pendLocal[round] = q[1:]
		return msg, s.checkPayload(msg) // startup may have buffered it unchecked
	}
	for {
		env, err := s.recvEnvelope(ctx)
		if err != nil {
			return LocalRepsMsg{}, err
		}
		if err := s.checkPayload(env.Payload); err != nil {
			return LocalRepsMsg{}, err
		}
		switch msg := env.Payload.(type) {
		case LocalRepsMsg:
			s.recvAccount(msg.Round, env)
			if msg.Round == round {
				return msg, nil
			}
			s.pendLocal[msg.Round] = append(s.pendLocal[msg.Round], msg)
		case GlobalRepsMsg:
			s.recvAccount(msg.Round, env)
			s.pendGlobal[msg.Round] = append(s.pendGlobal[msg.Round], msg)
		case AssignMsg:
			s.pendAssign = append(s.pendAssign, msg)
		default:
			return LocalRepsMsg{}, fmt.Errorf("%w: %T while awaiting local reps", ErrUnexpectedMessage, env.Payload)
		}
	}
}

// fingerprintReps hashes a representative slice (FNV-1a over item ids and
// separators) for cycle detection.
func fingerprintReps(reps []*txn.Transaction) uint64 {
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
		mix(^uint64(0)) // cluster separator
		if rep == nil {
			continue
		}
		for _, id := range rep.Items {
			mix(uint64(id))
		}
	}
	return h
}

func repSliceEqual(a, b []*txn.Transaction) bool {
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
