// Package pkmeans implements the non-collaborative distributed baseline of
// Sect. 5.5.3: the parallel K-means of Dhillon & Modha (1999) adapted to
// the XML transactional domain. As in the paper's adaptation, the algorithm
// is equipped with the XML transaction similarity (simγJ in place of the
// Euclidean distance) and with XML cluster representative computation (in
// place of the vector mean), and the message-passing multiprocessor scheme
// is mapped onto the same P2P network substrate used by CXK-means.
//
// The defining difference from CXK-means is the communication pattern:
// every peer ships its local representatives for *all* k clusters to
// *every* other peer each iteration (all-to-all, Θ(k·m) transfers per
// peer-round instead of Θ(k)), computes every global representative
// redundantly, and the iteration stops when the summed global SSE no longer
// changes.
package pkmeans

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"xmlclust/internal/cluster"
	"xmlclust/internal/core"
	"xmlclust/internal/p2p"
	"xmlclust/internal/sim"
	"xmlclust/internal/txn"
)

// RepsMsg is the per-iteration all-to-all payload: a peer's local
// representatives for every cluster plus its local SSE contribution.
type RepsMsg struct {
	From  int
	Round int
	// Reps maps cluster id → (representative, |C_i_j|) for all k clusters.
	Reps map[int]core.WeightedWireRep
	// SSE is the local sum of (1 − simγJ(tr, rep_assigned)).
	SSE float64
	// Initial marks the round-0 seeding message (reps only for the peer's
	// responsibility range, so all peers agree on the k initial centers).
	Initial bool
}

func init() { p2p.RegisterWireType(RepsMsg{}) }

// Options configures a PK-means run. The fields mirror core.Options so
// that the Fig. 8 comparison feeds both algorithms identically.
type Options struct {
	K         int
	Params    sim.Params
	Peers     int
	Partition [][]int
	MaxRounds int
	Seed      int64
	Rule      cluster.ReturnRule
	// Workers bounds each peer's intra-peer parallelism (see core.Options).
	Workers int
	// IndexReps enables the inverted representative index for the local
	// assignment step (see core.Options.IndexReps); assignments are
	// byte-identical either way.
	IndexReps bool
	// DeltaRounds carries a cross-round delta cache through each peer's
	// iteration (see core.Options.DeltaRounds): unchanged memberships reuse
	// memoized representatives. Assignments are byte-identical either way. PK-means ships all k representatives all-to-all every round
	// by design, so the delta representative exchange does not apply here.
	DeltaRounds      bool
	Transport        p2p.Transport
	SerializeCompute bool
	// SSEEpsilon is the stop threshold on the global SSE change.
	SSEEpsilon float64
	// Observer, when non-nil, receives round-boundary progress events
	// (RoundStart/RoundEnd with the peer's local SSE as the objective,
	// peer-level Done, and one run-level Done with Peer == -1). PK-means
	// has no phase machine, so no PhaseChange events are emitted. Must be
	// safe for concurrent calls.
	Observer core.Observer
}

// DefaultSSEEpsilon stops the iteration when the global SSE moves less
// than this amount.
const DefaultSSEEpsilon = 1e-9

// Run executes PK-means and returns a core.Result (same accounting shape
// as CXK-means so the experiment harness can compare them directly).
// Cancellation of ctx aborts every peer at its next round boundary or
// blocking receive and Run returns an error wrapping core.ErrCanceled; a
// nil ctx never cancels.
func Run(ctx context.Context, cx *sim.Context, corpus *txn.Corpus, opts Options) (*core.Result, error) {
	m := opts.Peers
	if m <= 0 {
		return nil, fmt.Errorf("pkmeans: need at least one peer, got %d", m)
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("pkmeans: need k ≥ 1, got %d", opts.K)
	}
	if len(opts.Partition) != m {
		return nil, fmt.Errorf("pkmeans: partition has %d parts for %d peers", len(opts.Partition), m)
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = core.DefaultMaxRounds
	}
	eps := opts.SSEEpsilon
	if eps <= 0 {
		eps = DefaultSSEEpsilon
	}
	transport := opts.Transport
	if transport == nil {
		transport = p2p.NewChanTransport(m, sizer(corpus.Items))
		defer transport.Close()
	}

	var computeToken chan struct{}
	if opts.SerializeCompute {
		computeToken = make(chan struct{}, 1)
		computeToken <- struct{}{}
	}

	peers := make([]*peer, m)
	for i := 0; i < m; i++ {
		local := make([]*txn.Transaction, len(opts.Partition[i]))
		for j, idx := range opts.Partition[i] {
			local[j] = corpus.Transactions[idx]
		}
		peers[i] = &peer{
			id: i, cx: cx, local: local, globalIdx: opts.Partition[i],
			transport: transport, sizer: sizer(corpus.Items),
			k: opts.K, maxRounds: maxRounds, seed: opts.Seed + int64(i),
			rule: opts.Rule, workers: opts.Workers, eps: eps, computeToken: computeToken,
			indexReps:   opts.IndexReps,
			deltaRounds: opts.DeltaRounds,
			zi:          core.ResponsibilityPartition(opts.K, m)[i],
			observer:    opts.Observer,
		}
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = peers[i].run(ctx)
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pkmeans: peer %d: %w", i, err)
		}
	}

	res := &core.Result{
		Assign:   make([]int, len(corpus.Transactions)),
		Reps:     peers[0].global,
		WallTime: wall,
		Peers:    make([]core.PeerReport, m),
	}
	for i := range res.Assign {
		res.Assign[i] = cluster.TrashCluster
	}
	for i, p := range peers {
		res.Peers[i] = p.report
		if p.rounds > res.Rounds {
			res.Rounds = p.rounds
		}
		for localIdx, a := range p.assign {
			res.Assign[p.globalIdx[localIdx]] = a
		}
	}
	if opts.Observer != nil {
		msgs, bytes := res.TotalTraffic()
		opts.Observer(core.Event{
			Kind: core.EventDone, Peer: -1, Round: res.Rounds, Phase: core.PhaseDone,
			SentMsgs: msgs, SentBytes: bytes,
			PrunedRows:      cx.Counters.PrunedRows.Load(),
			ScratchReuses:   cx.Counters.ScratchReuses.Load(),
			IndexCandidates: cx.Counters.IndexCandidates.Load(),
			IndexSkipped:    cx.Counters.IndexSkipped.Load(),
			RepsReused:      cx.Counters.RepsReused.Load(),
			DeltaRepBytes:   cx.Counters.DeltaRepBytes.Load(),
			Elapsed:         wall,
		})
	}
	return res, nil
}

// sizer models wire sizes like core.Sizer but for RepsMsg.
func sizer(items *txn.ItemTable) p2p.Sizer {
	base := core.Sizer(items)
	return func(payload any) int64 {
		msg, ok := payload.(RepsMsg)
		if !ok {
			return base(payload)
		}
		n := int64(33) // header + SSE + flags
		for _, r := range msg.Reps {
			n += 16 + core.WireTxnSize(items, r.Rep)
		}
		return n
	}
}

type peer struct {
	id           int
	cx           *sim.Context
	local        []*txn.Transaction
	globalIdx    []int
	transport    p2p.Transport
	sizer        p2p.Sizer
	k            int
	zi           []int
	maxRounds    int
	seed         int64
	rule         cluster.ReturnRule
	workers      int
	eps          float64
	computeToken chan struct{}
	indexReps    bool
	repIndex     *sim.RepIndex
	deltaRounds  bool
	delta        *cluster.DeltaState

	observer core.Observer
	t0       time.Time

	global  []*txn.Transaction
	assign  []int
	rounds  int
	report  core.PeerReport
	pending map[int][]RepsMsg
}

// emit publishes a progress event when an observer is configured.
func (p *peer) emit(kind core.EventKind, round int, objective float64) {
	if p.observer == nil {
		return
	}
	sm, sb, rm, rb := p.report.TrafficTotals()
	p.observer(core.Event{
		Kind: kind, Peer: p.id, Round: round, Objective: objective,
		SentMsgs: sm, SentBytes: sb, RecvMsgs: rm, RecvBytes: rb,
		PrunedRows:      p.cx.Counters.PrunedRows.Load(),
		ScratchReuses:   p.cx.Counters.ScratchReuses.Load(),
		IndexCandidates: p.cx.Counters.IndexCandidates.Load(),
		IndexSkipped:    p.cx.Counters.IndexSkipped.Load(),
		RepsReused:      p.cx.Counters.RepsReused.Load(),
		DeltaRepBytes:   p.cx.Counters.DeltaRepBytes.Load(),
		Elapsed:         time.Since(p.t0),
	})
}

// canceled reports a done ctx as a core.ErrCanceled-wrapping error.
func canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", core.ErrCanceled, ctx.Err())
	default:
		return nil
	}
}

func (p *peer) run(ctx context.Context) error {
	p.t0 = time.Now()
	m := p.transport.Peers()
	p.pending = map[int][]RepsMsg{}
	p.global = make([]*txn.Transaction, p.k)
	p.assign = make([]int, len(p.local))
	for i := range p.assign {
		p.assign[i] = cluster.TrashCluster
	}
	repCfg := cluster.RepConfig{Ctx: p.cx, Rule: p.rule, Workers: p.workers}

	// Round 0: agree on the k initial centers. Peer i seeds the clusters in
	// its responsibility range from its local data and broadcasts them.
	rng := rand.New(rand.NewSource(p.seed))
	initial := map[int]core.WeightedWireRep{}
	for idx, tr := range cluster.SelectInitial(p.local, len(p.zi), rng) {
		j := p.zi[idx]
		p.global[j] = tr
		initial[j] = core.WeightedWireRep{Rep: wireOf(tr), Weight: 1}
	}
	p.growRound(0)
	for h := 0; h < m; h++ {
		if h == p.id {
			continue
		}
		p.send(0, h, RepsMsg{From: p.id, Round: 0, Reps: initial, Initial: true})
	}
	for received := 0; received < m-1; {
		msg, err := p.next(ctx, 0)
		if err != nil {
			return err
		}
		if !msg.Initial {
			return fmt.Errorf("expected initial reps, got round %d message", msg.Round)
		}
		for j, wr := range msg.Reps {
			p.global[j] = txnOf(wr.Rep)
		}
		received++
	}

	prevSSE := math.Inf(1)
	// seenSSE guards against SSE orbits: the greedy XML representative
	// update is not monotone like the Euclidean mean, so the global SSE can
	// cycle; a revisited value stops the iteration (same rationale as the
	// CXK peer's state fingerprinting).
	seenSSE := map[uint64]struct{}{}
	for round := 1; round <= p.maxRounds; round++ {
		if err := canceled(ctx); err != nil {
			return err // clean round-boundary abort
		}
		p.rounds = round + 1 // rounds counts the seeding round too
		p.growRound(round)
		// Event.Round is 0-based (see core.Event); the local round counter
		// is 1-based because round 0 is the seeding exchange.
		p.emit(core.EventRoundStart, round-1, 0)

		// Local K-means step against the shared centers.
		var localReps map[int]core.WeightedWireRep
		var localSSE float64
		p.compute(round, func() {
			if p.repIndex == nil {
				p.repIndex = sim.NewRepIndex()
			}
			p.repIndex.BuildMode(p.cx, p.global, p.indexReps)
			ix := p.repIndex
			if p.deltaRounds && p.delta == nil {
				p.delta = cluster.NewDeltaState(p.k)
			}
			p.assign, _ = cluster.RelocateCtxIndexed(nil, p.cx, p.local, p.global, p.workers, ix)
			members := make([][]*txn.Transaction, p.k)
			for i, a := range p.assign {
				if a >= 0 {
					members[a] = append(members[a], p.local[i])
				}
			}
			var memberFps []uint64
			if p.delta != nil {
				memberFps = p.delta.MemberFingerprints(p.assign)
			}
			localReps = map[int]core.WeightedWireRep{}
			for j := 0; j < p.k; j++ {
				if len(members[j]) == 0 {
					continue
				}
				var rep *txn.Transaction
				if p.delta != nil {
					rep = p.delta.LocalRep(repCfg, j, memberFps[j], members[j])
				} else {
					rep = cluster.ComputeLocalRepresentative(repCfg, members[j])
				}
				if rep != nil {
					localReps[j] = core.WeightedWireRep{Rep: wireOf(rep), Weight: len(members[j])}
				}
			}
			localSSE = cluster.SSEWorkers(p.cx, p.local, p.assign, p.global, p.workers, ix)
		})

		// All-to-all exchange: every peer ships all k local reps + SSE.
		for h := 0; h < m; h++ {
			if h == p.id {
				continue
			}
			p.send(round, h, RepsMsg{From: p.id, Round: round, Reps: localReps, SSE: localSSE})
		}
		// Per-peer slots keep aggregation order deterministic: every peer
		// must compute bit-identical global SSEs (the stop rule) and
		// identical representative input orders, independent of message
		// arrival order.
		sseBy := make([]float64, m)
		repsBy := make([]map[int]core.WeightedWireRep, m)
		sseBy[p.id] = localSSE
		repsBy[p.id] = localReps
		for received := 0; received < m-1; {
			msg, err := p.next(ctx, round)
			if err != nil {
				return err
			}
			sseBy[msg.From] = msg.SSE
			repsBy[msg.From] = msg.Reps
			received++
		}
		globalSSE := 0.0
		perCluster := make([][]cluster.WeightedRep, p.k)
		for h := 0; h < m; h++ {
			globalSSE += sseBy[h]
			for j, wr := range repsBy[h] {
				perCluster[j] = append(perCluster[j], cluster.WeightedRep{Rep: txnOf(wr.Rep), Weight: wr.Weight})
			}
		}

		// Redundant global representative computation on every peer.
		p.compute(round, func() {
			for j := 0; j < p.k; j++ {
				if len(perCluster[j]) == 0 {
					continue
				}
				if g := cluster.ComputeGlobalRepresentative(repCfg, perCluster[j]); g != nil {
					p.global[j] = g
				}
			}
		})

		p.emit(core.EventRoundEnd, round-1, localSSE)

		if math.Abs(globalSSE-prevSSE) <= p.eps {
			break
		}
		bits := math.Float64bits(globalSSE)
		if _, cycle := seenSSE[bits]; cycle {
			break
		}
		seenSSE[bits] = struct{}{}
		prevSSE = globalSSE
	}
	p.emit(core.EventDone, p.rounds, 0)
	return nil
}

func (p *peer) growRound(round int) {
	for len(p.report.ComputeByRound) <= round {
		p.report.ComputeByRound = append(p.report.ComputeByRound, 0)
		p.report.SentBytesByRound = append(p.report.SentBytesByRound, 0)
		p.report.RecvBytesByRound = append(p.report.RecvBytesByRound, 0)
		p.report.SentMsgsByRound = append(p.report.SentMsgsByRound, 0)
		p.report.RecvMsgsByRound = append(p.report.RecvMsgsByRound, 0)
	}
	p.report.LocalTransactions = len(p.local)
}

func (p *peer) compute(round int, fn func()) {
	if p.computeToken != nil {
		<-p.computeToken
		defer func() { p.computeToken <- struct{}{} }()
	}
	t0 := time.Now()
	fn()
	p.report.ComputeByRound[round] += time.Since(t0)
}

func (p *peer) send(round, to int, payload any) {
	if err := p.transport.Send(p.id, to, payload); err != nil {
		return
	}
	p.report.SentMsgsByRound[round]++
	p.report.SentBytesByRound[round] += p.sizer(payload)
}

func (p *peer) next(ctx context.Context, round int) (RepsMsg, error) {
	if q := p.pending[round]; len(q) > 0 {
		msg := q[0]
		p.pending[round] = q[1:]
		return msg, nil
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	for {
		var env p2p.Envelope
		select {
		case e, ok := <-p.transport.Recv(p.id):
			if !ok {
				return RepsMsg{}, fmt.Errorf("transport closed while awaiting reps")
			}
			env = e
		case <-ctxDone:
			return RepsMsg{}, fmt.Errorf("%w: %w", core.ErrCanceled, ctx.Err())
		}
		msg, ok := env.Payload.(RepsMsg)
		if !ok {
			return RepsMsg{}, fmt.Errorf("unexpected message %T", env.Payload)
		}
		p.growRound(msg.Round)
		p.report.RecvMsgsByRound[msg.Round]++
		p.report.RecvBytesByRound[msg.Round] += p.sizer(msg)
		if msg.Round == round {
			return msg, nil
		}
		p.pending[msg.Round] = append(p.pending[msg.Round], msg)
	}
}

func wireOf(tr *txn.Transaction) core.WireTxn {
	if tr == nil {
		return core.WireTxn{}
	}
	return core.WireTxn{Items: append([]txn.ItemID(nil), tr.Items...)}
}

func txnOf(w core.WireTxn) *txn.Transaction {
	if len(w.Items) == 0 {
		return nil
	}
	return txn.NewTransaction(w.Items, -1, -1, -1)
}
