// Protocol notes — the Fig. 5 message pattern as implemented.
//
// The protocol runs as an explicit phase engine: every peer is a Peer
// (NewPeer) whose RunSession executes a session — a state machine advancing
// startup → (broadcast-globals → relocate → exchange-locals →
// refine-globals)* → done, with one method per phase, per-phase receive
// deadlines (PeerConfig.RoundTimeout) and typed errors (SessionError
// wrapping ErrRoundDeadline / ErrTransportClosed / ErrUnexpectedMessage /
// ErrSend). Two drivers sit on top: Run executes all m sessions in one
// process over a shared transport, RunPeer executes exactly one session per
// OS process over a p2p.Node (see cmd/cxkpeer).
//
// Startup. The orchestrator (playing node N₀, which the paper notes can be
// any peer — peer 0 in both drivers) computes the responsibility partition
// Z₁..Z_m of the cluster ids and sends every peer a StartMsg. Peer i then
// selects q_i = |Z_i| initial global representatives from its local
// transactions, drawn from distinct source documents. On a real network a
// fast neighbour's round message can overtake the StartMsg (FIFO holds per
// connection, not across connections); startup buffers such messages.
//
// Each round has four phases:
//
//	Phase 1  broadcast  — peer i sends {g_j | j ∈ Z_i} to every other peer
//	                      and waits for the complementing m−1 messages, so
//	                      each peer holds all k global representatives.
//	Phase 2  relocate   — one relocation pass against the fixed globals
//	                      (zero similarity ⇒ trash cluster k+1), then one
//	                      local representative ℓ_ij per non-empty cluster.
//	Phase 3  exchange   — if no ℓ_ij changed (or the state revisits a
//	                      previous fingerprint), peer i broadcasts an empty
//	                      LocalRepsMsg with FlagDone; otherwise it sends
//	                      each peer h the pairs {(ℓ_ij, |C_ij|) | j ∈ Z_h}.
//	                      Every peer receives exactly m−1 LocalRepsMsg per
//	                      round, so the pattern is symmetric and the rounds
//	                      self-synchronize without a barrier.
//	Phase 4  refine     — if any flag was FlagContinue, peer i recomputes
//	                      g_j = ComputeGlobalRepresentative over the
//	                      received weighted locals (in peer-id order, for
//	                      reproducibility) for each j ∈ Z_i. If all m flags
//	                      were FlagDone the loop terminates — the flags are
//	                      identical at every peer, so termination is
//	                      consistent.
//
// Wire form. Representatives travel as flattened raw item ids: synthetic
// (conflated) items are interned per process, so toWire decomposes them
// into their raw constituents — stable across every process that loaded the
// same corpus — and fromWire re-conflates them in the local table. On a
// shared in-process table this reproduces the sender's exact item ids, so
// multi-process runs are byte-identical to in-process runs.
//
// Message reordering. A peer may run one phase ahead of a slow neighbour;
// nextGlobal/nextLocal buffer out-of-phase envelopes per (round, type), and
// a terminated peer's post-session AssignMsg is parked for the coordinator's
// collection step. The protocol therefore tolerates any interleaving a
// FIFO-per-pair transport can produce (exercised by the DelayTransport
// robustness tests).
//
// Failure handling. Sends propagate transport errors and fail the session
// (a silent drop would starve the receiving peer); receives honour the
// per-round deadline, so a dead peer surfaces as ErrRoundDeadline with the
// round and phase it struck in rather than a hung process.
//
// Accounting. Every peer records, per round: compute time (optionally
// serialized across peers via a token so measurements are not polluted by
// host-core oversubscription), modeled sent/received bytes and message
// counts. Result.SimulatedTime folds these into the paper's runtime
// metric: Σ_rounds (max_i compute + max_i wire-time).
package core
