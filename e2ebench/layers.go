package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"xmlclust"
	"xmlclust/internal/cluster"
	"xmlclust/internal/sim"
	"xmlclust/internal/tuple"
	"xmlclust/internal/txn"
	"xmlclust/internal/weighting"
	"xmlclust/internal/xmltree"
)

// tracedIngest is the set-up ingest of a traced run: BuildCorpusFromSource
// under a corpus.build span, with its allocations per document.
func tracedIngest(r *run, parent int, src xmlclust.Source, opts xmlclust.CorpusOptions) (*xmlclust.Corpus, error) {
	var (
		c   *xmlclust.Corpus
		st  xmlclust.IngestStats
		err error
	)
	_, end := r.tr.begin("corpus.build", parent)
	_, _, mallocs := memDelta(func() { c, st, err = xmlclust.BuildCorpusFromSource(src, opts) })
	end()
	if err != nil {
		return nil, err
	}
	r.set("corpus.build_s", st.Duration.Seconds())
	r.set("ingest_docs_per_s", st.DocsPerSec())
	r.set("corpus.peak_queued_trees", float64(st.PeakQueuedTrees))
	r.set("corpus.allocs_per_doc", ratio(float64(mallocs), float64(st.Docs)))
	return c, nil
}

// saveBytes serializes a corpus.
func saveBytes(c *xmlclust.Corpus) ([]byte, error) {
	var b bytes.Buffer
	if err := xmlclust.SaveCorpus(&b, c); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// replayChunk bounds how many parsed documents the stage-by-stage replay
// holds at once.
const replayChunk = 250

// replayIngest repeats the ingest serially, one stage at a time through
// each package's public functions (parse, tuple extraction, transaction
// building, ttf.itf weighting, then save and load), and checks that the
// result is byte-identical to the corpus.Build output ref (its saved gob).
func replayIngest(r *run, parent int, docs []rawDoc, ref []byte) error {
	id, end := r.tr.begin("ingest.replay", parent)
	defer end()
	opts := xmltree.DefaultParseOptions()
	b := txn.NewBuilder(txn.BuildOptions{})
	var parseT, extractT, buildT time.Duration
	tuples := 0
	for lo := 0; lo < len(docs); lo += replayChunk {
		chunk := docs[lo:min(lo+replayChunk, len(docs))]
		trees := make([]*xmltree.Tree, len(chunk))
		t0 := time.Now()
		for i, d := range chunk {
			t, err := xmltree.Parse(bytes.NewReader(d.xml), opts)
			if err != nil {
				return fmt.Errorf("replay parse %s: %w", d.name, err)
			}
			t.Name = d.name
			trees[i] = t
		}
		t1 := time.Now()
		results := make([]tuple.Result, len(trees))
		for i, t := range trees {
			results[i] = tuple.Extract(t, tuple.Options{})
			tuples += len(results[i].Tuples)
		}
		t2 := time.Now()
		for i, t := range trees {
			b.AddExtracted(t, results[i], chunk[i].label)
		}
		t3 := time.Now()
		r.tr.add("xmltree.parse", id, t0, t1)
		r.tr.add("tuple.extract", id, t1, t2)
		r.tr.add("txn.build", id, t2, t3)
		parseT += t1.Sub(t0)
		extractT += t2.Sub(t1)
		buildT += t3.Sub(t2)
	}
	c := b.Finish()
	t0 := time.Now()
	weighting.Apply(c)
	t1 := time.Now()
	r.tr.add("weighting.finalize", id, t0, t1)
	weightT := t1.Sub(t0)

	saved, err := saveBytes(c)
	t2 := time.Now()
	r.tr.add("txn.save", id, t1, t2)
	if err != nil {
		return fmt.Errorf("replay save: %w", err)
	}
	_, err = xmlclust.LoadCorpus(bytes.NewReader(saved))
	t3 := time.Now()
	r.tr.add("txn.load", id, t2, t3)
	if err != nil {
		return fmt.Errorf("replay load: %w", err)
	}
	if !bytes.Equal(saved, ref) {
		return fmt.Errorf("stage-by-stage ingest differs from corpus.Build (%d vs %d gob bytes)", len(saved), len(ref))
	}

	r.set("xmltree.parse_s", parseT.Seconds())
	r.set("xmltree.parse_mb_per_s", ratio(float64(totalBytes(docs))/1e6, parseT.Seconds()))
	r.set("tuple.extract_s", extractT.Seconds())
	r.set("tuple.tuples", float64(tuples))
	r.set("txn.build_s", buildT.Seconds())
	r.set("txn.transactions", float64(len(c.Transactions)))
	r.set("txn.items", float64(c.Items.Len()))
	r.set("weighting.finalize_s", weightT.Seconds())
	r.set("txn.save_s", t2.Sub(t1).Seconds())
	r.set("txn.load_s", t3.Sub(t2).Seconds())
	r.set("txn.gob_bytes", float64(len(saved)))
	serial := parseT + extractT + buildT + weightT
	r.set("corpus.parallel_speedup", ratio(serial.Seconds(), r.values["corpus.build_s"]))
	return nil
}

// jobCounters reports the kernel, index and delta counters of one job.
func jobCounters(r *run, pruned, reuses, cand, skipped, reused, docsSkipped int64, txns, rounds int) {
	r.set("sim.pruned_rows", float64(pruned))
	r.set("sim.scratch_reuses", float64(reuses))
	r.set("sim.index_candidates", float64(cand))
	r.set("sim.index_skipped", float64(skipped))
	r.set("sim.index_skip_ratio", ratio(float64(skipped), float64(cand+skipped)))
	r.set("cluster.reps_reused", float64(reused))
	r.set("cluster.docs_skipped", float64(docsSkipped))
	r.set("cluster.docs_skipped_per_relocation", ratio(float64(docsSkipped), float64(txns*rounds)))
}

// probeConverged times one index-guided relocation pass and one local
// representative per cluster on the final representatives and assignment,
// on a fresh similarity context. When the job converged before the round
// cap, the relocation pass must reproduce the job's assignment.
func probeConverged(r *run, parent int, c *xmlclust.Corpus, reps []*xmlclust.Transaction, assign []int, rounds int) error {
	id, end := r.tr.begin("probe", parent)
	defer end()
	cx := sim.NewContext(c, sim.Params{F: clusterF, Gamma: clusterG})
	ix := sim.NewRepIndex()
	ix.Build(cx, reps)
	t0 := time.Now()
	got, err := cluster.RelocateCtxIndexed(context.Background(), cx, c.Transactions, reps, 1, ix)
	t1 := time.Now()
	r.tr.add("cluster.relocate_pass", id, t0, t1)
	if err != nil {
		return fmt.Errorf("probe relocation: %w", err)
	}
	r.set("cluster.relocate_pass_ms", float64(t1.Sub(t0))/float64(time.Millisecond))
	r.set("sim.item_sims_per_pass", float64(cx.Counters.ItemSims.Load()))
	r.set("sim.txn_sims_per_pass", float64(cx.Counters.TxnSims.Load()))
	same := 0
	for i := range got {
		if i < len(assign) && got[i] == assign[i] {
			same++
		}
	}
	r.set("cluster.probe_agreement", ratio(float64(same), float64(len(got))))
	converged := rounds < maxRounds
	r.note("probe: job ran %d of at most %d rounds (converged=%v); relocation pass agrees on %d of %d transactions",
		rounds, maxRounds, converged, same, len(got))
	if converged && same != len(got) {
		return fmt.Errorf("probe relocation reproduces only %d of %d assignments of a converged job", same, len(got))
	}

	members := make([][]*xmlclust.Transaction, len(reps))
	for i, a := range assign {
		if a >= 0 && a < len(members) {
			members[a] = append(members[a], c.Transactions[i])
		}
	}
	cfg := cluster.RepConfig{Ctx: cx, Rule: cluster.ReturnBestObjective, Workers: 1}
	t2 := time.Now()
	for _, m := range members {
		cluster.ComputeLocalRepresentative(cfg, m)
	}
	t3 := time.Now()
	r.tr.add("cluster.local_reps", id, t2, t3)
	r.set("cluster.local_reps_ms", float64(t3.Sub(t2))/float64(time.Millisecond))
	return nil
}

// phaseSpan is one protocol phase of one peer.
type phaseSpan struct {
	peer       int
	name       string
	start, end time.Time
}

// phaseRecorder turns the public PhaseChange/RoundEnd/Done event stream
// into per-peer phase spans, timed when each event arrives. The startup
// phase of a peer runs from the job's start to its first phase change.
type phaseRecorder struct {
	mu     sync.Mutex
	origin time.Time
	cur    map[int]*phaseSpan
	seen   map[int]bool
	spans  []phaseSpan
	rounds int
	last   map[int]xmlclust.Event // each peer's latest event
}

func newPhaseRecorder(origin time.Time) *phaseRecorder {
	return &phaseRecorder{origin: origin, cur: map[int]*phaseSpan{}, seen: map[int]bool{}, last: map[int]xmlclust.Event{}}
}

func (p *phaseRecorder) observe(ev xmlclust.Event) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if ev.Peer < 0 {
		return // run-level summary
	}
	if !p.seen[ev.Peer] {
		p.seen[ev.Peer] = true
		p.cur[ev.Peer] = &phaseSpan{peer: ev.Peer, name: "startup", start: p.origin}
	}
	p.last[ev.Peer] = ev
	switch ev.Kind {
	case xmlclust.EventPhaseChange:
		p.closeLocked(ev.Peer, now)
		if name := ev.Phase.String(); name != "done" {
			p.cur[ev.Peer] = &phaseSpan{peer: ev.Peer, name: name, start: now}
		}
	case xmlclust.EventRoundEnd:
		p.rounds = max(p.rounds, ev.Round+1)
	case xmlclust.EventDone:
		p.closeLocked(ev.Peer, now)
		p.rounds = max(p.rounds, ev.Round)
	}
}

func (p *phaseRecorder) closeLocked(peer int, now time.Time) {
	if c := p.cur[peer]; c != nil {
		c.end = now
		p.spans = append(p.spans, *c)
		delete(p.cur, peer)
	}
}

// finish closes every open phase at now.
func (p *phaseRecorder) finish(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for peer := range p.cur {
		p.closeLocked(peer, now)
	}
}

// phases are the protocol phases, in order, as the events name them.
var phases = []string{"startup", "broadcast-globals", "relocate", "exchange-locals", "refine-globals"}

// reportPhases records the phase spans under the job span and reports the
// per-phase times (mean over peers) and their shares of the job's wall time.
func reportPhases(r *run, rec *phaseRecorder, jobSpan int, wall time.Duration, peers int) {
	perPeer := map[int]map[string]time.Duration{}
	for _, s := range rec.spans {
		r.tr.add("core."+s.name, jobSpan, s.start, s.end)
		if perPeer[s.peer] == nil {
			perPeer[s.peer] = map[string]time.Duration{}
		}
		perPeer[s.peer][s.name] += s.end.Sub(s.start)
	}
	self := selfTimes(r.tr.snapshot())
	var covered float64
	for _, ph := range phases {
		key := "core." + strings.ReplaceAll(ph, "-", "_")
		v := self["core."+ph].Seconds() / float64(peers)
		covered += v
		r.set(key+"_s", v)
		r.set(key+"_share", ratio(v, wall.Seconds()))
	}
	r.set("core.phase_coverage", ratio(covered, wall.Seconds()))
	r.set("core.wait_share", r.values["core.broadcast_globals_share"]+r.values["core.exchange_locals_share"])
	var reloc []float64
	for _, m := range perPeer {
		reloc = append(reloc, m["relocate"].Seconds())
	}
	sort.Float64s(reloc)
	if len(reloc) > 0 {
		r.set("core.peer_imbalance", ratio(reloc[len(reloc)-1], reloc[0]))
	}
	r.set("core.rounds", float64(rec.rounds))
	var sent int64
	for _, ev := range rec.last {
		sent += ev.SentBytes
	}
	r.set("core.modeled_bytes", float64(sent))
}
