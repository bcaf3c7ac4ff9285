package main

import (
	"context"
	"time"

	"xmlclust"
)

// goStats reports the Go runtime's work over one timed job.
func goStats(r *run, gc uint32, allocMB float64, mallocs uint64) {
	r.set("go.gc_cycles", float64(gc))
	r.set("go.alloc_mb", allocMB)
	r.set("go.mallocs", float64(mallocs))
}

// traceDBLPCentral is the traced run of dblp-central on the seed's own
// corpus: a traced set-up, the stage-by-stage ingest replay, one job as in
// untraced runs (the reference for the tracing overhead, and the input of
// the converged-state probe), and one job with the event stream on, whose
// phases become spans and whose wall time is the run's cluster_s.
func traceDBLPCentral(r *run) error {
	inputs, err := dblpInputsFor(r.seed, 1)
	if err != nil {
		return err
	}
	docs := inputs[0]
	ck, err := newOutputChecker[clusterPin](r)
	if err != nil {
		return err
	}

	setupID, endSetup := r.tr.begin("setup", r.root)
	c, err := tracedIngest(r, setupID, newMemSource(docs), xmlclust.CorpusOptions{IngestWorkers: 1})
	if err != nil {
		endSetup()
		return err
	}
	_, endEngine := r.tr.begin("engine.new", setupID)
	eng, err := xmlclust.NewEngine(c, xmlclust.EngineOptions{})
	endEngine()
	endSetup()
	if err != nil {
		return err
	}
	ref, err := saveBytes(c)
	if err != nil {
		return err
	}
	r.op("stage-by-stage ingest replay", replayIngest(r, r.root, docs, ref))

	var res *xmlclust.Result
	_, endJob := r.tr.begin("cluster.job", r.root)
	t0 := time.Now()
	gc, alloc, mallocs := memDelta(func() { res, err = eng.Cluster(context.Background(), clusterOptions()) })
	wall := time.Since(t0)
	endJob()
	if !r.op("cluster", err) {
		return nil
	}
	goStats(r, gc, alloc, mallocs)
	fm := xmlclust.Evaluate(xmlclust.Labels(c), res.Assign, clusterK).FMeasure
	r.set("f_measure", fm)
	r.op("check output", checkCluster(ck, 0, clusterPin{assignDigest(res.Assign), repsDigest(c, res.Reps)}, fm))
	jobCounters(r, res.PrunedRows, res.ScratchReuses, res.IndexCandidates, res.IndexSkipped,
		res.RepsReused, res.DocsSkipped, len(c.Transactions), res.Rounds)
	r.set("sim.path_cache_entries", float64(eng.CachedPathSims()))
	r.op("converged-state probe", probeConverged(r, r.root, c, res.Reps, res.Assign, res.Rounds))

	// The traced job runs on a fresh corpus and Engine, so it is as cold as
	// the untraced one.
	c2, err := ingest(docs)
	if !r.op("set-up for the traced job", err) {
		return nil
	}
	eng2, err := xmlclust.NewEngine(c2, xmlclust.EngineOptions{})
	if !r.op("engine for the traced job", err) {
		return nil
	}
	opts := clusterOptions()
	tracedID, endTraced := r.tr.begin("cluster.job.traced", r.root)
	t1 := time.Now()
	rec := newPhaseRecorder(t1)
	opts.Events = rec.observe
	res2, err := eng2.Cluster(context.Background(), opts)
	t2 := time.Now()
	rec.finish(t2)
	endTraced()
	if !r.op("traced cluster", err) {
		return nil
	}
	r.op("traced output", errIf(assignDigest(res2.Assign) != assignDigest(res.Assign), errTracedDiffers))
	reportPhases(r, rec, tracedID, t2.Sub(t1), 1)
	r.set("cluster_s", t2.Sub(t1).Seconds())
	r.set("trace.overhead_ratio", ratio(t2.Sub(t1).Seconds(), wall.Seconds()))
	return nil
}

// traceDBLPTwoPeer is the traced run of dblp-2peer-tcp on the seed's own
// corpus: a traced set-up and ingest replay, one untraced distributed job
// (wire bytes and the overhead reference), the converged-state probe on the
// coordinator's result, and one job with both peers' event streams on.
func traceDBLPTwoPeer(r *run) error {
	inputs, err := dblpInputsFor(r.seed, 1)
	if err != nil {
		return err
	}
	docs := inputs[0]
	ck, err := newOutputChecker[clusterPin](r)
	if err != nil {
		return err
	}

	setupID, endSetup := r.tr.begin("setup", r.root)
	c, err := tracedIngest(r, setupID, newMemSource(docs), xmlclust.CorpusOptions{IngestWorkers: 1})
	if err != nil {
		endSetup()
		return err
	}
	ref, err := saveBytes(c)
	if err != nil {
		endSetup()
		return err
	}
	_, endPeers := r.tr.begin("peers.new", setupID)
	job, err := setupTwoPeer(docs)
	endPeers()
	endSetup()
	if err != nil {
		return err
	}
	r.op("stage-by-stage ingest replay", replayIngest(r, r.root, docs, ref))

	if !r.op("open relays", job.openRelays()) {
		return nil
	}
	_, endJob := r.tr.begin("cluster.job", r.root)
	t0 := time.Now()
	gc, alloc, mallocs := memDelta(func() { err = job.run(nil) })
	wall := time.Since(t0)
	endJob()
	bytes, conns := job.closeRelays()
	if !r.op("distributed cluster", err) {
		return nil
	}
	goStats(r, gc, alloc, mallocs)
	got, fm := job.output()
	r.op("check output", checkCluster(ck, 0, got, fm))
	res := job.results[0]
	r.set("f_measure", fm)
	r.set("wire_bytes", float64(bytes))
	r.set("p2p.wire_bytes", float64(bytes))
	r.set("p2p.bytes_per_round", ratio(float64(bytes), float64(res.Rounds)))
	r.set("p2p.connections", float64(conns))
	r.set("sim.path_cache_entries", float64(job.engines[0].CachedPathSims()+job.engines[1].CachedPathSims()))
	r.op("converged-state probe", probeConverged(r, r.root, job.corpora[0], res.Reps, res.Assign, res.Rounds))

	traced, err := setupTwoPeer(docs)
	if !r.op("set-up for the traced job", err) {
		return nil
	}
	if !r.op("open relays", traced.openRelays()) {
		return nil
	}
	tracedID, endTraced := r.tr.begin("cluster.job.traced", r.root)
	t1 := time.Now()
	rec := newPhaseRecorder(t1)
	err = traced.run(rec.observe)
	t2 := time.Now()
	rec.finish(t2)
	endTraced()
	traced.closeRelays()
	if !r.op("traced distributed cluster", err) {
		return nil
	}
	tg, _ := traced.output()
	r.op("traced output", errIf(tg != got, errTracedDiffers))
	reportPhases(r, rec, tracedID, t2.Sub(t1), 2)
	r.set("cluster_s", t2.Sub(t1).Seconds())
	r.set("trace.overhead_ratio", ratio(t2.Sub(t1).Seconds(), wall.Seconds()))
	// DistributedResult carries no kernel counters; each peer's last event
	// snapshots its own Engine's context, so the sum over peers is the job's.
	var pruned, reuses, cand, skipped, reused, docsSkipped int64
	for _, ev := range rec.last {
		pruned += ev.PrunedRows
		reuses += ev.ScratchReuses
		cand += ev.IndexCandidates
		skipped += ev.IndexSkipped
		reused += ev.RepsReused
		docsSkipped += ev.DocsSkipped
	}
	jobCounters(r, pruned, reuses, cand, skipped, reused, docsSkipped, len(c.Transactions), rec.rounds)

	// The same two-peer job through the in-process TCP transport of
	// Engine.Cluster, for comparison with the ClusterDistributed path.
	c3, err := ingest(docs)
	if !r.op("set-up for the in-process TCP job", err) {
		return nil
	}
	eng3, err := xmlclust.NewEngine(c3, xmlclust.EngineOptions{})
	if !r.op("engine for the in-process TCP job", err) {
		return nil
	}
	opts := clusterOptions()
	opts.Peers, opts.UseTCP = 2, true
	var res3 *xmlclust.Result
	_, endInproc := r.tr.begin("cluster.job.inprocess_tcp", r.root)
	t3 := time.Now()
	res3, err = eng3.Cluster(context.Background(), opts)
	inproc := time.Since(t3)
	endInproc()
	if !r.op("in-process TCP cluster", err) {
		return nil
	}
	r.set("p2p.inprocess_tcp_s", inproc.Seconds())
	r.set("p2p.inprocess_traffic_bytes", float64(res3.TrafficBytes))
	r.note("in-process Engine.Cluster{Peers: 2, UseTCP}: %.3f s (%.2fx the ClusterDistributed job), %d rounds, reports %d traffic bytes",
		inproc.Seconds(), ratio(inproc.Seconds(), wall.Seconds()), res3.Rounds, res3.TrafficBytes)
	return nil
}
