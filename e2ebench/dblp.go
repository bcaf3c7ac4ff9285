package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"sync"
	"time"

	"xmlclust"
	"xmlclust/internal/dataset"
)

const (
	// dblpDocs is the corpus size of both DBLP workloads (the ROADMAP
	// baseline corpus at seed 424242).
	dblpDocs = 2000
	// dblpInputs is how many distinct corpora one untraced run clusters;
	// input 0 is the run seed's own corpus. Job time depends on the corpus
	// (a centralized job takes 4.9 s on the seed-424242 corpus and 7.5 to
	// 8.0 s on the two corpora derived from it; two-peer jobs vary by about
	// ±17%), so averaging independent corpora in every run keeps the spread
	// across run seeds small. Four keeps a dblp-central run under 45 s.
	dblpInputs = 4
	// jobTimeout bounds one clustering job so a hung run still ends.
	jobTimeout = 120 * time.Second
)

// clusterPin is the pinned output of one clustering job.
type clusterPin struct {
	Assign string `json:"assign"`
	Reps   string `json:"reps"`
}

// assignDigest fingerprints an assignment (FNV-1a over its values).
func assignDigest(assign []int) string {
	h := fnv.New64a()
	var b [4]byte
	for _, a := range assign {
		v := uint32(int32(a))
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func repsDigest(c *xmlclust.Corpus, reps []*xmlclust.Transaction) string {
	return fmt.Sprintf("%016x", xmlclust.RepsDigest(c, reps))
}

// checkCluster checks one clustering job's output and quality.
func checkCluster(ck *outputChecker[clusterPin], input int, got clusterPin, fm float64) error {
	if err := ck.check(input, got); err != nil {
		return err
	}
	if fm < fMeasureFloor {
		return fmt.Errorf("input %d: F-measure %.3f below the floor %.2f", input, fm, fMeasureFloor)
	}
	return nil
}

func clusterOptions() xmlclust.ClusterOptions {
	return xmlclust.ClusterOptions{
		K: clusterK, F: clusterF, Gamma: clusterG, Peers: 1, Workers: 1,
		Seed: clusterSeed, MaxRounds: maxRounds,
	}
}

// dblpInputsFor generates the run's DBLP corpora as raw XML.
func dblpInputsFor(seed int64, n int) ([][]rawDoc, error) {
	out := make([][]rawDoc, n)
	for j := range out {
		docs, err := generate(dataset.DBLP, derivedSeed(seed, j), dblpDocs)
		if err != nil {
			return nil, err
		}
		out[j] = docs
	}
	return out, nil
}

// ingest is the program's set-up for a clustering job: raw XML through the
// streaming pipeline, with one ingest worker, into a corpus.
func ingest(docs []rawDoc) (*xmlclust.Corpus, error) {
	c, _, err := xmlclust.BuildCorpusFromSource(newMemSource(docs), xmlclust.CorpusOptions{IngestWorkers: 1})
	return c, err
}

func runDBLPCentral(r *run) error {
	if r.traced {
		return traceDBLPCentral(r)
	}
	inputs, err := dblpInputsFor(r.seed, dblpInputs)
	if err != nil {
		return err
	}
	ck, err := newOutputChecker[clusterPin](r)
	if err != nil {
		return err
	}
	var fms []float64
	s := newRepeated(len(inputs))
	r.cycle(len(inputs), func(j int) {
		docs := inputs[j]
		t0 := time.Now()
		c, err := ingest(docs)
		var eng *xmlclust.Engine
		if err == nil {
			eng, err = xmlclust.NewEngine(c, xmlclust.EngineOptions{})
		}
		if !r.op(fmt.Sprintf("set-up input %d", j), err) {
			return
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
		var res *xmlclust.Result
		wall, cpu := timed(func() {
			ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
			defer cancel()
			res, err = eng.Cluster(ctx, clusterOptions())
		})
		if !r.op(fmt.Sprintf("cluster input %d", j), err) {
			return
		}
		s.add(j, wall, cpu)
		fm := xmlclust.Evaluate(xmlclust.Labels(c), res.Assign, clusterK).FMeasure
		fms = append(fms, fm)
		r.op(fmt.Sprintf("check input %d", j), checkCluster(ck, j, clusterPin{assignDigest(res.Assign), repsDigest(c, res.Reps)}, fm))
	})
	s.report(r)
	r.set("f_measure", mean(fms))
	return nil
}

// freeAddr reserves a free loopback port and releases it for the caller to
// listen on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// twoPeerJob is one distributed clustering job: two peers, each with its own
// corpus and Engine, talking over loopback TCP through byte-counting relays.
type twoPeerJob struct {
	corpora [2]*xmlclust.Corpus
	engines [2]*xmlclust.Engine
	relays  [2]*relay
	listen  [2]string
	results [2]*xmlclust.DistributedResult
	errs    [2]error
}

// setupTwoPeer ingests each peer's corpus and builds its Engine, as two
// peer processes would on start.
func setupTwoPeer(docs []rawDoc) (*twoPeerJob, error) {
	j := &twoPeerJob{}
	for p := range j.corpora {
		c, err := ingest(docs)
		if err != nil {
			return nil, err
		}
		eng, err := xmlclust.NewEngine(c, xmlclust.EngineOptions{})
		if err != nil {
			return nil, err
		}
		j.corpora[p], j.engines[p] = c, eng
	}
	return j, nil
}

// openRelays starts one relay per peer in front of its real listen address.
func (j *twoPeerJob) openRelays() error {
	for p := range j.relays {
		addr, err := freeAddr()
		if err != nil {
			j.closeRelays()
			return err
		}
		rl, err := newRelay(addr, 30*time.Second)
		if err != nil {
			j.closeRelays()
			return err
		}
		j.listen[p], j.relays[p] = addr, rl
	}
	return nil
}

// closeRelays stops the relays and returns the bytes and connections they
// forwarded.
func (j *twoPeerJob) closeRelays() (bytes, conns int64) {
	for _, rl := range j.relays {
		if rl != nil {
			rl.Close()
			bytes += rl.Bytes()
			conns += rl.Conns()
		}
	}
	return bytes, conns
}

// run executes both peers concurrently and waits for both. events, when
// non-nil, receives each peer's progress events.
func (j *twoPeerJob) run(events func(xmlclust.Event)) error {
	addrs := []string{j.relays[0].Addr(), j.relays[1].Addr()}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for p := range j.engines {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			j.results[p], j.errs[p] = j.engines[p].ClusterDistributed(ctx, xmlclust.DistributedOptions{
				K: clusterK, F: clusterF, Gamma: clusterG, ID: p,
				PeerAddrs: addrs, Listen: j.listen[p], Workers: 1,
				Seed: clusterSeed, MaxRounds: maxRounds, Events: events,
			})
			if j.errs[p] != nil {
				cancel() // the other peer would otherwise wait for its deadline
			}
		}(p)
	}
	wg.Wait()
	var msgs []string
	for p, err := range j.errs {
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("peer %d: %v", p, err))
		}
	}
	if len(msgs) > 0 {
		return fmt.Errorf("%s", strings.Join(msgs, "; "))
	}
	// At convergence every peer holds the same global representatives. A
	// job stopped by the round cap ends after each peer refined only the
	// globals it owns, so the peers' views may then differ.
	converged := j.results[0].Rounds < maxRounds
	if converged && j.results[0].RepsDigest != j.results[1].RepsDigest {
		return fmt.Errorf("converged peers disagree on the final representatives: %016x vs %016x",
			j.results[0].RepsDigest, j.results[1].RepsDigest)
	}
	return nil
}

// output returns the coordinator's pinned output and F-measure.
func (j *twoPeerJob) output() (clusterPin, float64) {
	res := j.results[0]
	fm := xmlclust.Evaluate(xmlclust.Labels(j.corpora[0]), res.Assign, clusterK).FMeasure
	return clusterPin{assignDigest(res.Assign), fmt.Sprintf("%016x", res.RepsDigest)}, fm
}

func runDBLPTwoPeer(r *run) error {
	if r.traced {
		return traceDBLPTwoPeer(r)
	}
	inputs, err := dblpInputsFor(r.seed, dblpInputs)
	if err != nil {
		return err
	}
	ck, err := newOutputChecker[clusterPin](r)
	if err != nil {
		return err
	}
	var fms []float64
	s := newRepeated(len(inputs))
	r.cycle(len(inputs), func(i int) {
		t0 := time.Now()
		job, err := setupTwoPeer(inputs[i])
		if !r.op(fmt.Sprintf("set-up input %d", i), err) {
			return
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
		if !r.op("open relays", job.openRelays()) {
			return
		}
		wall, cpu := timed(func() { err = job.run(nil) })
		bytes, _ := job.closeRelays()
		if !r.op(fmt.Sprintf("distributed cluster input %d", i), err) {
			return
		}
		s.add(i, wall, cpu)
		got, fm := job.output()
		fms = append(fms, fm)
		r.op(fmt.Sprintf("check input %d", i), checkCluster(ck, i, got, fm))
		if i == 0 {
			r.set("wire_bytes", float64(bytes))
		}
	})
	s.report(r)
	r.set("f_measure", mean(fms))
	return nil
}
