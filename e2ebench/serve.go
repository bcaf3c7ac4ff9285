package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"xmlclust"
	"xmlclust/internal/dataset"
	"xmlclust/internal/serve"
)

const (
	// serveSeedDocs are added and clustered during set-up.
	serveSeedDocs = 1000
	// serveAddPool bounds the documents the loop may add; the drift refresh
	// fires after about 340 adds (a quarter of the live transactions dirty).
	serveAddPool = 500
	// serveHeldOut documents are only ever classified, round-robin.
	serveHeldOut = 400
	// serveClassifyPerAdd and serveMaintEvery shape the request mix.
	serveClassifyPerAdd = 9
	serveMaintEvery     = 50
	// serveInputs is how many independent episodes one untraced run drives
	// (each on its own corpus; input 0 is the run seed's).
	serveInputs = 2
)

// serveInput is one episode's documents.
type serveInput struct {
	seed, adds, heldOut []rawDoc
}

func serveInputFor(seed int64, j int) (serveInput, error) {
	docs, err := generate(dataset.DBLP, derivedSeed(seed, j), serveSeedDocs+serveAddPool+serveHeldOut)
	if err != nil {
		return serveInput{}, err
	}
	return serveInput{
		seed:    docs[:serveSeedDocs],
		adds:    docs[serveSeedDocs : serveSeedDocs+serveAddPool],
		heldOut: docs[serveSeedDocs+serveAddPool:],
	}, nil
}

// servePin is the pinned outcome of one episode.
type servePin struct {
	Adds   int    `json:"adds"`
	Assign string `json:"assign"`
}

// serveAPI is the request surface an episode drives: over HTTP or through
// the Service methods directly.
type serveAPI interface {
	add(d rawDoc) error
	classify(d rawDoc) error
	maintenance() (serve.RoundStats, error)
	refresh() error
	stats() (serve.Stats, error)
}

// directAPI calls the Service in-process.
type directAPI struct{ s *serve.Service }

func (a directAPI) add(d rawDoc) error {
	_, err := a.s.AddDocument(context.Background(), d.name, d.xml, d.label)
	return err
}

func (a directAPI) classify(d rawDoc) error {
	_, err := a.s.Classify(context.Background(), d.xml)
	return err
}

func (a directAPI) maintenance() (serve.RoundStats, error) {
	return a.s.MaintenanceRound(context.Background())
}

func (a directAPI) refresh() error              { return a.s.Refresh(context.Background()) }
func (a directAPI) stats() (serve.Stats, error) { return a.s.Stats(), nil }

// httpAPI is one closed-loop client on one keep-alive connection to the
// service's HTTP handler.
type httpAPI struct {
	base string
	c    *http.Client
}

// call sends one request and decodes a 2xx JSON response into out.
func (a httpAPI) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

type addBody struct {
	Name  string `json:"name"`
	XML   string `json:"xml"`
	Label int    `json:"label"`
}

func (a httpAPI) add(d rawDoc) error {
	return a.call("POST", "/v1/documents", addBody{d.name, string(d.xml), d.label}, nil)
}

func (a httpAPI) classify(d rawDoc) error {
	return a.call("POST", "/v1/classify", map[string]string{"xml": string(d.xml)}, nil)
}

func (a httpAPI) maintenance() (serve.RoundStats, error) {
	var rs serve.RoundStats
	err := a.call("POST", "/v1/maintenance", nil, &rs)
	return rs, err
}

func (a httpAPI) refresh() error { return a.call("POST", "/v1/refresh", nil, nil) }

func (a httpAPI) stats() (serve.Stats, error) {
	var st serve.Stats
	err := a.call("GET", "/v1/stats", nil, &st)
	return st, err
}

// httpServer serves a Service on a loopback listener.
type httpServer struct {
	srv  *http.Server
	done chan error
	api  httpAPI
}

func startHTTP(s *serve.Service) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpServer{srv: &http.Server{Handler: serve.NewHandler(s)}, done: make(chan error, 1)}
	go func() { h.done <- h.srv.Serve(ln) }()
	h.api = httpAPI{
		base: "http://" + ln.Addr().String(),
		c:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	return h, nil
}

// close stops the server and waits for its serve loop to end.
func (h *httpServer) close() {
	h.api.c.CloseIdleConnections()
	h.srv.Close()
	if err := <-h.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "e2ebench: serve loop:", err)
	}
}

// eventSwitch forwards service events to the current phase recorder, so
// each maintenance call gets its own.
type eventSwitch struct {
	mu  sync.Mutex
	rec *phaseRecorder
}

func (s *eventSwitch) observe(ev xmlclust.Event) {
	s.mu.Lock()
	rec := s.rec
	s.mu.Unlock()
	if rec != nil {
		rec.observe(ev)
	}
}

func (s *eventSwitch) set(rec *phaseRecorder) {
	s.mu.Lock()
	s.rec = rec
	s.mu.Unlock()
}

// serveEpisode is what one episode measured.
type serveEpisode struct {
	setup, wall, cpu time.Duration
	maint            time.Duration // all maintenance calls, the refresh included
	refreshCall      time.Duration // the maintenance call that refreshed
	refreshRounds    int
	adds, classifies []time.Duration
	final            serve.Stats
	pin              servePin
	rec              *phaseRecorder // phases of the drift refresh (traced only)
}

// runEpisode sets up a service seeded with in.seed and refreshed, then runs
// the timed loop {1 add, 9 classifies, maintenance every 50 adds} until
// exactly one drift refresh has fired. Every request is one operation.
func runEpisode(r *run, in serveInput, direct bool, parent int) (*serveEpisode, error) {
	ep := &serveEpisode{}
	var sw *eventSwitch
	cfg := serve.Config{K: clusterK, F: clusterF, Gamma: clusterG, Seed: clusterSeed, Workers: 1, MaxRounds: maxRounds}
	if r.traced && direct {
		sw = &eventSwitch{}
		cfg.Events = sw.observe
	}
	kind := "http"
	if direct {
		kind = "direct"
	}

	setupID, endSetup := r.tr.begin("setup."+kind, parent)
	t0 := time.Now()
	svc, err := serve.NewService(cfg)
	if err != nil {
		endSetup()
		return nil, err
	}
	var api serveAPI = directAPI{svc}
	if !direct {
		h, err := startHTTP(svc)
		if err != nil {
			endSetup()
			return nil, err
		}
		defer h.close()
		api = h.api
	}
	for _, d := range in.seed {
		if !r.op("seed add", api.add(d)) {
			endSetup()
			return nil, errors.New("seeding the service failed")
		}
	}
	s0 := time.Now()
	err = api.refresh()
	r.tr.add("serve.refresh", setupID, s0, time.Now())
	ep.setup = time.Since(t0)
	endSetup()
	if !r.op("initial refresh", err) {
		return nil, errors.New("initial refresh failed")
	}

	loopID, endLoop := r.tr.begin("serve.loop."+kind, parent)
	refreshed := false
	ep.wall, ep.cpu = timed(func() {
		k := 0
		for a, d := range in.adds {
			s := time.Now()
			err := api.add(d)
			e := time.Now()
			r.tr.add("serve.add", loopID, s, e)
			if r.op("add", err) {
				ep.adds = append(ep.adds, e.Sub(s))
			}
			for i := 0; i < serveClassifyPerAdd; i++ {
				d := in.heldOut[k%len(in.heldOut)]
				k++
				s := time.Now()
				err := api.classify(d)
				e := time.Now()
				r.tr.add("serve.classify", loopID, s, e)
				if r.op("classify", err) {
					ep.classifies = append(ep.classifies, e.Sub(s))
				}
			}
			if (a+1)%serveMaintEvery != 0 {
				continue
			}
			var rec *phaseRecorder
			s = time.Now()
			if sw != nil {
				rec = newPhaseRecorder(s)
				sw.set(rec)
			}
			rs, err := api.maintenance()
			e = time.Now()
			r.tr.add("serve.maintenance", loopID, s, e)
			ep.maint += e.Sub(s)
			if !r.op("maintenance", err) {
				continue
			}
			if rs.Refreshed {
				refreshed = true
				ep.refreshCall, ep.refreshRounds, ep.rec = e.Sub(s), rs.RefreshRounds, rec
				if rec != nil {
					rec.finish(e)
				}
				ep.pin.Adds = a + 1
				return
			}
		}
	})
	endLoop()

	st, err := api.stats()
	if !r.op("stats", err) {
		return ep, nil
	}
	ep.final = st
	ep.pin.Assign = assignDigest(svc.Assignment())
	var problems []string
	if !refreshed {
		problems = append(problems, fmt.Sprintf("no drift refresh after %d adds", len(in.adds)))
	}
	if want := len(in.seed) + ep.pin.Adds; st.Docs != want {
		problems = append(problems, fmt.Sprintf("stats show %d docs, want %d seeded + added", st.Docs, want))
	}
	if st.Refreshes != 2 {
		problems = append(problems, fmt.Sprintf("stats show %d refreshes, want the initial one and one drift refresh", st.Refreshes))
	}
	var err2 error
	if len(problems) > 0 {
		err2 = fmt.Errorf("%s episode: %v", kind, problems)
	}
	r.op("episode check", err2)
	return ep, nil
}

// latencies reports the client-observed add and classify percentiles with
// their sample counts. A tail percentile with fewer than minTailSamples
// samples beyond it is reported as 0 and noted.
func latencies(r *run, adds, classifies []time.Duration) {
	for _, m := range []struct {
		name string
		lat  []time.Duration
		p    float64
	}{
		{"classify_p50_ms", classifies, 50}, {"classify_p99_ms", classifies, 99},
		{"add_p50_ms", adds, 50}, {"add_p95_ms", adds, 95},
	} {
		if samplesBeyond(len(m.lat), m.p) < minTailSamples && m.p > 50 {
			r.note("%s: only %d of %d samples beyond it; not reported", m.name, samplesBeyond(len(m.lat), m.p), len(m.lat))
			r.set(m.name, 0)
			continue
		}
		r.set(m.name, percentile(ms(m.lat), m.p))
	}
	r.set("classify_samples", float64(len(classifies)))
	r.set("add_samples", float64(len(adds)))
}

func runServeMix(r *run) error {
	if r.traced {
		return traceServeMix(r)
	}
	inputs := make([]serveInput, serveInputs)
	for j := range inputs {
		in, err := serveInputFor(r.seed, j)
		if err != nil {
			return err
		}
		inputs[j] = in
	}
	ck, err := newOutputChecker[servePin](r)
	if err != nil {
		return err
	}
	s := newRepeated(len(inputs))
	var adds, classifies []time.Duration
	var maint []float64
	r.cycle(len(inputs), func(j int) {
		ep, err := runEpisode(r, inputs[j], false, r.root)
		if !r.op(fmt.Sprintf("episode %d", j), err) {
			return
		}
		s.setup = append(s.setup, ep.setup.Seconds())
		s.add(j, ep.wall, ep.cpu)
		adds = append(adds, ep.adds...)
		classifies = append(classifies, ep.classifies...)
		maint = append(maint, ep.maint.Seconds())
		r.op(fmt.Sprintf("episode %d output", j), ck.check(j, ep.pin))
	})
	s.report(r)
	latencies(r, adds, classifies)
	r.set("refresh_s", mean(maint))
	return nil
}

// traceServeMix is the traced run on the seed's own input: the set-up
// ingest measured by the ingest layers, one HTTP episode (the client-side
// latencies), and the same sequence through the Service methods directly,
// whose drift refresh is traced through the event stream.
func traceServeMix(r *run) error {
	in, err := serveInputFor(r.seed, 0)
	if err != nil {
		return err
	}
	ck, err := newOutputChecker[servePin](r)
	if err != nil {
		return err
	}

	httpEp, err := runEpisode(r, in, false, r.root)
	if !r.op("http episode", err) {
		return nil
	}
	r.op("http episode output", ck.check(0, httpEp.pin))
	latencies(r, httpEp.adds, httpEp.classifies)
	r.set("refresh_s", httpEp.maint.Seconds())

	var direct *serveEpisode
	gc, alloc, mallocs := memDelta(func() { direct, err = runEpisode(r, in, true, r.root) })
	if !r.op("direct episode", err) {
		return nil
	}
	goStats(r, gc, alloc, mallocs)
	r.op("direct episode output", ck.check(0, direct.pin))
	addDirect := percentile(ms(direct.adds), 50)
	classifyDirect := percentile(ms(direct.classifies), 50)
	r.set("serve.add_ms", addDirect)
	r.set("serve.classify_ms", classifyDirect)
	r.set("http.overhead_ms", r.values["classify_p50_ms"]-classifyDirect)
	st := direct.final
	r.set("serve.refreshes", float64(st.Refreshes))
	r.set("serve.refresh_rounds", float64(direct.refreshRounds))
	r.set("serve.maintenance_rounds", float64(st.MaintenanceRounds))
	r.set("serve.index_skip_ratio", ratio(float64(st.IndexSkipped), float64(st.IndexCandidates+st.IndexSkipped)))
	r.set("trace.overhead_ratio", ratio(direct.refreshCall.Seconds(), httpEp.refreshCall.Seconds()))
	if direct.rec != nil {
		id := r.tr.add("serve.drift_refresh", r.root, direct.rec.origin, direct.rec.origin.Add(direct.refreshCall))
		reportPhases(r, direct.rec, id, direct.refreshCall, 1)
	}

	setupID, endSetup := r.tr.begin("setup", r.root)
	c, err := tracedIngest(r, setupID, newMemSource(in.seed), xmlclust.CorpusOptions{IngestWorkers: 1})
	endSetup()
	if err != nil {
		return err
	}
	ref, err := saveBytes(c)
	if err != nil {
		return err
	}
	r.op("stage-by-stage ingest replay", replayIngest(r, r.root, in.seed, ref))
	return nil
}
