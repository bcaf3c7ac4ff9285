// Command e2ebench is the repository's end-to-end, layer-by-layer
// benchmark. It generates its inputs from a seed, drives the system only
// through its public functions, checks every output, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// (--trace 0) report the end-to-end metrics; traced runs (--trace 1) record
// spans around the benchmark's calls into each layer and report the
// per-layer metrics.
//
// Build and run it from the root of a checkout with
//
//	bash e2ebench/run.sh --workload dblp-central --seed 424242 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every untraced run
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"ok_ops_ratio", "ratio"},
}

// perLayer are the metrics of single layers; every traced run reports all
// of them (0 where the workload does not exercise the layer).
var perLayer = []metricDef{
	// Workload headline numbers. cluster_s is the traced job's wall time (the
	// phases cover it); the others come from the traced run's untraced job.
	{"cluster_s", "s"},
	{"f_measure", "ratio"},
	{"wire_bytes", "B"},
	{"ingest_docs_per_s", "1/s"},
	{"classify_p50_ms", "ms"},
	{"classify_p99_ms", "ms"},
	{"classify_samples", "count"},
	{"add_p50_ms", "ms"},
	{"add_p95_ms", "ms"},
	{"add_samples", "count"},
	{"refresh_s", "s"},
	{"failed_ops_ratio", "ratio"},
	// Ingest: xmltree, tuple, txn, weighting, corpus.
	{"xmltree.parse_s", "s"},
	{"xmltree.parse_mb_per_s", "MB/s"},
	{"tuple.extract_s", "s"},
	{"tuple.tuples", "count"},
	{"txn.build_s", "s"},
	{"txn.transactions", "count"},
	{"txn.items", "count"},
	{"weighting.finalize_s", "s"},
	{"corpus.build_s", "s"},
	{"corpus.parallel_speedup", "ratio"},
	{"corpus.peak_queued_trees", "count"},
	{"corpus.allocs_per_doc", "count"},
	{"txn.save_s", "s"},
	{"txn.load_s", "s"},
	{"txn.gob_bytes", "B"},
	// Protocol phases (core), from the public event stream.
	{"core.rounds", "count"},
	{"core.startup_s", "s"},
	{"core.broadcast_globals_s", "s"},
	{"core.relocate_s", "s"},
	{"core.exchange_locals_s", "s"},
	{"core.refine_globals_s", "s"},
	{"core.startup_share", "ratio"},
	{"core.broadcast_globals_share", "ratio"},
	{"core.relocate_share", "ratio"},
	{"core.exchange_locals_share", "ratio"},
	{"core.refine_globals_share", "ratio"},
	{"core.phase_coverage", "ratio"},
	{"core.wait_share", "ratio"},
	{"core.peer_imbalance", "ratio"},
	{"core.modeled_bytes", "B"},
	// Similarity kernel and clustering (sim, cluster).
	{"sim.pruned_rows", "count"},
	{"sim.scratch_reuses", "count"},
	{"sim.index_candidates", "count"},
	{"sim.index_skipped", "count"},
	{"sim.index_skip_ratio", "ratio"},
	{"sim.path_cache_entries", "count"},
	{"cluster.reps_reused", "count"},
	{"cluster.docs_skipped", "count"},
	{"cluster.docs_skipped_per_relocation", "ratio"},
	{"cluster.relocate_pass_ms", "ms"},
	{"cluster.local_reps_ms", "ms"},
	{"cluster.probe_agreement", "ratio"},
	{"sim.item_sims_per_pass", "count"},
	{"sim.txn_sims_per_pass", "count"},
	// Peer wire (p2p).
	{"p2p.wire_bytes", "B"},
	{"p2p.bytes_per_round", "B"},
	{"p2p.connections", "count"},
	{"p2p.inprocess_tcp_s", "s"},
	{"p2p.inprocess_traffic_bytes", "B"},
	// Serving tier (serve, HTTP).
	{"serve.add_ms", "ms"},
	{"serve.classify_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"serve.refreshes", "count"},
	{"serve.refresh_rounds", "count"},
	{"serve.maintenance_rounds", "count"},
	{"serve.index_skip_ratio", "ratio"},
	// Go runtime, over the timed job.
	{"go.gc_cycles", "count"},
	{"go.alloc_mb", "MB"},
	{"go.mallocs", "count"},
	// Tracing itself.
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// Shared clustering settings of every workload.
const (
	clusterK    = 16
	clusterF    = 0.5
	clusterG    = 0.7
	clusterSeed = 1
	// maxRounds caps every clustering job. Rounds to convergence vary from
	// 14 to 29 across generator seeds (11 to 32 s per job on a 2-core
	// host), which would make the work of a run depend on the seed; a cap
	// fixes the number of rounds while keeping the delta rounds that follow
	// the first representative refinements.
	maxRounds = 8
	// fMeasureFloor is the least F-measure every clustering job must reach
	// (against the hybrid labels); observed values at the cap lie between
	// 0.6 and 0.85.
	fMeasureFloor = 0.45
)

// buildDir holds everything the benchmark writes, relative to the checkout.
const buildDir = ".bench_build"

//go:embed pins.json
var pinsJSON []byte

// pinFile is the layout of pins.json: the default and held-out seeds, and
// per workload and seed the outputs a correct program produces.
type pinFile struct {
	Seeds struct {
		Default int64 `json:"default"`
		HeldOut int64 `json:"held_out"`
	} `json:"seeds"`
	Workloads map[string]map[string]json.RawMessage `json:"workloads"`
}

func loadPins() (*pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}

// run carries one benchmark process: its arguments, the measured values
// and the operation accounting.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	id       string
	tr       *tracer // nil when untraced
	root     int     // root span id

	pins map[string]json.RawMessage // this workload's pins by seed

	attempted, failed int
	values            map[string]float64
	notes             []string
	pinned            []pinLine // first outputs per input, printed for pins.json
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// op accounts one operation (a job, a request or an output check) and
// reports failures loudly on standard error.
func (r *run) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// note records a fact printed with the results.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// outputChecker verifies the outputs of a workload's jobs: each input's
// output must equal that of the input's first repetition and, when the
// run's seed is pinned, the pinned output of the input.
type outputChecker[T comparable] struct {
	r     *run
	pins  []T
	first map[int]T
}

func newOutputChecker[T comparable](r *run) (*outputChecker[T], error) {
	ck := &outputChecker[T]{r: r, first: map[int]T{}}
	if raw, ok := r.pins[fmt.Sprint(r.seed)]; ok {
		if err := json.Unmarshal(raw, &ck.pins); err != nil {
			return nil, fmt.Errorf("pins for seed %d: %w", r.seed, err)
		}
	}
	return ck, nil
}

func (ck *outputChecker[T]) check(input int, got T) error {
	if prev, ok := ck.first[input]; ok {
		if prev != got {
			return fmt.Errorf("input %d: output %+v differs from the first repetition %+v", input, got, prev)
		}
	} else {
		ck.first[input] = got
		ck.r.pinned = append(ck.r.pinned, pinLine{Input: input, Output: got})
	}
	if input < len(ck.pins) && ck.pins[input] != got {
		return fmt.Errorf("input %d: output %+v differs from the pinned %+v", input, got, ck.pins[input])
	}
	return nil
}

// pinLine is one output as printed for pins.json.
type pinLine struct {
	Input  int `json:"input"`
	Output any `json:"output"`
}

// cycle calls fn for inputs 0..n-1 in turn and repeats the cycle while
// another one still fits in the measuring window. Every run completes at
// least one cycle, so each input is measured; a cycle with a failed
// operation ends the measuring.
func (r *run) cycle(n int, fn func(input int)) {
	start := time.Now()
	for {
		c0 := time.Now()
		failed := r.failed
		for i := 0; i < n; i++ {
			fn(i)
		}
		if r.failed > failed || time.Since(start)+time.Since(c0) > r.seconds {
			return
		}
	}
}

// repeated collects per-input samples over the repetitions of a run.
type repeated struct {
	wall, cpu [][]float64
	setup     []float64
}

func newRepeated(inputs int) *repeated {
	return &repeated{wall: make([][]float64, inputs), cpu: make([][]float64, inputs)}
}

func (s *repeated) add(input int, wall, cpu time.Duration) {
	s.wall[input] = append(s.wall[input], wall.Seconds())
	s.cpu[input] = append(s.cpu[input], cpu.Seconds())
}

// report sets setup_s (median over every set-up), job_s and cpu_s (mean
// over the inputs of each input's median).
func (s *repeated) report(r *run) {
	var wall, cpu []float64
	for i := range s.wall {
		if len(s.wall[i]) > 0 {
			wall = append(wall, median(s.wall[i]))
			cpu = append(cpu, median(s.cpu[i]))
		}
	}
	if len(s.setup) > 0 {
		r.set("setup_s", median(s.setup))
	}
	for i, w := range s.wall {
		r.note("input %d: job wall %v s, cpu %v s", i, w, s.cpu[i])
	}
	if len(wall) > 0 {
		r.set("job_s", mean(wall))
		r.set("cpu_s", mean(cpu))
	}
}

// timed runs fn after a GC and returns its wall and CPU time.
func timed(fn func()) (wall, cpu time.Duration) {
	runtime.GC()
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	return time.Since(t0), cpuTime() - c0
}

var workloads = map[string]func(*run) error{
	"dblp-central":   runDBLPCentral,
	"dblp-2peer-tcp": runDBLPTwoPeer,
	"ieee-ingest":    runIEEEIngest,
	"serve-mix":      runServeMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: dblp-central | dblp-2peer-tcp | ieee-ingest | serve-mix")
		seed     = flag.Int64("seed", 424242, "input seed (424242 is the ROADMAP baseline corpus)")
		seconds  = flag.Float64("seconds", 20, "measuring window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	all, err := loadPins()
	if err != nil {
		fatal(err)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		id:       fmt.Sprintf("%s-%d-%d", *workload, *seed, time.Now().UnixNano()),
		pins:     all.Workloads[*workload],
		values:   map[string]float64{},
	}
	if r.traced {
		r.tr = newTracer(r.id)
	}
	var end func()
	r.root, end = r.tr.begin("run", 0)
	err = fn(r)
	end()
	if err != nil {
		// A workload error before any job ran: inputs or set-up broke.
		r.op("workload "+r.workload, err)
	}
	r.set("max_rss_mb", maxRSSMB())
	r.set("ok_ops_ratio", ratio(float64(r.attempted-r.failed), float64(r.attempted)))
	r.set("failed_ops_ratio", ratio(float64(r.failed), float64(r.attempted)))
	if r.traced {
		spans := r.tr.snapshot()
		r.set("trace.spans", float64(len(spans)))
		self := selfTimes(spans)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r.note("self %-28s %12.6f s", n, self[n].Seconds())
		}
		path := filepath.Join(buildDir, "traces", r.id+".json")
		if err := r.tr.write(path); err != nil {
			r.op("write span file", err)
		} else {
			r.note("spans written to %s", path)
		}
	}
	if !report(r) {
		os.Exit(1)
	}
}

// report prints the environment, every measured metric and the result
// line; it returns whether the run was correct.
func report(r *run) bool {
	env := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"traced":     r.traced,
		"run_id":     r.id,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	line, _ := json.Marshal(env)
	fmt.Printf("env %s\n", line)
	for _, n := range r.notes {
		fmt.Printf("note %s\n", n)
	}
	for _, p := range r.pinned {
		line, _ := json.Marshal(p)
		fmt.Printf("pin %s %d %s\n", r.workload, r.seed, line)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %16.6f %s\n", n, r.values[n], units[n])
	}

	want := endToEnd
	if r.traced {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	correct := r.failed == 0 && r.attempted > 0
	for _, d := range want {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			fmt.Fprintf(os.Stderr, "e2ebench: FAILED end-to-end metric %s was not measured\n", d.name)
			correct = false
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, metrics})
	fmt.Println(string(out))
	return correct
}

// commit returns the VCS revision embedded at build time, or "unknown"
// when the benchmark was built outside a repository.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the peak resident set size of the process in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta measures the Go runtime's GC cycles, allocated bytes and mallocs
// over fn.
func memDelta(fn func()) (gc uint32, allocMB float64, mallocs uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.NumGC - a.NumGC, float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), b.Mallocs - a.Mallocs
}

var errTracedDiffers = errors.New("the traced job's output differs from the untraced one")

// errIf returns err when cond holds, else nil.
func errIf(cond bool, err error) error {
	if cond {
		return err
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}
