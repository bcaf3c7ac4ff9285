package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own calls. Start and End are offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Name   string        `json:"name"`
	Run    string        `json:"run"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the spans of one run in memory until write. A nil tracer
// records nothing, so untraced runs pay no tracing cost.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Run: t.run,
		Start: start.Sub(t.t0), End: end.Sub(t.t0),
	})
	return id
}

// begin opens a span now; the returned func closes it. The id is valid
// immediately, so children can name it as parent before it ends.
func (t *tracer) begin(name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id := t.add(name, parent, start, start)
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = end.Sub(t.t0)
		t.mu.Unlock()
	}
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval covered by its direct children (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the kids' intervals clipped to
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}
