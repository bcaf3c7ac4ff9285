package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end int) span {
	return span{ID: id, Parent: parent, Name: name, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(1, 0, "job", 0, 100),
		// Two peers' phases overlap: their union covers [10, 70).
		sp(2, 1, "core.relocate", 10, 50),
		sp(3, 1, "core.relocate", 20, 60),
		sp(4, 1, "core.refine", 60, 70),
		// A child running past its parent is clipped to the parent.
		sp(5, 1, "tail", 90, 130),
		sp(6, 2, "inner", 15, 25),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job":           100 - 60 - 10, // children cover [10,70) and [90,100)
		"core.relocate": (40 - 10) + 40,
		"core.refine":   10,
		"tail":          40,
		"inner":         10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerSpansAndFile(t *testing.T) {
	tr := newTracer("run-1")
	root, end := tr.begin("run", 0)
	start := time.Now()
	child := tr.add("child", root, start, start.Add(time.Millisecond))
	end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].ID != child || spans[1].Parent != root || spans[0].Run != "run-1" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[0].Start {
		t.Errorf("closed span ends before it starts: %+v", spans[0])
	}
	path := filepath.Join(t.TempDir(), "traces", "run-1.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 2 || back[1].Name != "child" {
		t.Fatalf("span file round trip: %v %+v", err, back)
	}

	var nilTracer *tracer
	if id, end := nilTracer.begin("x", 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	} else {
		end()
	}
	if nilTracer.snapshot() != nil {
		t.Errorf("nil tracer recorded spans")
	}
}
