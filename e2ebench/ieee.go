package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xmlclust"
	"xmlclust/internal/dataset"
)

const (
	// ieeeDocs sizes the IEEE collection: about 7.8 MB of XML and 209k
	// transactions, the heaviest document shape of the generators.
	ieeeDocs = 3000
	// ieeeWorkers is the parse/extract worker count of the ingest job.
	ieeeWorkers = 2
)

// ieeePin is the pinned output of one ingest job.
type ieeePin struct {
	Transactions int `json:"transactions"`
	Items        int `json:"items"`
	GobBytes     int `json:"gob_bytes"`
}

// ieeeJob ingests the collection from its directory, then saves, loads and
// saves the corpus again; both saves must be byte-identical.
func ieeeJob(src xmlclust.Source, labels []int) (ieeePin, xmlclust.IngestStats, error) {
	c, st, err := xmlclust.BuildCorpusFromSource(src, xmlclust.CorpusOptions{IngestWorkers: ieeeWorkers, Labels: labels})
	if err != nil {
		return ieeePin{}, st, err
	}
	first, err := saveBytes(c)
	if err != nil {
		return ieeePin{}, st, fmt.Errorf("save: %w", err)
	}
	loaded, err := xmlclust.LoadCorpus(bytes.NewReader(first))
	if err != nil {
		return ieeePin{}, st, fmt.Errorf("load: %w", err)
	}
	second, err := saveBytes(loaded)
	if err != nil {
		return ieeePin{}, st, fmt.Errorf("second save: %w", err)
	}
	if !bytes.Equal(first, second) {
		return ieeePin{}, st, fmt.Errorf("save → load → save changed the gob (%d vs %d bytes)", len(first), len(second))
	}
	if st.Transactions != len(c.Transactions) || st.Items != c.Items.Len() {
		return ieeePin{}, st, fmt.Errorf("ingest stats (%d transactions, %d items) disagree with the corpus (%d, %d)",
			st.Transactions, st.Items, len(c.Transactions), c.Items.Len())
	}
	return ieeePin{Transactions: len(c.Transactions), Items: c.Items.Len(), GobBytes: len(first)}, st, nil
}

// ieeeInput generates the collection and writes it as one file per
// document, the layout cxkgen emits and DirSource walks.
func ieeeInput(r *run) ([]rawDoc, string, error) {
	docs, err := generate(dataset.IEEE, r.seed, ieeeDocs)
	if err != nil {
		return nil, "", err
	}
	dir := filepath.Join(buildDir, "inputs", r.id)
	if err := writeDocs(dir, docs); err != nil {
		return nil, "", err
	}
	return docs, dir, nil
}

// ieeeSetups is how many times each job opens its source. Opening walks
// the collection's directory, a few milliseconds, so one sample per job
// would make the set-up median noisy.
const ieeeSetups = 5

// ieeeSetup opens the collection's source ieeeSetups times, records each
// set-up time and returns the last source.
func ieeeSetup(dir string, s *repeated) (xmlclust.Source, error) {
	var src xmlclust.Source
	for i := 0; i < ieeeSetups; i++ {
		if src != nil {
			src.Close()
		}
		t0 := time.Now()
		var err error
		src, err = xmlclust.DirSource(dir)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
	}
	return src, nil
}

func runIEEEIngest(r *run) error {
	docs, dir, err := ieeeInput(r)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	labels := labelsOf(docs)
	ck, err := newOutputChecker[ieeePin](r)
	if err != nil {
		return err
	}
	if r.traced {
		return traceIEEEIngest(r, docs, dir, labels, ck)
	}

	s := newRepeated(1)
	var rates []float64
	r.cycle(1, func(int) {
		src, err := ieeeSetup(dir, s)
		if !r.op("set-up", err) {
			return
		}
		var got ieeePin
		var st xmlclust.IngestStats
		wall, cpu := timed(func() { got, st, err = ieeeJob(src, labels) })
		if !r.op("ingest job", err) {
			return
		}
		s.add(0, wall, cpu)
		rates = append(rates, st.DocsPerSec())
		r.op("check output", ck.check(0, got))
	})
	s.report(r)
	r.set("ingest_docs_per_s", median(rates))
	return nil
}

// traceIEEEIngest is the traced run: one ingest job as in untraced runs
// (the reference for the tracing overhead), the same ingest under the
// corpus.build span, and the stage-by-stage replay against its corpus.
func traceIEEEIngest(r *run, docs []rawDoc, dir string, labels []int, ck *outputChecker[ieeePin]) error {
	src, err := xmlclust.DirSource(dir)
	if err != nil {
		return err
	}
	var got ieeePin
	var st xmlclust.IngestStats
	_, endJob := r.tr.begin("ingest.job", r.root)
	gc, alloc, mallocs := memDelta(func() { got, st, err = ieeeJob(src, labels) })
	endJob()
	if !r.op("ingest job", err) {
		return nil
	}
	r.op("check output", ck.check(0, got))
	goStats(r, gc, alloc, mallocs)
	r.set("ingest_docs_per_s", st.DocsPerSec())

	setupID, endSetup := r.tr.begin("setup", r.root)
	src, err = xmlclust.DirSource(dir)
	if err != nil {
		endSetup()
		return err
	}
	t1 := time.Now()
	c, err := tracedIngest(r, setupID, src, xmlclust.CorpusOptions{IngestWorkers: ieeeWorkers, Labels: labels})
	traced := time.Since(t1)
	endSetup()
	if err != nil {
		return err
	}
	ref, err := saveBytes(c)
	if err != nil {
		return err
	}
	c = nil // only the gob is needed from here on; let the GC have the corpus
	r.op("stage-by-stage ingest replay", replayIngest(r, r.root, docs, ref))
	r.set("trace.overhead_ratio", ratio(traced.Seconds(), st.Duration.Seconds()))
	return nil
}
