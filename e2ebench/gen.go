package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xmlclust"
	"xmlclust/internal/dataset"
	"xmlclust/internal/xmltree"
)

// rawDoc is one generated document as the program sees it: raw XML bytes.
type rawDoc struct {
	name  string
	xml   []byte
	label int
}

// derivedSeed returns the corpus seed of input j of a run: the run's seed
// itself for j = 0, and well-mixed seeds (splitmix64) for the others, so
// neighbouring run seeds never share inputs.
func derivedSeed(seed int64, j int) int64 {
	if j == 0 {
		return seed
	}
	z := uint64(seed) + uint64(j)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// generate renders a generated collection to raw XML with its hybrid
// (structure × content) labels.
func generate(gen dataset.Generator, seed int64, docs int) ([]rawDoc, error) {
	col := gen(dataset.Spec{Docs: docs, Seed: seed})
	labels, _ := col.Labels(dataset.ByHybrid)
	out := make([]rawDoc, len(col.Trees))
	for i, t := range col.Trees {
		var b bytes.Buffer
		if err := xmltree.Render(&b, t); err != nil {
			return nil, fmt.Errorf("render %s doc %d: %w", col.Name, i, err)
		}
		out[i] = rawDoc{name: fmt.Sprintf("%s-%04d.xml", col.Name, i), xml: b.Bytes(), label: labels[i]}
	}
	return out, nil
}

// totalBytes sums the XML sizes.
func totalBytes(docs []rawDoc) int64 {
	var n int64
	for _, d := range docs {
		n += int64(len(d.xml))
	}
	return n
}

// labelsOf returns the documents' labels in order.
func labelsOf(docs []rawDoc) []int {
	out := make([]int, len(docs))
	for i, d := range docs {
		out[i] = d.label
	}
	return out
}

// memSource yields in-memory raw XML documents through the public Source
// interface, exactly like a file source minus the disk.
type memSource struct {
	docs []rawDoc
	i    int
}

func newMemSource(docs []rawDoc) *memSource { return &memSource{docs: docs} }

func (s *memSource) Next() (*xmlclust.Document, error) {
	if s.i >= len(s.docs) {
		return nil, io.EOF
	}
	d := s.docs[s.i]
	s.i++
	return &xmlclust.Document{
		Name:  d.name,
		Label: d.label,
		Open:  func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(d.xml)), nil },
	}, nil
}

func (s *memSource) Close() error { return nil }

// writeDocs stores the documents as files in dir (created fresh).
func writeDocs(dir string, docs []rawDoc) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range docs {
		if err := os.WriteFile(filepath.Join(dir, d.name), d.xml, 0o644); err != nil {
			return err
		}
	}
	return nil
}
