package txn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// savedPaperStream builds the paper corpus and returns its format-2 gob
// stream plus the decoded wire envelope, for tests that mutate one block
// and re-encode.
func savedPaperStream(t *testing.T) ([]byte, wireCorpus) {
	t.Helper()
	c := buildPaperCorpus(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var wc wireCorpus
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&wc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), wc
}

func reencode(tb testing.TB, wc wireCorpus) *bytes.Buffer {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wc); err != nil {
		tb.Fatal(err)
	}
	return &buf
}

// TestLoadTruncatedColumnarStream: cutting the format-2 stream at any
// point must yield a readable error wrapping ErrCorruptCorpus — never a
// panic, never a silently short corpus.
func TestLoadTruncatedColumnarStream(t *testing.T) {
	stream, _ := savedPaperStream(t)
	cuts := []struct {
		name string
		n    int
	}{
		{"empty", 0},
		{"header-only", 8},
		{"quarter", len(stream) / 4},
		{"half", len(stream) / 2},
		{"three-quarters", 3 * len(stream) / 4},
		{"one-byte-short", len(stream) - 1},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Load(bytes.NewReader(stream[:tc.n]))
			if err == nil {
				t.Fatalf("truncation at %d/%d bytes loaded a corpus with %d transactions",
					tc.n, len(stream), len(c.Transactions))
			}
			if !errors.Is(err, ErrCorruptCorpus) {
				t.Fatalf("truncation error does not wrap ErrCorruptCorpus: %v", err)
			}
		})
	}
}

// TestLoadCorruptColumnarBlocks: each structurally-damaged columnar block
// must be rejected with ErrCorruptCorpus and a message naming the damage.
func TestLoadCorruptColumnarBlocks(t *testing.T) {
	_, base := savedPaperStream(t)
	if len(base.TxnOffsets) < 3 || len(base.TxnItems) < 3 {
		t.Fatalf("paper corpus too small to corrupt meaningfully: %d offsets, %d items",
			len(base.TxnOffsets), len(base.TxnItems))
	}
	// Locate a span with at least two positions for the ordering cases.
	wide := -1
	for i := 0; i+1 < len(base.TxnOffsets); i++ {
		if base.TxnOffsets[i+1]-base.TxnOffsets[i] >= 2 {
			wide = i
			break
		}
	}
	if wide < 0 {
		t.Fatal("no transaction with ≥2 items in the paper corpus")
	}
	cases := []struct {
		name    string
		mutate  func(wc *wireCorpus)
		mention string
	}{
		{
			name:    "offsets-start-nonzero",
			mutate:  func(wc *wireCorpus) { wc.TxnOffsets[0] = 1 },
			mention: "starts at",
		},
		{
			name:    "offsets-end-short",
			mutate:  func(wc *wireCorpus) { wc.TxnOffsets[len(wc.TxnOffsets)-1]-- },
			mention: "ends at",
		},
		{
			name: "offsets-decreasing",
			mutate: func(wc *wireCorpus) {
				wc.TxnOffsets[wide+1] = base.TxnOffsets[wide] - 1
				// Keep the final offset consistent so only the negative span fires.
				if wide+1 == len(wc.TxnOffsets)-1 {
					wc.TxnItems = wc.TxnItems[:wc.TxnOffsets[wide+1]]
				}
			},
			mention: "negative length",
		},
		{
			name: "item-id-out-of-range",
			mutate: func(wc *wireCorpus) {
				wc.TxnItems[0] = ItemID(len(wc.Items) + 7)
			},
			mention: "unknown item",
		},
		{
			name: "item-id-negative",
			mutate: func(wc *wireCorpus) {
				wc.TxnItems[0] = -2
			},
			mention: "unknown item",
		},
		{
			name: "span-not-ascending",
			mutate: func(wc *wireCorpus) {
				lo := base.TxnOffsets[wide]
				wc.TxnItems[lo], wc.TxnItems[lo+1] = wc.TxnItems[lo+1], wc.TxnItems[lo]
			},
			mention: "ascending",
		},
		{
			name: "span-duplicate-id",
			mutate: func(wc *wireCorpus) {
				lo := base.TxnOffsets[wide]
				wc.TxnItems[lo+1] = wc.TxnItems[lo]
			},
			mention: "ascending",
		},
		{
			name: "docs-column-short",
			mutate: func(wc *wireCorpus) {
				wc.TxnDocs = wc.TxnDocs[:len(wc.TxnDocs)-1]
			},
			mention: "columns disagree",
		},
		{
			name: "labels-column-long",
			mutate: func(wc *wireCorpus) {
				wc.TxnLabels = append(wc.TxnLabels, 0)
			},
			mention: "columns disagree",
		},
		{
			name: "items-without-offsets",
			mutate: func(wc *wireCorpus) {
				wc.TxnOffsets = nil
				wc.TxnDocs, wc.TxnTuples, wc.TxnLabels = nil, nil, nil
			},
			mention: "no offset table",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wc := base
			wc.TxnItems = append([]ItemID(nil), base.TxnItems...)
			wc.TxnOffsets = append([]int32(nil), base.TxnOffsets...)
			wc.TxnDocs = append([]int32(nil), base.TxnDocs...)
			wc.TxnTuples = append([]int32(nil), base.TxnTuples...)
			wc.TxnLabels = append([]int32(nil), base.TxnLabels...)
			tc.mutate(&wc)
			_, err := Load(reencode(t, wc))
			if err == nil {
				t.Fatal("corrupted block loaded cleanly")
			}
			if !errors.Is(err, ErrCorruptCorpus) {
				t.Fatalf("error does not wrap ErrCorruptCorpus: %v", err)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("error %q does not mention %q", err, tc.mention)
			}
		})
	}
}

// TestLoadFormatVersionSkewIsNotCorruption pins the error taxonomy: an
// unknown format number is version skew, reported without the corruption
// sentinel so callers can tell "upgrade your reader" from "your file is
// damaged".
func TestLoadFormatVersionSkewIsNotCorruption(t *testing.T) {
	_, wc := savedPaperStream(t)
	wc.Format = persistFormat + 41
	_, err := Load(reencode(t, wc))
	if err == nil {
		t.Fatal("future format loaded")
	}
	if errors.Is(err, ErrCorruptCorpus) {
		t.Fatalf("version skew misreported as corruption: %v", err)
	}
}

// TestLoadLegacyFormat1Stream: a stream written by the previous release
// (format 1, one record per transaction) still loads, reproduces the same
// transaction set, and gains a columnar view on load.
func TestLoadLegacyFormat1Stream(t *testing.T) {
	c := buildPaperCorpus(t)
	_, wc := savedPaperStream(t)
	back, err := Load(reencode(t, legacyWire(wc)))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Transactions) != len(c.Transactions) {
		t.Fatalf("legacy load has %d transactions, want %d", len(back.Transactions), len(c.Transactions))
	}
	for i, tr := range c.Transactions {
		if !tr.Equal(back.Transactions[i]) {
			t.Fatalf("legacy transaction %d differs", i)
		}
	}
	assertColumnarMirrors(t, back)
}

// TestColumnarEncodingSmaller pins the size win of the columnar format on
// a DBLP-shaped sample (many small bibliographic records): re-encoding the
// same corpus with the legacy one-record-per-transaction layout must be
// strictly larger than the format-2 stream Save writes, since gob charges
// each wireTransaction a type tag, field numbers and a length prefix that
// the flat arena pays once. The observed delta is logged for the README's
// perf table.
func TestColumnarEncodingSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	b := NewBuilder(BuildOptions{})
	addRandomDocs(t, b, rng, 160)
	c := b.Finish()

	var v2 bytes.Buffer
	if err := c.Save(&v2); err != nil {
		t.Fatal(err)
	}
	var wc wireCorpus
	if err := gob.NewDecoder(bytes.NewReader(v2.Bytes())).Decode(&wc); err != nil {
		t.Fatal(err)
	}
	legacy := wc
	legacy.Format = 1
	for i := 0; i+1 < len(wc.TxnOffsets); i++ {
		lo, hi := wc.TxnOffsets[i], wc.TxnOffsets[i+1]
		legacy.Transactions = append(legacy.Transactions, wireTransaction{
			Items:      wc.TxnItems[lo:hi],
			Doc:        int(wc.TxnDocs[i]),
			TupleIndex: int(wc.TxnTuples[i]),
			Label:      int(wc.TxnLabels[i]),
		})
	}
	legacy.TxnItems, legacy.TxnOffsets = nil, nil
	legacy.TxnDocs, legacy.TxnTuples, legacy.TxnLabels = nil, nil, nil
	v1 := reencode(t, legacy)

	if v2.Len() >= v1.Len() {
		t.Fatalf("columnar stream (%d bytes) not smaller than legacy (%d bytes)", v2.Len(), v1.Len())
	}
	t.Logf("%d transactions: format 1 %d bytes, format 2 %d bytes (%.1f%% smaller)",
		len(c.Transactions), v1.Len(), v2.Len(), 100*(1-float64(v2.Len())/float64(v1.Len())))
}

// TestLoadedCorpusHasColumnarView: a format-2 round trip restores the
// contiguous-scan view directly from the wire blocks, satisfying the same
// position-by-position invariants as a builder-built corpus.
func TestLoadedCorpusHasColumnarView(t *testing.T) {
	c := buildPaperCorpus(t)
	back := roundtrip(t, c)
	assertColumnarMirrors(t, back)
	// The flat wire arena backs both the view and every transaction: the
	// span recorded on each transaction must address its own items.
	for _, tr := range back.Transactions {
		cols, start := tr.ColumnarSpan()
		if cols == nil {
			t.Fatal("restored transaction has no span")
		}
		tps := cols.TagPathSpan(start, tr.Len())
		for j, id := range tr.Items {
			if tps[j] != back.Items.Get(id).TagPath {
				t.Fatalf("restored span tag path mismatch at %d", j)
			}
		}
	}
}
