package txn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"strings"
	"testing"

	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// weightedPaperWire returns the wire envelope of the paper corpus with a
// few weighted items, so vector blocks are present in the stream.
func weightedPaperWire(tb testing.TB) wireCorpus {
	tb.Helper()
	tree, err := xmltree.ParseString(paperDoc, xmltree.DefaultParseOptions())
	if err != nil {
		tb.Fatal(err)
	}
	c := Build([]*xmltree.Tree{tree}, BuildOptions{})
	c.Items.SetVector(0, vector.FromMap(map[int32]float64{1: 0.5, 3: 1.5}))
	c.Items.SetVector(2, vector.FromMap(map[int32]float64{0: 2}))
	for _, w := range []string{"zaki", "mine", "tree", "xml"} {
		c.Terms.Intern(w)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	var wc wireCorpus
	if err := gob.NewDecoder(&buf).Decode(&wc); err != nil {
		tb.Fatal(err)
	}
	return wc
}

// legacyWire re-expresses a format-2 envelope in the format-1 layout.
func legacyWire(wc wireCorpus) wireCorpus {
	legacy := wc
	legacy.Format = 1
	legacy.TxnItems, legacy.TxnOffsets = nil, nil
	legacy.TxnDocs, legacy.TxnTuples, legacy.TxnLabels = nil, nil, nil
	for i := 0; i+1 < len(wc.TxnOffsets); i++ {
		lo, hi := wc.TxnOffsets[i], wc.TxnOffsets[i+1]
		legacy.Transactions = append(legacy.Transactions, wireTransaction{
			Items:      wc.TxnItems[lo:hi],
			Doc:        int(wc.TxnDocs[i]),
			TupleIndex: int(wc.TxnTuples[i]),
			Label:      int(wc.TxnLabels[i]),
		})
	}
	return legacy
}

// unsortedVectorWire makes item 0's vector entries descending — the stream
// that used to panic inside vector.FromEntries.
func unsortedVectorWire(wc wireCorpus) wireCorpus {
	wc.Items = append([]wireItem(nil), wc.Items...)
	wc.Items[0].Vector = []vector.Entry{{Term: 3, Weight: 1.5}, {Term: 1, Weight: 0.5}}
	return wc
}

// offsetPastArenaWire gives a one-position arena an offset table whose
// inner entry lies past it — the stream that used to panic slicing a span.
func offsetPastArenaWire(wc wireCorpus) wireCorpus {
	wc.TxnItems = []ItemID{0}
	wc.TxnOffsets = []int32{0, 100, 1}
	wc.TxnDocs = []int32{0, 0}
	wc.TxnTuples = []int32{0, 1}
	wc.TxnLabels = []int32{0, 0}
	return wc
}

// TestLoadRejectsMalformedStreams: item vectors out of term order or with
// non-finite weights, and offset tables reaching past the arena, fail with
// ErrCorruptCorpus instead of panicking.
func TestLoadRejectsMalformedStreams(t *testing.T) {
	base := weightedPaperWire(t)
	withWeight := func(w float64) wireCorpus {
		wc := base
		wc.Items = append([]wireItem(nil), base.Items...)
		wc.Items[0].Vector = []vector.Entry{{Term: 1, Weight: w}}
		return wc
	}
	duplicate := base
	duplicate.Items = append([]wireItem(nil), base.Items...)
	duplicate.Items[0].Vector = []vector.Entry{{Term: 1, Weight: 1}, {Term: 1, Weight: 2}}
	legacyUnsorted := legacyWire(base)
	legacyUnsorted.Transactions = append([]wireTransaction(nil), legacyUnsorted.Transactions...)
	legacyUnsorted.Transactions[0].Items = []ItemID{2, 1}

	cases := []struct {
		name    string
		wc      wireCorpus
		mention string
	}{
		{"vector-descending", unsortedVectorWire(base), "not strictly ascending"},
		{"vector-duplicate-term", duplicate, "not strictly ascending"},
		{"vector-nan", withWeight(math.NaN()), "non-finite"},
		{"vector-inf", withWeight(math.Inf(1)), "non-finite"},
		{"vector-neg-inf", withWeight(math.Inf(-1)), "non-finite"},
		{"offset-past-arena", offsetPastArenaWire(base), "past the"},
		{"legacy-span-not-ascending", legacyUnsorted, "ascending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(reencode(t, tc.wc))
			if err == nil {
				t.Fatal("malformed stream loaded cleanly")
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

// FuzzLoad: Load never panics. It either rejects the stream — as corrupt
// (ErrCorruptCorpus) or as an unsupported format — or returns a corpus
// whose Save → Load → Save round trip is byte-identical.
func FuzzLoad(f *testing.F) {
	base := weightedPaperWire(f)
	for _, wc := range []wireCorpus{
		base,
		legacyWire(base),
		unsortedVectorWire(base),
		offsetPastArenaWire(base),
	} {
		f.Add(reencode(f, wc).Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptCorpus) && !strings.Contains(err.Error(), "unsupported corpus format") {
				t.Fatalf("Load error is neither corruption nor version skew: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := c.Save(&first); err != nil {
			t.Fatalf("save loaded corpus: %v", err)
		}
		back, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload of a saved corpus failed: %v", err)
		}
		var second bytes.Buffer
		if err := back.Save(&second); err != nil {
			t.Fatalf("save reloaded corpus: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → Load → Save not byte-identical: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}
