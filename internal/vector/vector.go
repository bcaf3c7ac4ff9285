// Package vector provides immutable-by-convention sparse term vectors used
// to represent textual content units (TCUs). Components are kept sorted by
// term id, so dot products and merges run in linear time.
package vector

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Entry is a single (term id, weight) component of a sparse vector.
type Entry struct {
	Term   int32
	Weight float64
}

// Sparse is a sparse vector with entries sorted by ascending term id.
// The zero value is the empty vector, ready to use.
type Sparse struct {
	entries []Entry
	norm    float64 // cached Euclidean norm; 0 means "not computed or empty"
}

// FromMap builds a sparse vector from a term→weight map. Zero weights are
// dropped.
func FromMap(m map[int32]float64) Sparse {
	if len(m) == 0 {
		return Sparse{}
	}
	entries := make([]Entry, 0, len(m))
	for t, w := range m {
		if w != 0 {
			entries = append(entries, Entry{Term: t, Weight: w})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Term < entries[j].Term })
	v := Sparse{entries: entries}
	v.norm = v.computeNorm()
	return v
}

// FromEntries builds a sparse vector from entries that must already be
// sorted by term id with no duplicates; it panics otherwise. Use FromMap
// when the input is unordered.
func FromEntries(entries []Entry) Sparse {
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Term >= entries[i].Term {
			panic(fmt.Sprintf("vector: entries not strictly sorted at %d", i))
		}
	}
	v := Sparse{entries: entries}
	v.norm = v.computeNorm()
	return v
}

// Len returns the number of non-zero components.
func (v Sparse) Len() int { return len(v.entries) }

// IsZero reports whether the vector has no non-zero components.
func (v Sparse) IsZero() bool { return len(v.entries) == 0 }

// Entries exposes the underlying components. Callers must not mutate the
// returned slice.
func (v Sparse) Entries() []Entry { return v.entries }

// Weight returns the weight of term t (0 when absent).
func (v Sparse) Weight(t int32) float64 {
	i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Term >= t })
	if i < len(v.entries) && v.entries[i].Term == t {
		return v.entries[i].Weight
	}
	return 0
}

func (v Sparse) computeNorm() float64 {
	var s float64
	for _, e := range v.entries {
		s += e.Weight * e.Weight
	}
	return math.Sqrt(s)
}

// Norm returns the Euclidean norm.
func (v Sparse) Norm() float64 { return v.norm }

// skewRatio is the length ratio from which Dot stops merging and instead
// walks the shorter side, galloping through the longer one.
const skewRatio = 8

// Dot returns the inner product of two sparse vectors. Balanced operands
// take a linear merge walk; when one side is at least skewRatio times
// shorter (a short document item against a long conflated representative
// item, the common case inside Eq. 1), Dot walks the short side and
// gallops through the long one in O(short·log(long)). Either way the
// matching products a.Weight*b.Weight are summed in ascending term order,
// so the result is bit-identical whichever walk runs.
func Dot(a, b Sparse) float64 {
	ae, be := a.entries, b.entries
	switch {
	case len(ae)*skewRatio <= len(be):
		return dotGallop(ae, be, true)
	case len(be)*skewRatio <= len(ae):
		return dotGallop(be, ae, false)
	}
	var s float64
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		ta, tb := ae[i].Term, be[j].Term
		switch {
		case ta == tb:
			s += ae[i].Weight * be[j].Weight
			i++
			j++
		case ta < tb:
			i++
		default:
			j++
		}
	}
	return s
}

// dotGallop is Dot's skewed walk: for each short entry it finds the first
// long entry with a term ≥ it by exponential probing from the previous
// match position and a binary search inside the last probe step.
// shortIsA keeps the a.Weight*b.Weight operand order of the merge walk.
func dotGallop(short, long []Entry, shortIsA bool) float64 {
	var s float64
	j := 0
	for _, e := range short {
		// Invariant: long[:lo] has terms < e.Term; hi == len(long) or
		// long[hi].Term ≥ e.Term.
		lo, hi, step := j, j, 1
		for hi < len(long) && long[hi].Term < e.Term {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(long) {
			hi = len(long)
		}
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if long[m].Term < e.Term {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == len(long) {
			break
		}
		j = lo
		if long[j].Term == e.Term {
			if shortIsA {
				s += e.Weight * long[j].Weight
			} else {
				s += long[j].Weight * e.Weight
			}
			j++
		}
	}
	return s
}

// Cosine returns the cosine similarity of a and b in [0,1] for non-negative
// weights. The cosine of anything with the zero vector is 0.
func Cosine(a, b Sparse) float64 {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	c := Dot(a, b) / (a.norm * b.norm)
	// Clamp rounding noise so downstream threshold comparisons are exact.
	if c > 1 {
		c = 1
	} else if c < 0 {
		c = 0
	}
	return c
}

// Add returns the component-wise sum of a and b.
func Add(a, b Sparse) Sparse { return Sum(a, b) }

// Sum returns the left fold Add(…Add(Add(vs[0], vs[1]), vs[2])…, vs[n-1])
// bit for bit — same entries, same norm — merging through two reused
// buffers instead of allocating a vector per step, so summing n vectors
// leaves O(n) entries of garbage rather than O(n²).
func Sum(vs ...Sparse) Sparse {
	var acc Sparse
	var cur, next []Entry
	merged := false // acc.entries is cur and its norm is not yet computed
	for _, v := range vs {
		if acc.IsZero() { // Add's identities: 0+v is v itself, acc+0 is acc
			acc, merged = v, false
			continue
		}
		if v.IsZero() {
			continue
		}
		a, b := acc.entries, v.entries
		next = next[:0]
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			ta, tb := a[i].Term, b[j].Term
			switch {
			case ta == tb:
				if w := a[i].Weight + b[j].Weight; w != 0 {
					next = append(next, Entry{Term: ta, Weight: w})
				}
				i++
				j++
			case ta < tb:
				next = append(next, a[i])
				i++
			default:
				next = append(next, b[j])
				j++
			}
		}
		next = append(next, a[i:]...)
		next = append(next, b[j:]...)
		cur, next = next, cur
		acc, merged = Sparse{entries: cur}, true
	}
	if !merged {
		return acc
	}
	out := Sparse{entries: append(make([]Entry, 0, len(cur)), cur...)}
	out.norm = out.computeNorm()
	return out
}

// Scale returns v scaled by factor c.
func Scale(v Sparse, c float64) Sparse {
	if c == 0 || v.IsZero() {
		return Sparse{}
	}
	out := make([]Entry, len(v.entries))
	for i, e := range v.entries {
		out[i] = Entry{Term: e.Term, Weight: e.Weight * c}
	}
	sv := Sparse{entries: out}
	sv.norm = math.Abs(c) * v.norm
	return sv
}

// Equal reports exact component-wise equality.
func Equal(a, b Sparse) bool {
	if len(a.entries) != len(b.entries) {
		return false
	}
	for i := range a.entries {
		if a.entries[i] != b.entries[i] {
			return false
		}
	}
	return true
}

// String renders the vector for debugging.
func (v Sparse) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range v.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.3f", e.Term, e.Weight)
	}
	b.WriteByte(']')
	return b.String()
}
