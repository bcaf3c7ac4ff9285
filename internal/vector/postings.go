package vector

import (
	"math"
	"slices"
)

// Postings inverts a row of sparse vectors b_0..b_{n-1} by term: the
// distinct terms in ascending order, and for each term the (position,
// weight) pairs of the vectors carrying it. It is the representative side
// of Eq. 1's content term: Cosines scores one vector a against the whole
// row in one pass over a's terms instead of one Dot per b_j, which pays
// when a is short and the b_j are long and mostly disjoint from it (a
// 3-term document item against 80-term conflated representative items).
//
// A Postings is immutable between Builds and safe for concurrent reads.
// Build reuses every slab, so rebuilding over a row no larger than before
// allocates nothing.
type Postings struct {
	terms []int32   // distinct terms, ascending
	off   []int32   // terms[k]'s postings are pos/w[off[k]:off[k+1]]
	pos   []int32   // vector position j of each posting
	w     []float64 // b_j's weight of the term
	norms []float64 // ‖b_j‖ per position
	empty []bool    // b_j has no entries (Cosine is 0 without a division)
	// minNorm is the smallest norm over the non-empty vectors (+Inf when
	// there are none): see Cosines for why it decides the division skip.
	minNorm float64
	// slots is an open-addressing table over terms (linear probing, load
	// ≤ 1/2): k+1 for the slot holding terms[k], 0 for empty. A lookup
	// costs one or two probes where a search through the sorted terms
	// costs a dozen unpredictable branches.
	slots []int32
	shift uint32 // Fibonacci hash: slot = (term·φ) >> shift

	// Build's k-way merge state: a min-heap of (current term, position)
	// keys and each position's entry cursor.
	heap []uint64
	cur  []int32
}

// Build inverts vs. Each vector is already sorted by term, so a k-way
// merge over the vectors emits the postings in (term, position) order in
// O(T log n) for T entries over n vectors, with no comparison sort.
func (p *Postings) Build(vs []Sparse) {
	n := len(vs)
	p.norms = resize(p.norms, n)
	p.empty = resize(p.empty, n)
	p.cur = resize(p.cur, n)
	p.heap = resize(p.heap, n)[:0]
	p.minNorm = math.Inf(1)
	total := 0
	for j, v := range vs {
		p.norms[j] = v.norm
		p.empty[j] = v.IsZero()
		p.cur[j] = 0
		if v.IsZero() {
			continue
		}
		total += len(v.entries)
		if v.norm < p.minNorm || v.norm != v.norm { // a NaN sticks
			p.minNorm = v.norm
		}
		p.heap = append(p.heap, mergeKey(v.entries[0].Term, j))
	}
	// At most total distinct terms: size terms and off once, not by append.
	p.terms = resize(p.terms, total)[:0]
	p.off = append(resize(p.off, total+1)[:0], 0)
	p.pos = resize(p.pos, total)
	p.w = resize(p.w, total)

	h := p.heap
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for k := 0; len(h) > 0; k++ {
		j := int32(uint32(h[0]))
		e := vs[j].entries[p.cur[j]]
		if k == 0 || p.terms[len(p.terms)-1] != e.Term {
			if k > 0 {
				p.off = append(p.off, int32(k))
			}
			p.terms = append(p.terms, e.Term)
		}
		p.pos[k], p.w[k] = j, e.Weight
		p.cur[j]++
		if c := p.cur[j]; int(c) < len(vs[j].entries) {
			h[0] = mergeKey(vs[j].entries[c].Term, int(j))
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	if total > 0 {
		p.off = append(p.off, int32(total))
	}

	bits := uint32(0)
	for 1<<bits < 2*len(p.terms) {
		bits++
	}
	p.shift = 32 - bits
	p.slots = resize(p.slots, 1<<bits)
	clear(p.slots)
	mask := len(p.slots) - 1
	for k, t := range p.terms {
		i := p.home(t)
		for p.slots[i] != 0 {
			i = (i + 1) & mask
		}
		p.slots[i] = int32(k + 1)
	}
}

func (p *Postings) home(t int32) int { return int(uint32(t) * 0x9e3779b9 >> p.shift) }

// find returns k with terms[k] == t, or -1.
func (p *Postings) find(t int32) int {
	mask := len(p.slots) - 1
	for i := p.home(t); ; i = (i + 1) & mask {
		k := p.slots[i]
		if k == 0 {
			return -1
		}
		if p.terms[k-1] == t {
			return int(k - 1)
		}
	}
}

// mergeKey packs (term, position) into one heap key whose unsigned order
// is term order (sign bit flipped), then position order.
func mergeKey(term int32, j int) uint64 {
	return uint64(uint32(term)^1<<31)<<32 | uint64(uint32(j))
}

func siftDown(h []uint64, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l] < h[m] {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// addDots adds a·b_j into dot[j] for every built vector b_j, walking
// a's terms once and looking each up in the term table. For a fixed j the
// products a.Weight*b_j.Weight are added in ascending term order, so
// starting from dot[j] == 0 the result is Dot(a, b_j) bit for bit.
func (p *Postings) addDots(a Sparse, dot []float64) {
	if len(p.terms) == 0 {
		return
	}
	for _, e := range a.entries {
		k := p.find(e.Term)
		if k < 0 {
			continue
		}
		for q := p.off[k]; q < p.off[k+1]; q++ {
			dot[p.pos[q]] += e.Weight * p.w[q]
		}
	}
}

// Cosines sets out[j] = Cosine(a, b_j) for every built vector b_j (out
// has one entry per vector), bit for bit. A pair with no shared term has
// dot +0 and skips the division (so does a dot that cancelled to 0):
// 0/(‖a‖·‖b_j‖) is +0 whenever the norm product is positive, which holds
// for every non-empty b_j once ‖a‖·minNorm > 0 (rounding is monotone).
// Degenerate norms (zero, NaN, or a product that underflows) take the
// division everywhere, as Cosine does.
func (p *Postings) Cosines(a Sparse, out []float64) {
	clear(out)
	if a.IsZero() {
		return
	}
	p.addDots(a, out)
	na := a.norm
	if na*p.minNorm > 0 {
		for j, d := range out {
			if d != 0 {
				out[j] = CosineOf(d, na, p.norms[j])
			}
		}
		return
	}
	for j, d := range out {
		if !p.empty[j] {
			out[j] = CosineOf(d, na, p.norms[j])
		}
	}
}

// resize returns b with length n, growing it the way append does, so a
// Postings rebuilt over ever larger rows (a growing candidate
// representative) reallocates O(log n) times, not once per Build.
func resize[T any](b []T, n int) []T { return slices.Grow(b[:0], n)[:n] }
