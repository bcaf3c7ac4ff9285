package vector

import (
	"math"
	"math/rand"
	"testing"
)

// mergeDot is the reference inner product: the plain linear merge walk,
// summing matches in ascending term order as a.Weight*b.Weight.
func mergeDot(a, b Sparse) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		ta, tb := a.entries[i].Term, b.entries[j].Term
		switch {
		case ta == tb:
			s += a.entries[i].Weight * b.entries[j].Weight
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

// pairAdd is the reference pairwise sum: a fresh merge per call.
func pairAdd(a, b Sparse) Sparse {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	out := make([]Entry, 0, len(a.entries)+len(b.entries))
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		ta, tb := a.entries[i].Term, b.entries[j].Term
		switch {
		case ta == tb:
			if w := a.entries[i].Weight + b.entries[j].Weight; w != 0 {
				out = append(out, Entry{Term: ta, Weight: w})
			}
			i++
			j++
		case ta < tb:
			out = append(out, a.entries[i])
			i++
		default:
			out = append(out, b.entries[j])
			j++
		}
	}
	out = append(out, a.entries[i:]...)
	out = append(out, b.entries[j:]...)
	v := Sparse{entries: out}
	v.norm = v.computeNorm()
	return v
}

// sparseOf builds a vector of n distinct terms drawn from [0, universe).
func sparseOf(rng *rand.Rand, n, universe int) Sparse {
	if n > universe {
		n = universe
	}
	m := make(map[int32]float64, n)
	for len(m) < n {
		m[int32(rng.Intn(universe))] = rng.Float64()*4 - 1
	}
	return FromMap(m)
}

func checkDot(t *testing.T, a, b Sparse) {
	t.Helper()
	for _, p := range [][2]Sparse{{a, b}, {b, a}} {
		got, want := Dot(p[0], p[1]), mergeDot(p[0], p[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Dot(%d terms, %d terms) = %v (%#x), merge walk = %v (%#x)\na=%v\nb=%v",
				p[0].Len(), p[1].Len(), got, math.Float64bits(got), want, math.Float64bits(want), p[0], p[1])
		}
	}
}

// TestDotSkewMatchesMerge pins the skewed (galloping) walk bit for bit to
// the merge walk, on both sides of the skewRatio switch.
func TestDotSkewMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := sparseOf(rng, 40, 100)
	t.Run("edge", func(t *testing.T) {
		checkDot(t, Sparse{}, Sparse{})
		checkDot(t, Sparse{}, v)
		checkDot(t, v, v)
		checkDot(t, FromMap(map[int32]float64{1000: 2}), v) // beyond every term
		checkDot(t, FromMap(map[int32]float64{-1: 2}), v)   // before every term
		even, odd := map[int32]float64{}, map[int32]float64{}
		for i := int32(0); i < 200; i += 2 {
			even[i], odd[i+1] = float64(i), float64(i)
		}
		checkDot(t, FromMap(map[int32]float64{3: 1, 5: 1}), FromMap(even)) // disjoint, skewed
		checkDot(t, FromMap(even), FromMap(odd))                           // disjoint, balanced
	})
	t.Run("random", func(t *testing.T) {
		for i := 0; i < 5000; i++ {
			short := rng.Intn(12)
			// Long side on both sides of short*skewRatio, including the
			// exact switch point.
			long := short*skewRatio + rng.Intn(2*skewRatio+1) - skewRatio
			if long < 0 {
				long = 0
			}
			universe := 1 + rng.Intn(4*(long+short)+1)
			checkDot(t, sparseOf(rng, short, universe), sparseOf(rng, long, universe))
		}
	})
}

// FuzzDot checks the dispatching Dot against the merge walk on vectors
// decoded from arbitrary bytes: each byte pair becomes one term/weight of
// a (the first la pairs) or b.
func FuzzDot(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{5, 3, 1, 1, 2, 2, 5, 7, 9, 1, 12, 3, 40, 2, 41, 9, 90, 4, 120, 3})
	f.Add(uint8(3), []byte{1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 3, 3})
	f.Fuzz(func(t *testing.T, la uint8, data []byte) {
		ma, mb := map[int32]float64{}, map[int32]float64{}
		for i := 0; i+1 < len(data); i += 2 {
			term, w := int32(data[i]), float64(int8(data[i+1]))/7
			if i/2 < int(la) {
				ma[term] = w
			} else {
				mb[term] = w
			}
		}
		checkDot(t, FromMap(ma), FromMap(mb))
	})
}

// BenchmarkDot measures the two operand shapes of Eq. 1: the DBLP shape
// (3-term document item against an 84-term conflated representative item,
// the skewed walk) and a balanced 50×50 pair (the merge walk).
func BenchmarkDot(b *testing.B) {
	for _, bc := range []struct {
		name        string
		short, long int
	}{{"dblp-3x84", 3, 84}, {"balanced-50x50", 50, 50}} {
		rng := rand.New(rand.NewSource(4))
		x, y := sparseOf(rng, bc.short, 500), sparseOf(rng, bc.long, 500)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Dot(x, y)
			}
		})
	}
}

// TestSumMatchesAddFold pins Sum to the left fold of pairwise sums: same
// entries and the same norm bits, including empty operands and terms that
// cancel to zero mid-fold.
func TestSumMatchesAddFold(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		vs := make([]Sparse, rng.Intn(8))
		for k := range vs {
			if rng.Intn(4) == 0 {
				continue // empty operand
			}
			// Small integral weights of both signs make exact cancellation
			// common.
			m := map[int32]float64{}
			for n := rng.Intn(12); n > 0; n-- {
				m[int32(rng.Intn(16))] = float64(rng.Intn(5) - 2)
			}
			vs[k] = FromMap(m)
		}
		var want Sparse
		for _, v := range vs {
			want = pairAdd(want, v)
		}
		got := Sum(vs...)
		if !Equal(got, want) || math.Float64bits(got.Norm()) != math.Float64bits(want.Norm()) {
			t.Fatalf("Sum(%v) = %v (norm %v), fold = %v (norm %v)", vs, got, got.Norm(), want, want.Norm())
		}
	}
}
