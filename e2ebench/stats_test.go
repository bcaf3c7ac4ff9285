package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 99, 10}, // p99 of 1000 samples has exactly ten beyond it
		{999, 99, 9},
		{700, 95, 35},
		{700, 99, 7},
		{200, 95, 10},
		{10, 50, 5},
		{0, 99, 0},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestMedianMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if got := ms([]time.Duration{1500 * time.Microsecond}); got[0] != 1.5 {
		t.Errorf("ms = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio by zero = %v", got)
	}
}
