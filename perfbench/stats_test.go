package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90, 9.1},
		{[]float64{10, 20}, 0, 10},
		{[]float64{10, 20}, 100, 20},
		{[]float64{10, 20}, 25, 12.5},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestMillis(t *testing.T) {
	got := millis([]time.Duration{1500 * time.Microsecond, 2 * time.Second})
	if got[0] != 1.5 || got[1] != 2000 {
		t.Fatalf("millis = %v", got)
	}
}
