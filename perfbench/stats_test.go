package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.50, false, 0},
		{20, 0.50, true, 10},
		{199, 0.95, false, 0},
		{200, 0.95, true, 190},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.50, false, 0},
	} {
		v, ok := percentile(sorted(ramp(c.n)), c.q)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}
