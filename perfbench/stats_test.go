package main

import "testing"

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{39, 0, false},  // p75 has 9 beyond
		{40, 75, true},  // p75 has exactly 10 beyond
		{99, 75, true},  // p90 has 9 beyond
		{100, 90, true}, // p90 has exactly 10 beyond
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if percentileReportable(199, 95) || !percentileReportable(200, 95) {
		t.Error("p95 must need 200 samples: ten beyond it")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single-sample quantile")
	}
}
