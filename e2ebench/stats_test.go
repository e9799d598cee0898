package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: selection must not rely on input order
	}
	return xs
}

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	cases := []struct {
		n          int
		wantP      float64
		wantValue  float64
		wantBeyond int
		wantOK     bool
	}{
		{n: 10000, wantP: 99.9, wantValue: 9990, wantBeyond: 10, wantOK: true},
		{n: 1000, wantP: 99, wantValue: 990, wantBeyond: 10, wantOK: true},
		{n: 999, wantP: 95, wantValue: 950, wantBeyond: 49, wantOK: true}, // p99 has only 9 beyond
		{n: 200, wantP: 95, wantValue: 190, wantBeyond: 10, wantOK: true},
		{n: 40, wantP: 75, wantValue: 30, wantBeyond: 10, wantOK: true},
		{n: 20, wantP: 50, wantValue: 10, wantBeyond: 10, wantOK: true},
		{n: 19, wantOK: false},
		{n: 0, wantOK: false},
	}
	for _, tc := range cases {
		p, v, beyond, ok := tailPercentile(seq(tc.n))
		if ok != tc.wantOK || (ok && (p != tc.wantP || v != tc.wantValue || beyond != tc.wantBeyond)) {
			t.Errorf("n=%d: got p%g = %g with %d beyond (ok=%v), want p%g = %g with %d beyond (ok=%v)",
				tc.n, p, v, beyond, ok, tc.wantP, tc.wantValue, tc.wantBeyond, tc.wantOK)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	if v, b := percentile(seq(100), 99); v != 99 || b != 1 {
		t.Errorf("p99 of 1..100 = %g with %d beyond, want 99 with 1", v, b)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
}
