package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 2.5, 2.5}, [3]float64{2.5, 2.5, 2.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	}
	for _, c := range cases {
		got, ok := quartiles(c.in)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.in)
		}
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

// TestTailPercentile checks the "highest percentile with at least ten
// samples beyond it" rule at the ladder's edges.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, got, c.n-rank(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	values := make([]float64, 1000)
	for i := range values {
		values[len(values)-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(values, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

// TestRatioBases pins what each ratio is a share of: a spread of the
// median, a worsening of the base (parent) median, a share of the whole.
func TestRatioBases(t *testing.T) {
	sp, ok := spread([]float64{8, 9, 10, 11, 12})
	// quartiles 8.5, 10, 11.5: the spread is 3 over the median 10.
	if !ok || !near(sp, 0.3) {
		t.Errorf("spread = %g, %v; want 0.3", sp, ok)
	}
	if _, ok := spread([]float64{0, 0, 0}); ok {
		t.Error("spread over a zero median should not be ok")
	}
	if got := worsening(100, 110, false); !near(got, 0.1) {
		t.Errorf("lower-is-better 100 -> 110 worsens by %g, want 0.1", got)
	}
	if got := worsening(100, 90, true); !near(got, 0.1) {
		t.Errorf("higher-is-better 100 -> 90 worsens by %g, want 0.1", got)
	}
	if got := worsening(100, 110, true); !near(got, -0.1) {
		t.Errorf("higher-is-better 100 -> 110 worsens by %g, want -0.1", got)
	}
	if got := worsening(0, 5, false); got != 0 {
		t.Errorf("worsening against a zero base = %g, want 0", got)
	}
	if got := share(1, 4); got != 0.25 {
		t.Errorf("share(1, 4) = %g", got)
	}
	if got := share(1, 0); got != 0 {
		t.Errorf("share of nothing = %g", got)
	}
}
