package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns the values in ascending order, leaving the input
// untouched.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// median is the middle value, or the mean of the two middle values for
// an even count; 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; 0 for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of the
// values: the smallest sample with at least p% of the samples at or
// below it. 0 for no values.
func percentile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sortedCopy(values)
	return s[rank(n, p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// clamped to [1, n]. Integer math on tenths of a percent keeps p=99 of
// 1000 samples at rank 990 instead of a float rounding away from it.
func rank(n int, p float64) int {
	tenths := int(math.Round(p * 10))
	r := (tenths*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile on the ladder with at
// least minBeyond of n samples above it; ok is false when not even the
// median has that many (fewer than 20 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) with its default "exclusive"
// method, the rule the benchmark's steadiness check is defined by. ok is
// false for fewer than two values.
func quartiles(values []float64) (q [3]float64, ok bool) {
	ld := len(values)
	if ld < 2 {
		return q, false
	}
	d := sortedCopy(values)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q, true
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise a metric's bound must exceed. ok is false for fewer
// than two values or a zero median.
func spread(values []float64) (float64, bool) {
	q, ok := quartiles(values)
	if !ok || q[1] == 0 {
		return 0, false
	}
	return (q[2] - q[0]) / q[1], true
}

// worsening is how much worse head is than base, as a share of base:
// positive when head is worse. For a higher-is-better metric a drop is
// a worsening. The base is the reference side (the parent commit, or the
// untraced run when measuring tracing overhead).
func worsening(base, head float64, higherBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherBetter {
		return (base - head) / base
	}
	return (head - base) / base
}

// share is part as a fraction of whole; 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts a sample of durations with conv.
func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}
