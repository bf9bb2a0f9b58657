package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks (the "inclusive" method). It
// returns 0 for an empty sample and does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1): the
// smallest sample with at least a share p of the samples at or below it.
// Unlike quantile it always returns a measured value, so a tail or a middle
// that falls between two clusters of operation times (a cheap and an
// expensive scheme) lands on one of them instead of on the gap.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is how
// run-to-run spread is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(j int) float64 {
		// Position j/4 of the way through n+1 slots, 1-based.
		m := float64(len(s)+1) * float64(j) / 4
		k := int(math.Floor(m))
		frac := m - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= len(s):
			return s[len(s)-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

// mean is the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
