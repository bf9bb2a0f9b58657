package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.99, 4.96}, {1, 5},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	// Two clusters of equal size: the 50th percentile is the top of the
	// lower cluster, never a value between the clusters.
	xs := []float64{1.2, 0.5, 1.1, 0.6, 1.0, 0.55}
	cases := []struct{ p, want float64 }{
		{0.5, 0.6}, {0.99, 1.2}, {1, 1.2}, {0.01, 0.5},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

func TestMedianOfEvenSampleAveragesTheMiddle(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), which is
// how the benchmark's run-to-run spread is judged.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20}, 10, 30},
		{[]float64{7, 7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay", Start: 0, End: 100e6},
		// Two overlapping children (parallel workers) and one disjoint.
		{ID: 2, Parent: 1, Name: "replay.node", Start: 10e6, End: 40e6},
		{ID: 3, Parent: 1, Name: "replay.node", Start: 20e6, End: 50e6},
		{ID: 4, Parent: 1, Name: "replay.node", Start: 70e6, End: 80e6},
	}
	got := selfTimes(spans)
	if r := got["replay"]; r.Count != 1 || !near(r.Total, 100) || !near(r.Self, 50) {
		t.Errorf("replay = %+v, want total 100 ms, self 50 ms", r)
	}
	if n := got["replay.node"]; n.Count != 3 || !near(n.Self, 70) {
		t.Errorf("replay.node = %+v, want 3 spans, self 70 ms", n)
	}
}
