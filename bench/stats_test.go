package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianPercentile(t *testing.T) {
	if median(nil) != 0 || percentile(nil, 99) != 0 {
		t.Error("no samples must read 0")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	v := []float64{10, 20, 30, 40, 50}
	if got := percentile(v, 0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(v, 100); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(v, 90); !near(got, 46) {
		t.Errorf("p90 = %v, want 46", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
	if maxOf([]float64{-3, -1, -2}) != -1 || mean([]float64{1, 2, 6}) != 3 {
		t.Error("maxOf/mean")
	}
}

// The expected values are what Python prints for
// q = statistics.quantiles(v, n=4); (q[2]-q[0]) / statistics.median(v).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{1.63, 1.64, 1.62, 1.63, 1.65, 1.61, 1.63, 1.64, 1.62, 1.66}, (1.6425 - 1.62) / 1.63},
		{[]float64{5, 1}, (6.0 - 0.0) / 3}, // two samples: Python extrapolates past both ends
	} {
		if got := quartileSpread(c.v); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSumCheck(t *testing.T) {
	if ok, gap := sumCheck(1630, 0.05, 600, 1000, 20); !ok || !near(gap, -10.0/1630) {
		t.Errorf("ok=%v gap=%v", ok, gap)
	}
	if ok, _ := sumCheck(1630, 0.05, 600, 20); ok {
		t.Error("a missing term passed the check")
	}
	if ok, _ := sumCheck(0, 0.05, 0, 0); !ok {
		t.Error("all-zero must pass")
	}
	if ok, _ := sumCheck(0, 0.05, 1); ok {
		t.Error("terms without a total must fail")
	}
}

func TestStepDrift(t *testing.T) {
	var gaps []float64
	for i := 0; i < 800; i++ {
		gaps = append(gaps, 1+float64(i)/800) // step time doubles across the window
	}
	got := tailLayers(gaps, 0.5)["elasticd.step_drift_pct"]
	if got < 75 || got > 90 {
		t.Errorf("drift = %v%%, want about 82 (1.0625 → 1.9375)", got)
	}
	if _, ok := tailLayers(gaps[:10], 0.5)["elasticd.step_drift_pct"]; ok {
		t.Error("a 10-step window must not report a drift")
	}
}

func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{9, 1, 2}, 2},      // three: the median
		{[]float64{1, 2, 4, 100}, 3}, // four: the median
		{[]float64{0.60, 0.65, 0.60, 0.65, 2.2}, 1.9 / 3}, // five: middle three, outlier ignored
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 4},
	} {
		if got := midmean(c.v); !near(got, c.want) {
			t.Errorf("midmean(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
