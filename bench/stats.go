package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(v []float64) float64 {
	return percentile(v, 50)
}

// percentile returns the p-th percentile (0..100) with linear
// interpolation between closest ranks; 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// midmean is the mean of the samples between the quartiles (a quarter of
// the samples, rounded, dropped from each end). The episode aggregates
// use it instead of the median: recovery that ends at a detector sweep is
// quantised to the sweep period, a median of five such values flips
// between two of them from run to run, and the midmean moves in steps a
// third as large while still ignoring one outlier on either side. For
// four samples or fewer it is the median.
func midmean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	drop := (len(s) + 2) / 4
	if drop > (len(s)-1)/2 {
		drop = (len(s) - 1) / 2
	}
	return mean(s[drop : len(s)-drop])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func maxOf(v []float64) float64 {
	m := 0.0
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// quartileSpread is the driver's steadiness measure: the distance between
// the first and third quartile as a share of the median, with quartiles
// taken the way Python's statistics.quantiles(v, n=4) takes them
// (exclusive method), so -aa and the README quote the number the driver
// will compute.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// sumCheck reports whether the terms add up to total within tol (a share
// of total), and the relative gap.
func sumCheck(total float64, tol float64, terms ...float64) (ok bool, gap float64) {
	var sum float64
	for _, t := range terms {
		sum += t
	}
	if total == 0 {
		return sum == 0, 0
	}
	gap = (sum - total) / total
	return math.Abs(gap) <= tol, gap
}
