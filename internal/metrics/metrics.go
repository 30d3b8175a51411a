// Package metrics implements the evaluation metrics and cost accounting used
// throughout the DIG-FL experiments: Pearson/Spearman correlation between
// estimated and actual Shapley values, relative errors, and counters for the
// computation (retraining) and communication cost of each method.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Pearson returns Pearson's correlation coefficient between x and y.
// It returns 0 when either series has zero variance or the lengths differ.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns Spearman's rank correlation coefficient, i.e. Pearson
// correlation on fractional ranks (average ranks for ties).
func Spearman(x, y []float64) float64 {
	return Pearson(ranks(x), ranks(y))
}

func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	r := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && x[idx[j]] == x[idx[i]] {
			j++
		}
		// average rank for the tie group [i, j)
		avg := float64(float64(i+j-1)/2) + 1
		for k := i; k < j; k++ {
			r[idx[k]] = avg
		}
		i = j
	}
	return r
}

// Kendall returns Kendall's τ-b rank correlation between x and y: concordant
// minus discordant pairs over the geometric mean of the tie-adjusted pair
// counts. τ-b handles ties in either series, matching the average-rank
// convention Spearman uses. It returns 0 when the lengths differ, fewer than
// two points are given, or either series is entirely tied.
func Kendall(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	var conc, disc, tieX, tieY float64
	for i := 0; i < len(x); i++ {
		for j := i + 1; j < len(x); j++ {
			dx, dy := x[i]-x[j], y[i]-y[j]
			switch {
			case dx == 0 && dy == 0:
				// jointly tied pairs drop out of every term
			case dx == 0:
				tieX++
			case dy == 0:
				tieY++
			case dx*dy > 0:
				conc++
			default:
				disc++
			}
		}
	}
	den := math.Sqrt((conc + disc + tieX) * (conc + disc + tieY))
	if den == 0 {
		return 0
	}
	return (conc - disc) / den
}

// RelErr returns |a−b| / |a|, the relative error the paper reports in
// Table II. It returns |a−b| when a is zero.
func RelErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if a == 0 {
		return d
	}
	return d / math.Abs(a)
}

// MeanAbsErr returns the mean absolute difference between two equal-length
// series.
func MeanAbsErr(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("metrics: MeanAbsErr length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 0
	}
	var s float64
	for i := range x {
		s += math.Abs(x[i] - y[i])
	}
	return s / float64(len(x))
}

// Accuracy returns the fraction of positions where pred and label agree.
func Accuracy(pred, label []int) float64 {
	if len(pred) != len(label) {
		panic(fmt.Sprintf("metrics: Accuracy length mismatch %d vs %d", len(pred), len(label)))
	}
	if len(pred) == 0 {
		return 0
	}
	hits := 0
	for i := range pred {
		if pred[i] == label[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}
