package learn

import (
	"cmp"
	"slices"

	"driftclean/internal/dp"
	"driftclean/internal/floats"
)

// Scores returns the raw three-class scores Wᵀx (before argmax).
func (d *LinearDetector) Scores(x []float64) [3]float64 {
	var scores [3]float64
	for j := 0; j < 3; j++ {
		var s float64
		for i := 0; i < d.W.Rows && i < len(x); i++ {
			s += d.W.At(i, j) * x[i]
		}
		scores[j] = s
	}
	return scores
}

// CalibratedLinear wraps a linear detector with a DP-decision margin: an
// instance is a DP when max(intentional, accidental) + Delta exceeds the
// non-DP score. Delta is tuned on the labeled seeds to maximize binary
// DP-detection F1 — least-squares argmax decoding is otherwise biased by
// the one-hot targets' class imbalance.
type CalibratedLinear struct {
	Base  *LinearDetector
	Delta float64
}

// Predict applies the calibrated decision rule.
func (c *CalibratedLinear) Predict(x []float64) dp.Label {
	s := c.Base.Scores(x)
	dpScore := s[0]
	if s[1] > dpScore {
		dpScore = s[1]
	}
	if dpScore+c.Delta <= s[2] {
		return dp.NonDP
	}
	if s[0] >= s[1] {
		return dp.Intentional
	}
	return dp.Accidental
}

// Calibrate tunes the DP margin of a linear detector on the tasks'
// labeled instances: NewSeedSet(tasks...).Calibrate(d).
func Calibrate(d *LinearDetector, tasks ...*Task) *CalibratedLinear {
	return NewSeedSet(tasks...).Calibrate(d)
}

// SeedSet is the labeled instances of a task list, DP and non-DP
// seeds apart, gathered once so that every detector calibrated on the
// same tasks reads them without rescanning the tasks. It holds the
// instances' feature vectors, not copies, and is read-only once built:
// copies share them, and it is safe to share across goroutines.
type SeedSet struct {
	dp, non [][]float64
}

// NewSeedSet gathers the labeled instances of the tasks.
func NewSeedSet(tasks ...*Task) SeedSet {
	nDP, n := 0, 0
	for _, t := range tasks {
		for _, in := range t.Instances {
			if in.Labeled {
				n++
				if in.Label.IsDP() {
					nDP++
				}
			}
		}
	}
	s := SeedSet{make([][]float64, 0, nDP), make([][]float64, 0, n-nDP)}
	for _, t := range tasks {
		for _, in := range t.Instances {
			switch {
			case !in.Labeled:
			case in.Label.IsDP():
				s.dp = append(s.dp, in.X)
			default:
				s.non = append(s.non, in.X)
			}
		}
	}
	return s
}

// BothSides reports whether the set holds at least one DP and one
// non-DP seed, enough to tune a margin on.
func (s SeedSet) BothSides() bool { return len(s.dp) > 0 && len(s.non) > 0 }

// Calibrate tunes the DP margin of a linear detector on the seeds. With
// no seeds the margin stays 0 (plain argmax). The result is read-only
// and safe to share across goroutines.
//
// Each seed's margin is sN - max(sI, sA): Delta must exceed it for the
// seed to be called DP. The DP and non-DP margins are sorted apart and
// swept as one merged order; the F1 sweep evaluates only at the end of
// each group of identical margins (floats.Identical), where the
// true/false-positive counts include the whole group, so the order of
// tied points, and thus of the two lists, cannot change Delta. NaN
// margins sort first and each is a group of its own.
func (s SeedSet) Calibrate(d *LinearDetector) *CalibratedLinear {
	out := &CalibratedLinear{Base: d}
	n, rows := len(s.dp)+len(s.non), d.W.Rows
	if n == 0 {
		return out
	}
	// One buffer holds W's three class columns laid out one after
	// another, then the DP and the non-DP margins.
	buf := make([]float64, 3*rows+n)
	cols, dpM, nonM := buf[:3*rows], buf[3*rows:3*rows+len(s.dp)], buf[3*rows+len(s.dp):]
	for i := range cols {
		cols[i] = d.W.At(i%rows, i/rows)
	}
	margins(dpM, cols, rows, s.dp)
	margins(nonM, cols, rows, s.non)
	slices.Sort(dpM)
	slices.Sort(nonM)
	// Sweep delta over the decision boundaries: with delta just above a
	// group's margin, that group and every lower one are called DP. The
	// sweep has passed tp DP and fp non-DP margins.
	bestF1, bestDelta := -1.0, 0.0
	tp, fp := 0, 0
	eval := func(delta float64) {
		if tp > 0 {
			p := float64(tp) / float64(tp+fp)
			r := float64(tp) / float64(len(dpM))
			if f1 := 2 * p * r / (p + r); f1 > bestF1 {
				bestF1, bestDelta = f1, delta
			}
		}
	}
	// head returns the lowest margin not yet swept, and whether it is a
	// DP one.
	head := func() (float64, bool) {
		if fp == len(nonM) || (tp < len(dpM) && !cmp.Less(nonM[fp], dpM[tp])) {
			return dpM[tp], true
		}
		return nonM[fp], false
	}
	m, _ := head()
	eval(m - 1e-9) // call nothing DP
	for tp+fp < n {
		m, isDP := head()
		if isDP {
			tp++
		} else {
			fp++
		}
		for ; tp < len(dpM) && floats.Identical(dpM[tp], m); tp++ {
		}
		for ; fp < len(nonM) && floats.Identical(nonM[fp], m); fp++ {
		}
		next := m + 1e-9
		if tp+fp < n {
			h, _ := head()
			next = (m + h) / 2
		}
		eval(next)
	}
	// Shrink the margin toward plain argmax decoding: the F1-optimal
	// delta on a handful of seeds is a noisy estimate, and shrinkage
	// regularizes it the same way the Frobenius terms regularize W.
	out.Delta = bestDelta * calibrationShrink(n)
	return out
}

// margins sets out[k] to sN - max(sI, sA) for point xs[k], reading
// the class columns cols (rows long each) and summing each score
// exactly as Scores does: s += w·x over i ascending from 0, bounded by
// min(W.Rows, len(x)). The three sums are independent, so running them
// in one pass over x changes no bit.
func margins(out, cols []float64, rows int, xs [][]float64) {
	for k, x := range xs {
		x = x[:min(rows, len(x))]
		c0, c1, c2 := cols[:len(x)], cols[rows:rows+len(x)], cols[2*rows:2*rows+len(x)]
		var sI, sA, sN float64
		for i, xi := range x {
			sI += c0[i] * xi
			sA += c1[i] * xi
			sN += c2[i] * xi
		}
		dpScore := sI
		if sA > dpScore {
			dpScore = sA
		}
		out[k] = sN - dpScore
	}
}

// calibrationShrink returns the shrinkage factor for a seed count: full
// trust with hundreds of seeds, half trust with a dozen.
func calibrationShrink(n int) float64 {
	return float64(n) / float64(n+25)
}
