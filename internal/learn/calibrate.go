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

// Calibrate tunes the DP margin of a linear detector on a task's labeled
// instances. With no labeled instances the margin stays 0 (plain argmax).
//
// The points are sorted by margin with an unstable sort, so points with
// identical margins may land in any order. That cannot change Delta: the
// F1 sweep evaluates only at the end of each group of tied margins
// (floats.Identical), where the true/false-positive counts include the
// whole group whatever its internal order. The result is read-only and
// safe to share across goroutines.
func Calibrate(d *LinearDetector, tasks ...*Task) *CalibratedLinear {
	type pt struct {
		margin float64 // sN - max(sI, sA): delta must exceed it to call DP
		isDP   bool
	}
	labeled := 0
	for _, t := range tasks {
		labeled += t.LabeledCount()
	}
	pts := make([]pt, 0, labeled)
	for _, t := range tasks {
		for _, in := range t.Instances {
			if !in.Labeled {
				continue
			}
			s := d.Scores(in.X)
			dpScore := s[0]
			if s[1] > dpScore {
				dpScore = s[1]
			}
			pts = append(pts, pt{margin: s[2] - dpScore, isDP: in.Label.IsDP()})
		}
	}
	out := &CalibratedLinear{Base: d}
	if len(pts) == 0 {
		return out
	}
	slices.SortFunc(pts, func(a, b pt) int { return cmp.Compare(a.margin, b.margin) })
	totalDP := 0
	for _, p := range pts {
		if p.isDP {
			totalDP++
		}
	}
	// Sweep delta over the decision boundaries: with delta just above
	// pts[i].margin, points 0..i are called DP.
	bestF1, bestDelta := -1.0, 0.0
	tp, fp := 0, 0
	eval := func(delta float64) {
		fn := totalDP - tp
		if tp > 0 {
			p := float64(tp) / float64(tp+fp)
			r := float64(tp) / float64(tp+fn)
			if f1 := 2 * p * r / (p + r); f1 > bestF1 {
				bestF1, bestDelta = f1, delta
			}
		}
	}
	eval(pts[0].margin - 1e-9) // call nothing DP
	for i, p := range pts {
		if p.isDP {
			tp++
		} else {
			fp++
		}
		if i+1 < len(pts) && floats.Identical(pts[i+1].margin, p.margin) {
			continue
		}
		next := p.margin + 1e-9
		if i+1 < len(pts) {
			next = (p.margin + pts[i+1].margin) / 2
		}
		eval(next)
	}
	// Shrink the margin toward plain argmax decoding: the F1-optimal
	// delta on a handful of seeds is a noisy estimate, and shrinkage
	// regularizes it the same way the Frobenius terms regularize W.
	out.Delta = bestDelta * calibrationShrink(len(pts))
	return out
}

// calibrationShrink returns the shrinkage factor for a seed count: full
// trust with hundreds of seeds, half trust with a dozen.
func calibrationShrink(n int) float64 {
	return float64(n) / float64(n+25)
}
