package learn

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"driftclean/internal/dp"
	"driftclean/internal/floats"
	"driftclean/internal/linalg"
)

// referenceCalibrate is the sort-based calibration SeedSet.Calibrate
// replaced, kept as the test oracle: it scores every labeled point with
// Scores, sorts all points by margin through a comparison closure, and
// sweeps the F1 over the tie groups. The one change is a stable sort:
// NaN margins each close a group of their own, so with NaNs of both
// labels the unstable sort's arbitrary order among them could change
// Delta; the stable sort keeps input order, one of the orders the
// unstable sort may produce, and the cases below list DP NaNs first,
// the order SeedSet sweeps them in.
func referenceCalibrate(d *LinearDetector, tasks ...*Task) float64 {
	type pt struct {
		margin float64
		isDP   bool
	}
	var pts []pt
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
	if len(pts) == 0 {
		return 0
	}
	slices.SortStableFunc(pts, func(a, b pt) int { return cmp.Compare(a.margin, b.margin) })
	totalDP := 0
	for _, p := range pts {
		if p.isDP {
			totalDP++
		}
	}
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
	eval(pts[0].margin - 1e-9)
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
	return bestDelta * calibrationShrink(len(pts))
}

// calibrationCase draws a random detector and task list. Feature values
// come from a small grid, so points repeat and their margins tie across
// tasks and labels; half the detectors have weights on a grid too, so
// distinct points tie as well, and half have Gaussian weights, whose
// rounding shows any change to the order of the score sums. Some points
// are exact ±0 margins, some tasks carry seeds of one side only or
// none, some vectors are shorter or longer than W's rows, and with nan
// set the DP seeds of the first task and the non-DP seeds of the last
// score NaN.
func calibrationCase(rng *rand.Rand, nan bool) (*LinearDetector, []*Task) {
	rows := 2 + rng.Intn(4)
	w := linalg.NewMatrix(rows, 3)
	exact := rng.Intn(2) == 0
	for i := range w.Data {
		if exact {
			w.Data[i] = float64(rng.Intn(7)-3) / 4
		} else {
			w.Data[i] = rng.NormFloat64()
		}
	}
	det := &LinearDetector{W: w}
	grid := func() float64 {
		if rng.Intn(8) == 0 {
			return math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
		return float64(rng.Intn(5)-2) / 2
	}
	tasks := make([]*Task, 1+rng.Intn(5))
	for ti := range tasks {
		t := &Task{Concept: string(rune('a' + ti))}
		sides := rng.Intn(4) // 0: both sides, 1: DP only, 2: non-DP only, 3: no seeds
		for k := 0; k < rng.Intn(30); k++ {
			x := make([]float64, rows-1+rng.Intn(3))
			for i := range x {
				x[i] = grid()
			}
			in := Instance{Name: string(rune('A' + k)), X: x, Labeled: sides != 3 && rng.Intn(4) != 0}
			switch {
			case sides == 1 || (sides == 0 && rng.Intn(2) == 0):
				in.Label = []dp.Label{dp.Intentional, dp.Accidental}[rng.Intn(2)]
				if nan && ti == 0 {
					in.X[0] = math.NaN()
				}
			default:
				in.Label = dp.NonDP
				if nan && ti > 0 && ti == len(tasks)-1 {
					in.X[0] = math.NaN()
				}
			}
			t.Instances = append(t.Instances, in)
		}
		tasks[ti] = t
	}
	return det, tasks
}

// TestSeedSetCalibrateMatchesReference: on random detectors and task
// lists with forced ties, ±0 margins, one-sided seeds, no seeds and
// NaN margins, the seed-set calibration gives the reference Delta bit
// for bit, pooled over every task and for each task alone.
func TestSeedSetCalibrateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	nanCases := 0
	for trial := 0; trial < 2000; trial++ {
		det, tasks := calibrationCase(rng, trial%4 == 3)
		check := func(what string, got *CalibratedLinear, want float64) {
			t.Helper()
			if math.Float64bits(got.Delta) != math.Float64bits(want) {
				t.Fatalf("trial %d, %s: Delta = %v (%#x), reference %v (%#x)",
					trial, what, got.Delta, math.Float64bits(got.Delta), want, math.Float64bits(want))
			}
			if got.Base != det {
				t.Fatalf("trial %d, %s: calibration lost its detector", trial, what)
			}
		}
		want := referenceCalibrate(det, tasks...)
		if math.IsNaN(want) {
			nanCases++
		}
		check("pooled", NewSeedSet(tasks...).Calibrate(det), want)
		check("Calibrate", Calibrate(det, tasks...), want)
		for _, task := range tasks {
			check("task "+task.Concept, Calibrate(det, task), referenceCalibrate(det, task))
		}
	}
	if nanCases == 0 {
		t.Fatal("premise: some cases should calibrate to a NaN margin")
	}
}
