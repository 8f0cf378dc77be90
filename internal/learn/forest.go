package learn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"driftclean/internal/dp"
	"driftclean/internal/floats"
)

// ForestConfig controls the Random Forest baseline — the paper's
// "conventional Supervised Learning method (using Random Forest)".
type ForestConfig struct {
	Trees    int
	MaxDepth int
	MinLeaf  int
	// FeaturesPerSplit is the number of features sampled per split;
	// 0 means ceil(sqrt(d)).
	FeaturesPerSplit int
	Seed             int64
}

// DefaultForestConfig returns a small forest adequate for 4 features.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{Trees: 60, MaxDepth: 8, MinLeaf: 2, Seed: 1}
}

// Forest is a trained random forest over raw feature vectors.
type Forest struct {
	trees []*treeNode
}

type treeNode struct {
	leaf    bool
	label   dp.Label
	feature int
	thresh  float64
	left    *treeNode
	right   *treeNode
}

// TrainForest fits the forest on the labeled instances of a task using
// their raw features.
func TrainForest(t *Task, cfg ForestConfig) (*Forest, error) {
	def := DefaultForestConfig()
	if cfg.Trees <= 0 {
		cfg.Trees = def.Trees
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = def.MaxDepth
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = def.MinLeaf
	}
	var xs [][]float64
	var ys []dp.Label
	for _, in := range t.Instances {
		if in.Labeled {
			xs = append(xs, in.Raw)
			ys = append(ys, in.Label)
		}
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("learn: task %q has no labeled instances for the forest", t.Concept)
	}
	d := len(xs[0])
	mtry := cfg.FeaturesPerSplit
	if mtry <= 0 {
		mtry = int(math.Ceil(math.Sqrt(float64(d))))
	}
	rng := newRng(cfg.Seed)
	f := &Forest{trees: make([]*treeNode, cfg.Trees)}
	for ti := range f.trees {
		// Bootstrap sample.
		bx := make([][]float64, len(xs))
		by := make([]dp.Label, len(xs))
		for i := range bx {
			j := rng.Intn(len(xs))
			bx[i], by[i] = xs[j], ys[j]
		}
		f.trees[ti] = growTree(bx, by, cfg, mtry, rng, 0)
	}
	return f, nil
}

// TrainForestPooled fits one forest over the labeled instances of many
// tasks — raw features share semantics across concepts, so pooling is the
// natural way to give small concepts a usable supervised baseline.
func TrainForestPooled(tasks []*Task, cfg ForestConfig) (*Forest, error) {
	pooled := &Task{Concept: "<pooled>"}
	for _, t := range tasks {
		for _, in := range t.Instances {
			if in.Labeled {
				pooled.Instances = append(pooled.Instances, in)
			}
		}
	}
	return TrainForest(pooled, cfg)
}

func growTree(xs [][]float64, ys []dp.Label, cfg ForestConfig, mtry int, rng *rand.Rand, depth int) *treeNode {
	if depth >= cfg.MaxDepth || len(xs) < 2*cfg.MinLeaf || pure(ys) {
		return &treeNode{leaf: true, label: majorityLabel(ys)}
	}
	d := len(xs[0])
	feats := rng.Perm(d)[:mtry]
	bestGain := -1.0
	bestFeat, bestThresh := -1, 0.0
	parentGini := gini(ys)
	for _, f := range feats {
		vals := make([]float64, len(xs))
		for i := range xs {
			vals[i] = xs[i][f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for i := 1; i < len(sorted); i++ {
			if floats.Identical(sorted[i], sorted[i-1]) {
				continue
			}
			thresh := (sorted[i] + sorted[i-1]) / 2
			var leftY, rightY []dp.Label
			for j := range xs {
				if vals[j] <= thresh {
					leftY = append(leftY, ys[j])
				} else {
					rightY = append(rightY, ys[j])
				}
			}
			if len(leftY) < cfg.MinLeaf || len(rightY) < cfg.MinLeaf {
				continue
			}
			n := float64(len(ys))
			gain := parentGini -
				float64(len(leftY))/n*gini(leftY) -
				float64(len(rightY))/n*gini(rightY)
			if gain > bestGain {
				bestGain, bestFeat, bestThresh = gain, f, thresh
			}
		}
	}
	if bestFeat < 0 || bestGain <= 0 {
		return &treeNode{leaf: true, label: majorityLabel(ys)}
	}
	var lx, rx [][]float64
	var ly, ry []dp.Label
	for i := range xs {
		if xs[i][bestFeat] <= bestThresh {
			lx = append(lx, xs[i])
			ly = append(ly, ys[i])
		} else {
			rx = append(rx, xs[i])
			ry = append(ry, ys[i])
		}
	}
	return &treeNode{
		feature: bestFeat,
		thresh:  bestThresh,
		left:    growTree(lx, ly, cfg, mtry, rng, depth+1),
		right:   growTree(rx, ry, cfg, mtry, rng, depth+1),
	}
}

func pure(ys []dp.Label) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] != ys[0] {
			return false
		}
	}
	return true
}

// gini is the Gini impurity of a label multiset. The squared shares are
// subtracted in label order: float subtraction does not associate, and a
// map-ordered sum can flip a split-gain tie from run to run.
func gini(ys []dp.Label) float64 {
	counts := map[dp.Label]int{}
	for _, y := range ys {
		counts[y]++
	}
	n := float64(len(ys))
	g := 1.0
	for _, l := range []dp.Label{dp.NonDP, dp.Intentional, dp.Accidental} {
		p := float64(counts[l]) / n
		g -= p * p
	}
	return g
}

// Predict classifies a raw feature vector by majority vote across trees.
func (f *Forest) Predict(x []float64) dp.Label {
	votes := make([]dp.Label, len(f.trees))
	for i, tr := range f.trees {
		votes[i] = tr.classify(x)
	}
	return majorityLabel(votes)
}

func (n *treeNode) classify(x []float64) dp.Label {
	for !n.leaf {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}
