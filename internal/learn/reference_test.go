package learn

import (
	"math"
	"math/rand"
	"sort"
)

// This file keeps the string-keyed forest the dense learner replaced, as
// the reference TestForestIdentity compares Train against: trees split on
// value strings, partition examples into a map per candidate split, and
// recurse over children in sorted key order. The one change from the old
// code is that the child-entropy sum also runs in sorted key order (it used
// map order), so the reference is itself deterministic to the last bit.

type refNode struct {
	majority Label
	leaf     bool
	catFeat  int
	children map[string]*refNode
	thresh   float64
	left     *refNode
	right    *refNode
}

type refForest struct {
	trees []*refNode
	nCats int
}

func refCountLabels(exs []Example, idx []int) [NumLabels]int {
	var c [NumLabels]int
	for _, i := range idx {
		c[exs[i].Label]++
	}
	return c
}

func refTrain(examples []Example, cfg Config) *refForest {
	if len(examples) == 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	nCats := len(examples[0].Cats)
	mtry := cfg.Mtry
	if mtry <= 0 {
		mtry = int(math.Ceil(math.Sqrt(float64(nCats + 1))))
	}
	tc := treeConfig{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, mtry: mtry, nCats: nCats}
	nSample := int(math.Ceil(cfg.SampleFrac * float64(len(examples))))
	if nSample < 1 {
		nSample = 1
	}
	var byLabel [NumLabels][]int
	for i, ex := range examples {
		byLabel[ex.Label] = append(byLabel[ex.Label], i)
	}
	var classes [][]int
	for _, idxs := range byLabel {
		if len(idxs) > 0 {
			classes = append(classes, idxs)
		}
	}
	seedRNG := rand.New(rand.NewSource(cfg.Seed))
	f := &refForest{nCats: nCats, trees: make([]*refNode, cfg.K)}
	for k := range f.trees {
		rng := rand.New(rand.NewSource(seedRNG.Int63()))
		idx := make([]int, nSample)
		if cfg.Unbalanced || len(classes) < 2 {
			for i := range idx {
				idx[i] = rng.Intn(len(examples))
			}
		} else {
			for i := range idx {
				class := classes[i%len(classes)]
				idx[i] = class[rng.Intn(len(class))]
			}
		}
		f.trees[k] = refBuildTree(examples, idx, tc, rng, 0)
	}
	return f
}

func refBuildTree(exs []Example, idx []int, cfg treeConfig, rng *rand.Rand, depth int) *refNode {
	counts := refCountLabels(exs, idx)
	n := &refNode{majority: majorityOf(counts), catFeat: -1}
	total := len(idx)
	if total == 0 {
		n.leaf = true
		return n
	}
	pure := false
	for _, k := range counts {
		if k == total {
			pure = true
		}
	}
	if pure || depth >= cfg.maxDepth || total < 2*cfg.minLeaf {
		n.leaf = true
		return n
	}

	parentH := entropy(counts, total)
	nFeats := cfg.nCats + 1
	feats := rng.Perm(nFeats)
	if len(feats) > cfg.mtry {
		feats = feats[:cfg.mtry]
	}

	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	var bestParts map[string][]int
	var bestLeft, bestRight []int

	for _, f := range feats {
		if f < cfg.nCats {
			parts := make(map[string][]int)
			for _, i := range idx {
				v := exs[i].Cats[f]
				parts[v] = append(parts[v], i)
			}
			if len(parts) < 2 {
				continue
			}
			childH := 0.0
			for _, v := range sortedKeys(parts) {
				part := parts[v]
				childH += float64(len(part)) / float64(total) * entropy(refCountLabels(exs, part), len(part))
			}
			if gain := parentH - childH; gain > bestGain+1e-12 {
				bestGain, bestFeat, bestParts = gain, f, parts
			}
			continue
		}
		sims := make([]float64, 0, total)
		for _, i := range idx {
			sims = append(sims, exs[i].Sim)
		}
		sort.Float64s(sims)
		for _, th := range refThresholds(sims) {
			var lc, rc [NumLabels]int
			ln, rn := 0, 0
			for _, i := range idx {
				if exs[i].Sim <= th {
					lc[exs[i].Label]++
					ln++
				} else {
					rc[exs[i].Label]++
					rn++
				}
			}
			if ln == 0 || rn == 0 {
				continue
			}
			childH := float64(ln)/float64(total)*entropy(lc, ln) + float64(rn)/float64(total)*entropy(rc, rn)
			if gain := parentH - childH; gain > bestGain+1e-12 {
				bestGain, bestFeat, bestThresh = gain, f, th
				bestParts = nil
			}
		}
	}

	if bestFeat < 0 || bestGain <= 1e-12 {
		n.leaf = true
		return n
	}
	if bestParts != nil {
		n.catFeat = bestFeat
		n.children = make(map[string]*refNode, len(bestParts))
		for _, v := range sortedKeys(bestParts) {
			n.children[v] = refBuildTree(exs, bestParts[v], cfg, rng, depth+1)
		}
		return n
	}
	n.thresh = bestThresh
	for _, i := range idx {
		if exs[i].Sim <= bestThresh {
			bestLeft = append(bestLeft, i)
		} else {
			bestRight = append(bestRight, i)
		}
	}
	n.left = refBuildTree(exs, bestLeft, cfg, rng, depth+1)
	n.right = refBuildTree(exs, bestRight, cfg, rng, depth+1)
	return n
}

func sortedKeys(parts map[string][]int) []string {
	keys := make([]string, 0, len(parts))
	for v := range parts {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	return keys
}

func refThresholds(sorted []float64) []float64 {
	var uniq []float64
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	var mids []float64
	for i := 1; i < len(uniq); i++ {
		mids = append(mids, (uniq[i-1]+uniq[i])/2)
	}
	if len(mids) <= 8 {
		return mids
	}
	out := make([]float64, 0, 8)
	for i := 0; i < 8; i++ {
		out = append(out, mids[i*len(mids)/8])
	}
	return out
}

func (n *refNode) classify(cats []string, sim float64) Label {
	for !n.leaf {
		if n.catFeat >= 0 {
			child, ok := n.children[cats[n.catFeat]]
			if !ok {
				return n.majority
			}
			n = child
			continue
		}
		if sim <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.majority
}

func (f *refForest) Predict(cats []string, sim float64) Votes {
	var v Votes
	for _, t := range f.trees {
		v[t.classify(cats, sim)] += 1
	}
	for i := range v {
		v[i] /= float64(len(f.trees))
	}
	return v
}
