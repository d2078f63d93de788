// Package learn is GDR's machine-learning substrate (Section 4.2 of the
// paper): a from-scratch random forest — an ensemble of decision trees acting
// as a committee of classifiers — used to predict user feedback
// (confirm / reject / retain) for suggested updates, plus the
// committee-entropy uncertainty score that drives active-learning ordering.
//
// The paper used WEKA's RandomForest with k = 10 trees; this package
// re-implements the same scheme on the stdlib: bootstrap samples of size
// N′ < N per tree and a random subsample of M′ < M features considered at
// each split (M′ = ⌈√M⌉), with information-gain split selection.
//
// Feature vectors mirror the paper's data representation for a suggested
// update r = ⟨t, Ai, v, s⟩: the original attribute values t[A1..An] and the
// suggested value v are categorical features, and the relationship function
// R(t[Ai], v) (a string similarity) is a numeric feature.
//
// Trees never see strings: each categorical feature is dictionary-encoded
// (see encoding), and a code is the value's rank in value-string order, so
// every order-dependent step — child recursion, the child-entropy sum —
// runs in the value order a string-keyed tree would use.
package learn

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// Label is the class predicted for a suggested update; it mirrors the
// expected user feedback.
type Label int

// The three feedback classes of Section 4.2.
const (
	Confirm Label = iota
	Reject
	Retain
)

// NumLabels is the size of the label alphabet.
const NumLabels = 3

func (l Label) String() string {
	switch l {
	case Confirm:
		return "confirm"
	case Reject:
		return "reject"
	case Retain:
		return "retain"
	default:
		return "unknown"
	}
}

// Example is one training instance ⟨t[A1],…,t[An], v, R(t[Ai],v), F⟩.
type Example struct {
	// Cats holds the categorical features: the original tuple's attribute
	// values followed by the suggested value. Its length must be identical
	// across all examples given to one model.
	Cats []string
	// Sim is the numeric relationship feature R(t[Ai], v).
	Sim float64
	// Label is the observed user feedback.
	Label Label
}

// node is one decision-tree node. A leaf predicts its majority label;
// internal nodes split on either a categorical feature (children by value
// code) or the numeric similarity feature (threshold).
type node struct {
	majority Label

	leaf bool

	// Categorical split: catFeat >= 0. Children are found by code in a
	// table over the codes lo..lo+len(dense)-1 (nil where no child) when
	// the codes are dense enough that the table is no larger than a kid
	// list; otherwise in kids, sorted by code.
	catFeat int
	lo      int32
	dense   []*node
	kids    []kid

	// Numeric split: catFeat == -1; Sim <= thresh goes left.
	thresh float64
	left   *node
	right  *node
}

// leaves holds the one leaf per label every tree shares: a leaf is just
// its majority label, and nodes are immutable once grown.
var leaves = [NumLabels]node{
	{majority: Confirm, leaf: true, catFeat: -1},
	{majority: Reject, leaf: true, catFeat: -1},
	{majority: Retain, leaf: true, catFeat: -1},
}

// kid is one child of a categorical split: the subtree for one value code.
type kid struct {
	code int32
	n    *node
}

// treeConfig bundles the per-tree growth limits.
type treeConfig struct {
	maxDepth int
	minLeaf  int
	mtry     int
	nCats    int // number of categorical features; the numeric feature has index nCats
}

func majorityOf(c [NumLabels]int) Label {
	best := Confirm
	for l := Label(1); l < NumLabels; l++ {
		if c[l] > c[best] {
			best = l
		}
	}
	return best
}

// entropy returns the Shannon entropy (nats) of a label distribution.
func entropy(c [NumLabels]int, n int) float64 {
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, k := range c {
		if k == 0 {
			continue
		}
		p := float64(k) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// builder grows one tree at a time over a training set's rank codes. Its
// scratch buffers are reused across nodes, trees and trains (builders are
// pooled), so growing a tree allocates only the internal nodes it returns.
type builder struct {
	rng    *rand.Rand
	cfg    treeConfig
	codes  [][]int32 // codes[f][i]: example i's rank code for feature f
	sims   []float64
	labels []Label

	idx     []int            // the tree's bootstrap sample, partitioned in place
	tmp     []int            // scatter buffer for partitioning
	counts  [][NumLabels]int // per-code label counts; all zero between uses
	sizes   []int            // per-code sizes, then cursors; all zero between uses
	touched []int32          // codes present at the node being tallied
	feats   []int            // the node's feature permutation
	sorted  []float64        // the node's similarity values, sorted
	mids    []float64        // candidate thresholds
}

// sample draws the tree's bootstrap sample: uniformly over all examples, or
// round-robin over the label classes (one uniform draw inside each) so the
// sample is class-balanced.
func (b *builder) sample(n int, classes [][]int) []int {
	b.idx = slices.Grow(b.idx[:0], n)[:n]
	if classes == nil {
		for i := range b.idx {
			b.idx[i] = b.rng.Intn(len(b.labels))
		}
	} else {
		for i := range b.idx {
			class := classes[i%len(classes)]
			b.idx[i] = class[b.rng.Intn(len(class))]
		}
	}
	return b.idx
}

// perm is rand.Perm into a reused buffer: the same draws in the same order,
// so a tree consumes its RNG exactly as it would with rand.Perm.
func (b *builder) perm(n int) []int {
	m := slices.Grow(b.feats[:0], n)[:n]
	for i := 0; i < n; i++ {
		j := b.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	b.feats = m
	return m
}

// grow grows the subtree over the examples idx, with random feature
// subsampling at each split. It reorders idx in place (each child's
// examples end up contiguous, in their original relative order).
func (b *builder) grow(idx []int, depth int) *node {
	var counts [NumLabels]int
	for _, i := range idx {
		counts[b.labels[i]]++
	}
	majority := majorityOf(counts)
	total := len(idx)
	if total == 0 {
		return &leaves[majority]
	}
	pure := false
	for _, k := range counts {
		if k == total {
			pure = true
		}
	}
	if pure || depth >= b.cfg.maxDepth || total < 2*b.cfg.minLeaf {
		return &leaves[majority]
	}

	parentH := entropy(counts, total)
	feats := b.perm(b.cfg.nCats + 1)
	if len(feats) > b.cfg.mtry {
		feats = feats[:b.cfg.mtry]
	}

	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	for _, f := range feats {
		if f < b.cfg.nCats {
			if childH, ok := b.catChildEntropy(idx, f); ok {
				if gain := parentH - childH; gain > bestGain+1e-12 {
					bestGain, bestFeat = gain, f
				}
			}
			continue
		}
		// Numeric feature: try quantile thresholds over distinct sims.
		sorted := b.sorted[:0]
		for _, i := range idx {
			sorted = append(sorted, b.sims[i])
		}
		slices.Sort(sorted)
		b.sorted = sorted
		for _, th := range b.thresholds(sorted) {
			var lc, rc [NumLabels]int
			ln, rn := 0, 0
			for _, i := range idx {
				if b.sims[i] <= th {
					lc[b.labels[i]]++
					ln++
				} else {
					rc[b.labels[i]]++
					rn++
				}
			}
			if ln == 0 || rn == 0 {
				continue
			}
			childH := float64(ln)/float64(total)*entropy(lc, ln) + float64(rn)/float64(total)*entropy(rc, rn)
			if gain := parentH - childH; gain > bestGain+1e-12 {
				bestGain, bestFeat, bestThresh = gain, f, th
			}
		}
	}

	if bestFeat < 0 || bestGain <= 1e-12 {
		return &leaves[majority]
	}
	n := &node{majority: majority, catFeat: -1}
	if bestFeat < b.cfg.nCats {
		n.catFeat = bestFeat
		present := b.partition(idx, bestFeat)
		if lo, hi := present[0], present[len(present)-1]; int(hi-lo) < 2*len(present) {
			n.lo, n.dense = lo, make([]*node, hi-lo+1)
		} else {
			n.kids = make([]kid, len(present))
		}
		// Children are grown in code order — value order — so the tree's
		// RNG is consumed deterministically.
		codes := b.codes[bestFeat]
		for k, lo := 0, 0; lo < len(idx); k++ {
			c, hi := codes[idx[lo]], lo+1
			for hi < len(idx) && codes[idx[hi]] == c {
				hi++
			}
			child := b.grow(idx[lo:hi], depth+1)
			if n.dense != nil {
				n.dense[c-n.lo] = child
			} else {
				n.kids[k] = kid{code: c, n: child}
			}
			lo = hi
		}
		return n
	}
	// Numeric split: a stable partition, left side first.
	n.thresh = bestThresh
	nl := 0
	right := b.tmp[:0]
	for _, i := range idx {
		if b.sims[i] <= bestThresh {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(idx[nl:], right)
	b.tmp = right
	n.left = b.grow(idx[:nl], depth+1)
	n.right = b.grow(idx[nl:], depth+1)
	return n
}

// catChildEntropy returns the weighted entropy of the children a split on
// categorical feature f would make, summed in ascending code order; ok is
// false when the examples share one value (no split).
func (b *builder) catChildEntropy(idx []int, f int) (childH float64, ok bool) {
	present := b.tally(idx, f)
	if len(present) >= 2 {
		total := float64(len(idx))
		for _, c := range present {
			childH += float64(b.sizes[c]) / total * entropy(b.counts[c], b.sizes[c])
		}
	}
	b.untally(present)
	return childH, len(present) >= 2
}

// partition reorders idx by feature f's code with a stable counting sort
// and returns the codes present, ascending. The result is scratch: it is
// overwritten when the next node is evaluated.
func (b *builder) partition(idx []int, f int) []int32 {
	present := b.tally(idx, f)
	start := 0
	for _, c := range present {
		start, b.sizes[c] = start+b.sizes[c], start
	}
	codes := b.codes[f]
	tmp := slices.Grow(b.tmp[:0], len(idx))[:len(idx)]
	for _, i := range idx {
		c := codes[i]
		tmp[b.sizes[c]] = i
		b.sizes[c]++
	}
	copy(idx, tmp)
	b.tmp = tmp
	b.untally(present)
	return present
}

// tally counts feature f's codes over idx into sizes and their labels into
// counts, and returns the codes present in ascending order.
func (b *builder) tally(idx []int, f int) []int32 {
	codes := b.codes[f]
	present := b.touched[:0]
	lo, hi := int32(math.MaxInt32), int32(-1)
	for _, i := range idx {
		c := codes[i]
		if b.sizes[c] == 0 {
			present = append(present, c)
			lo, hi = min(lo, c), max(hi, c)
		}
		b.sizes[c]++
		b.counts[c][b.labels[i]]++
	}
	// Sort, or scan sizes over [lo, hi] when the codes are dense in it.
	if int(hi-lo) > 4*len(present) {
		slices.Sort(present)
	} else {
		present = present[:0]
		for c := lo; c <= hi; c++ {
			if b.sizes[c] != 0 {
				present = append(present, c)
			}
		}
	}
	b.touched = present
	return present
}

// untally zeroes the tally of the given codes, restoring the all-zero
// invariant of sizes and counts.
func (b *builder) untally(present []int32) {
	for _, c := range present {
		b.sizes[c] = 0
		b.counts[c] = [NumLabels]int{}
	}
}

// thresholds picks up to 8 candidate split points (midpoints between
// adjacent distinct values) from a sorted slice.
func (b *builder) thresholds(sorted []float64) []float64 {
	mids := b.mids[:0]
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			mids = append(mids, (sorted[i-1]+sorted[i])/2)
		}
	}
	b.mids = mids
	if len(mids) <= 8 {
		return mids
	}
	var out [8]float64
	for i := range out {
		out[i] = mids[i*len(mids)/8]
	}
	return append(mids[:0], out[:]...)
}

// child returns the subtree for code c, or nil if the split has none.
func (n *node) child(c int32) *node {
	if n.dense != nil {
		if c < n.lo || int(c-n.lo) >= len(n.dense) {
			return nil
		}
		return n.dense[c-n.lo]
	}
	k, ok := slices.BinarySearchFunc(n.kids, c, func(k kid, c int32) int { return cmp.Compare(k.code, c) })
	if !ok {
		return nil
	}
	return n.kids[k].n
}

// query is a feature vector being classified. Each categorical value is
// encoded on first use — at most once per Predict, however many trees
// split on it, and not at all if none does.
type query struct {
	cats  []string
	dicts []dict
	codes []int32 // per feature: the value's code, -1 if unseen, notEncoded before first use
	sim   float64
}

const notEncoded = -2

func (q *query) code(f int) int32 {
	c := q.codes[f]
	if c == notEncoded {
		c = q.dicts[f].lookup(q.cats[f])
		q.codes[f] = c
	}
	return c
}

// classify walks the tree; a value the split never saw (including one
// unseen in training) falls back to the current node's majority label.
func (n *node) classify(q *query) Label {
	for !n.leaf {
		if n.catFeat >= 0 {
			child := n.child(q.code(n.catFeat))
			if child == nil {
				return n.majority
			}
			n = child
			continue
		}
		if q.sim <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.majority
}
