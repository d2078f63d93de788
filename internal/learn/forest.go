package learn

import (
	"math"
	"math/rand"
	"sync"

	"gdr/internal/par"
)

// Config controls forest training. The zero value is usable: it is filled
// with the paper's defaults (k = 10 trees, bootstrap fraction 0.7 so that
// N′ < N, M′ = ⌈√M⌉ features per split).
type Config struct {
	// K is the committee size (number of trees). Default 10.
	K int
	// MaxDepth bounds tree depth. Default 12.
	MaxDepth int
	// MinLeaf is the minimum number of samples required to split. Default 1.
	MinLeaf int
	// SampleFrac is N′/N for bootstrap sampling (with replacement). Default 0.7.
	SampleFrac float64
	// Mtry is the number of features considered per split; 0 means ⌈√M⌉.
	Mtry int
	// Unbalanced disables the class-balanced bootstrap. By default each
	// tree's sample draws equally from every label present: active-learning
	// feedback is heavily skewed toward reject/retain (uncertain updates
	// are disproportionately the wrong ones), and an unbalanced committee
	// grows too shy to confirm anything.
	Unbalanced bool
	// Seed makes training deterministic.
	Seed int64
	// Workers bounds the goroutines used to grow the committee's trees.
	// The k trees are independent — each draws its bootstrap sample and
	// split subsamples from its own Seed-derived RNG — so the trained
	// forest is identical at any worker count. Values below 2 train
	// serially.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.SampleFrac <= 0 || c.SampleFrac > 1 {
		c.SampleFrac = 0.7
	}
	return c
}

// Votes is the committee's vote distribution over the three labels; entries
// sum to 1 for a trained forest.
type Votes [NumLabels]float64

// Top returns the majority label (ties break toward the smaller label index,
// i.e. confirm before reject before retain).
func (v Votes) Top() Label {
	best := Confirm
	for l := Label(1); l < NumLabels; l++ {
		if v[l] > v[best] {
			best = l
		}
	}
	return best
}

// Uncertainty quantifies committee disagreement as the entropy of the vote
// fractions with logarithm base 3 (the paper's example: votes {3,1,1}/5 give
// 0.86 and {1,4,0}/5 give 0.45). It ranges over [0, 1].
func (v Votes) Uncertainty() float64 {
	h := 0.0
	for _, p := range v {
		if p <= 0 {
			continue
		}
		h -= p * math.Log(p) / math.Log(NumLabels)
	}
	return h
}

// Forest is a trained random-forest committee.
type Forest struct {
	trees []*node
	dicts []dict // per categorical feature: value → the code its trees split on
}

// builders pools tree builders (a reseeded RNG and scratch buffers), so a
// retrain allocates little beyond the trees themselves.
var builders = sync.Pool{New: func() any { return &builder{rng: rand.New(rand.NewSource(1))} }}

// Train grows a random forest over the examples. All examples must share the
// same categorical arity. Training with no examples returns nil.
func Train(examples []Example, cfg Config) *Forest {
	var e encoding
	for _, ex := range examples {
		e.add(ex)
	}
	return e.train(cfg)
}

// train grows a forest over the encoded training set.
func (e *encoding) train(cfg Config) *Forest {
	if len(e.labels) == 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	nCats := len(e.cols)
	mtry := cfg.Mtry
	if mtry <= 0 {
		mtry = int(math.Ceil(math.Sqrt(float64(nCats + 1))))
	}
	tc := treeConfig{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, mtry: mtry, nCats: nCats}
	nSample := int(math.Ceil(cfg.SampleFrac * float64(len(e.labels))))
	if nSample < 1 {
		nSample = 1
	}
	var byLabel [NumLabels][]int
	for i, l := range e.labels {
		byLabel[l] = append(byLabel[l], i)
	}
	var classes [][]int
	for _, idxs := range byLabel {
		if len(idxs) > 0 {
			classes = append(classes, idxs)
		}
	}
	if cfg.Unbalanced || len(classes) < 2 {
		classes = nil
	}
	f := &Forest{trees: make([]*node, cfg.K), dicts: make([]dict, nCats)}
	codes := make([][]int32, nCats)
	maxCard := 0
	for i := range e.cols {
		col := &e.cols[i]
		col.refresh()
		f.dicts[i], codes[i] = col.dict, col.ranked
		maxCard = max(maxCard, len(col.rank))
	}
	// Derive one seed per tree up front from the configured seed: each tree's
	// bootstrap and split draws come from its own RNG, so the committee is
	// reproducible for a given Seed regardless of Workers or the order the
	// trees finish growing in.
	seeds := make([]int64, cfg.K)
	b := builders.Get().(*builder)
	b.rng.Seed(cfg.Seed)
	for k := range seeds {
		seeds[k] = b.rng.Int63()
	}
	builders.Put(b)
	par.ForEach(par.Workers(cfg.Workers), cfg.K, func(k int) error {
		b := builders.Get().(*builder)
		b.rng.Seed(seeds[k])
		b.cfg, b.codes, b.sims, b.labels = tc, codes, e.sims, e.labels
		if len(b.sizes) < maxCard {
			b.sizes = make([]int, maxCard)
			b.counts = make([][NumLabels]int, maxCard)
		}
		f.trees[k] = b.grow(b.sample(nSample, classes), 0)
		b.codes, b.sims, b.labels = nil, nil, nil
		builders.Put(b)
		return nil
	})
	return f
}

// maxStackArity is the largest categorical arity Predict handles without
// allocating.
const maxStackArity = 32

// Predict classifies a feature vector: each committee member votes and the
// majority label wins. It panics if cats does not match the training arity.
func (f *Forest) Predict(cats []string, sim float64) (Label, Votes) {
	if len(cats) != len(f.dicts) {
		panic("learn: feature arity mismatch")
	}
	var buf [maxStackArity]int32
	q := query{cats: cats, dicts: f.dicts, codes: buf[:0], sim: sim}
	if len(cats) > len(buf) {
		q.codes = make([]int32, 0, len(cats))
	}
	for range cats {
		q.codes = append(q.codes, notEncoded)
	}
	var v Votes
	for _, t := range f.trees {
		v[t.classify(&q)] += 1
	}
	for i := range v {
		v[i] /= float64(len(f.trees))
	}
	return v.Top(), v
}

// K returns the committee size.
func (f *Forest) K() int { return len(f.trees) }

// Model is the per-attribute learner M_Ai of Section 4.2: it accumulates
// training examples from user feedback and retrains its forest lazily.
type Model struct {
	cfg      Config
	minTrain int
	examples []Example
	enc      encoding // examples' features as codes, kept in step by Add
	forest   *Forest
	stale    bool
	retrains int64
}

// NewModel creates an empty model; minTrain is the minimum number of labeled
// examples before the model makes predictions (values < 1 default to 3).
func NewModel(cfg Config, minTrain int) *Model {
	if minTrain < 1 {
		minTrain = 3
	}
	return &Model{cfg: cfg, minTrain: minTrain, stale: true}
}

// Add appends a training example (the user's feedback on one update). It
// panics if the example's categorical arity differs from the first one's.
func (m *Model) Add(ex Example) {
	ex.Cats = append([]string(nil), ex.Cats...)
	m.enc.add(ex)
	m.examples = append(m.examples, ex)
	m.stale = true
}

// Len returns the number of accumulated training examples.
func (m *Model) Len() int { return len(m.examples) }

// Gen returns a counter that changes whenever the model's training set
// (and therefore its predictions) may have changed; the session's per-
// attribute staleness signature keys on it.
func (m *Model) Gen() int64 { return int64(len(m.examples)) }

// Ready reports whether the model has enough feedback to predict.
func (m *Model) Ready() bool { return len(m.examples) >= m.minTrain }

// NeedsRetrain reports whether the next Predict will grow a fresh forest —
// the committee-retrain event observability layers want to time without
// reaching into the lazy-training internals.
func (m *Model) NeedsRetrain() bool {
	return m.Ready() && (m.stale || m.forest == nil)
}

// Predict classifies a feature vector, retraining first if new examples
// arrived. ok is false while the model is not Ready; callers should treat
// such updates as maximally uncertain.
func (m *Model) Predict(cats []string, sim float64) (label Label, votes Votes, ok bool) {
	if !m.Ready() {
		return Confirm, Votes{}, false
	}
	if m.stale || m.forest == nil {
		m.retrains++
		m.train()
	}
	label, votes = m.forest.Predict(cats, sim)
	return label, votes, true
}

// train grows the forest for the current training set and retrain count.
// The seed varies across retrains (deterministically) so the committee is
// re-drawn as the training set evolves; because it is a pure function of
// (Config.Seed, len(examples), retrains), a model restored from a snapshot
// retrains to the byte-identical committee (see RestoreModel).
func (m *Model) train() {
	cfg := m.cfg
	cfg.Seed = cfg.Seed*31 + int64(len(m.examples)) + m.retrains
	m.forest = m.enc.train(cfg)
	m.stale = false
}
