package learn

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomTrainingSet draws a training set with 1–20 categorical features of
// cardinality up to 40. Value strings are chosen so first-seen order and
// value-string order disagree ("v10" sorts before "v2"), and labels follow
// a couple of features plus the similarity, with noise, so trees grow deep
// enough to exercise categorical and numeric splits.
func randomTrainingSet(rng *rand.Rand) (exs []Example, card []int) {
	nCats := 1 + rng.Intn(20)
	card = make([]int, nCats)
	for f := range card {
		card[f] = 1 + rng.Intn(40)
	}
	n := 5 + rng.Intn(200)
	coarse := rng.Intn(2) == 0 // few distinct similarities: threshold ties
	for i := 0; i < n; i++ {
		cats := make([]string, nCats)
		codes := make([]int, nCats)
		for f := range cats {
			codes[f] = rng.Intn(card[f])
			cats[f] = fmt.Sprintf("v%d", codes[f])
		}
		sim := rng.Float64()
		if coarse {
			sim = float64(rng.Intn(5)) / 4
		}
		label := Label((codes[0] + codes[nCats/2]) % NumLabels)
		if sim > 0.8 {
			label = Confirm
		}
		if rng.Intn(8) == 0 {
			label = Label(rng.Intn(NumLabels))
		}
		exs = append(exs, Example{Cats: cats, Sim: sim, Label: label})
	}
	return exs, card
}

// identityQueries returns every training vector plus vectors mixing
// training values with values no example carries.
func identityQueries(rng *rand.Rand, exs []Example, card []int) []Example {
	qs := append([]Example(nil), exs...)
	for i := 0; i < 40; i++ {
		cats := make([]string, len(card))
		for f := range cats {
			switch rng.Intn(3) {
			case 0:
				cats[f] = fmt.Sprintf("unseen%d", rng.Intn(3))
			default:
				cats[f] = fmt.Sprintf("v%d", rng.Intn(card[f]))
			}
		}
		qs = append(qs, Example{Cats: cats, Sim: rng.Float64()})
	}
	return qs
}

func assertSameVotes(t *testing.T, what string, got *Forest, want *refForest, qs []Example) {
	t.Helper()
	for _, q := range qs {
		_, gv := got.Predict(q.Cats, q.Sim)
		if wv := want.Predict(q.Cats, q.Sim); gv != wv {
			t.Fatalf("%s: query %v sim %v: votes %v, string-keyed reference %v", what, q.Cats, q.Sim, gv, wv)
		}
	}
}

// TestForestIdentity pins the dense learner to the string-keyed forest it
// replaced (reference_test.go): on randomized training sets, Train must
// give the reference's votes exactly, for training and unseen queries, at
// any worker count.
func TestForestIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		exs, card := randomTrainingSet(rng)
		cfg := Config{K: 10, Seed: rng.Int63(), MinLeaf: 1 + rng.Intn(2), Unbalanced: rng.Intn(4) == 0}
		want := refTrain(exs, cfg)
		qs := identityQueries(rng, exs, card)
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			assertSameVotes(t, fmt.Sprintf("trial %d workers %d", trial, workers), Train(exs, cfg), want, qs)
		}
	}
}

// TestModelForestIdentity covers the model's incremental path: examples
// arrive one at a time with predictions in between, so dictionaries grow
// between retrains and are re-ranked piecemeal. Every committee must match
// the reference trained from scratch with the same derived seed, and so
// must the committee a restored model regrows.
func TestModelForestIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		exs, card := randomTrainingSet(rng)
		cfg := Config{K: 10, Seed: rng.Int63(), MinLeaf: 1 + rng.Intn(2), Workers: 1 + 3*rng.Intn(2)}
		m := NewModel(cfg, 3)
		qs := identityQueries(rng, exs, card)
		for i, ex := range exs {
			m.Add(ex)
			if rng.Intn(3) != 0 || !m.Ready() {
				continue
			}
			m.Predict(ex.Cats, ex.Sim)
			ref := cfg
			ref.Seed = cfg.Seed*31 + int64(m.Len()) + m.retrains
			assertSameVotes(t, fmt.Sprintf("trial %d after %d examples", trial, i+1), m.forest, refTrain(exs[:i+1], ref), qs)
		}
		if !m.Ready() {
			continue
		}
		m.Predict(qs[0].Cats, qs[0].Sim)
		restored, err := RestoreModel(m.State())
		if err != nil {
			t.Fatal(err)
		}
		ref := cfg
		ref.Seed = cfg.Seed*31 + int64(m.Len()) + m.retrains
		assertSameVotes(t, fmt.Sprintf("trial %d restored", trial), restored.forest, refTrain(exs, ref), qs)
	}
}
