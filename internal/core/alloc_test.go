package core

import (
	"testing"

	"gdr/internal/dataset"
	"gdr/internal/par"
	"gdr/internal/repair"
)

// TestWarmGroupsSteadyStateAllocs pins the steady-state poll — a VOI
// Groups call with no intervening feedback — to a small constant allocation
// budget. The incremental group index answers such a poll from its cached
// ranking (one output-slice copy plus closure headers); a regression to the
// per-call partition-rebuild path allocates proportionally to the pending
// list and fails this ceiling immediately. The CI alloc-guard step runs
// this test alongside the voi warm-score guard.
func TestWarmGroupsSteadyStateAllocs(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	d := dataset.Hospital(dataset.Config{N: 2000, Seed: 7, DirtyRate: 0.3})
	s, err := NewSession(d.Dirty.Clone(), d.Rules, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Groups(OrderVOI, nil)) == 0 { // cold rank fills the index caches
		t.Fatal("no groups to rank")
	}
	const ceiling = 8
	allocs := testing.AllocsPerRun(100, func() {
		s.Groups(OrderVOI, nil)
	})
	if allocs > ceiling {
		t.Fatalf("warm Groups(OrderVOI) allocates %.1f times per call, want <= %d", allocs, ceiling)
	}
}

// TestUntrainedPredictZeroAlloc pins the no-learn scoring path: while an
// attribute's committee is below MinTrain, p̃j is the update's repair score,
// so once the model exists Prob and Predict must answer without building
// the feature vector or anything else that allocates. Every call asks about
// a different update, so nothing learned from an earlier call can help.
func TestUntrainedPredictZeroAlloc(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	d := dataset.Hospital(dataset.Config{N: 2000, Seed: 7, DirtyRate: 0.3})
	s, err := NewSession(d.Dirty.Clone(), d.Rules, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ups := s.PendingUpdates()
	const runs = 200
	if len(ups) < 2*(runs+1) {
		t.Fatalf("%d pending updates, need %d", len(ups), 2*(runs+1))
	}
	s.LearnFrom(ups[0], repair.Confirm) // one example, below MinTrain
	for _, attr := range s.DB().Schema.Attrs {
		if s.ModelFor(attr).Ready() {
			t.Fatalf("committee on %s unexpectedly ready", attr)
		}
	}
	next := 0
	probe := func() repair.Update { next++; return ups[next-1] }
	if allocs := testing.AllocsPerRun(runs, func() {
		if u := probe(); s.Prob(u) != u.Score {
			t.Fatalf("untrained Prob(%v) is not the repair score", u)
		}
	}); allocs != 0 {
		t.Fatalf("untrained Prob allocates %.2f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(runs, func() { s.Predict(probe()) }); allocs != 0 {
		t.Fatalf("untrained Predict allocates %.2f times per call, want 0", allocs)
	}
}
