package core

import (
	"testing"

	"gdr/internal/dataset"
	"gdr/internal/learn"
	"gdr/internal/repair"
)

func TestModelAccuracyTracking(t *testing.T) {
	s := figure1Session(t)
	u := repair.Update{Tid: 1, Attr: "CT", Value: "Michigan City", Score: 0.5}

	// No assessed predictions yet: not trusted, no accuracy.
	if _, ok := s.ModelAccuracy("CT"); ok {
		t.Fatal("accuracy reported without assessed predictions")
	}
	if s.Trusted("CT") {
		t.Fatal("untrained model trusted")
	}

	// Feed consistent confirms; after minTrain the model predicts, and the
	// subsequent feedback matches its prediction, building a track record.
	for i := 0; i < 15; i++ {
		s.UserFeedback(u, repair.Confirm) // idempotent apply; still learns
	}
	acc, ok := s.ModelAccuracy("CT")
	if !ok {
		t.Fatal("accuracy should be available after 15 checked predictions")
	}
	if acc < 0.9 {
		t.Fatalf("accuracy on a constant pattern = %v", acc)
	}
	if !s.Trusted("CT") {
		t.Fatal("model with perfect track record not trusted")
	}
}

func TestLearnerDecisionSemantics(t *testing.T) {
	s := figure1Session(t)
	u, ok := s.Pending(repair.CellKey{Tid: 2, Attr: "CT"})
	if !ok {
		t.Fatal("no pending update for t2.CT")
	}
	// Non-confirm decisions are advisory: nothing changes.
	if s.LearnerDecision(u, repair.Reject) {
		t.Fatal("reject decision should not act")
	}
	if s.Generator().IsPrevented(2, "CT", u.Value) {
		t.Fatal("learner reject must not prevent the value")
	}
	if s.LearnerDecision(u, repair.Retain) {
		t.Fatal("retain decision should not act")
	}
	if s.Generator().Locked(2, "CT") {
		t.Fatal("learner retain must not lock the cell")
	}
	if _, still := s.Pending(u.Cell()); !still {
		t.Fatal("advisory decisions must leave the suggestion pending")
	}
	// Confirm applies like a user confirm.
	if !s.LearnerDecision(u, repair.Confirm) {
		t.Fatal("confirm decision should act")
	}
	if got := s.DB().Get(2, "CT"); got != u.Value {
		t.Fatalf("value not applied: %q", got)
	}
	if !s.Generator().Locked(2, "CT") {
		t.Fatal("learner confirm locks the cell")
	}
}

// TestPredictStableUntilRetrain pins what p̃j depends on: the committee's
// training set and the tuple. Repeated predictions with no new example are
// identical and regrow nothing, and the first prediction after an Add
// regrows the committee exactly once. Retrains seeds the committee and is
// serialized, so this cadence is what keeps snapshot bytes stable.
func TestPredictStableUntilRetrain(t *testing.T) {
	s := figure1Session(t)
	u := repair.Update{Tid: 3, Attr: "CT", Value: "Michigan City", Score: 0.5}
	// Train enough to predict.
	for _, tid := range []int{1, 2} {
		s.LearnFrom(repair.Update{Tid: tid, Attr: "CT", Value: "Michigan City", Score: 0.5}, repair.Confirm)
	}
	s.LearnFrom(repair.Update{Tid: 6, Attr: "CT", Value: "New Haven", Score: 0.5}, repair.Confirm)
	retrains := func() int64 { return s.ModelFor("CT").State().Retrains }

	l1, v1, ok1 := s.Predict(u)
	before := retrains()
	l2, v2, ok2 := s.Predict(u)
	if l1 != l2 || v1 != v2 || ok1 != ok2 {
		t.Fatalf("repeated prediction differs: %v/%v vs %v/%v", l1, v1, l2, v2)
	}
	for i := 0; i < 3; i++ {
		s.Predict(u)
		s.Prob(u)
	}
	if got := retrains(); got != before {
		t.Fatalf("predictions with no new example retrained: %d -> %d", before, got)
	}
	// A new example makes the next prediction regrow the committee (it may
	// now differ, but must be computed without error and stay in range),
	// exactly once.
	s.LearnFrom(repair.Update{Tid: 3, Attr: "CT", Value: "Michigan City", Score: 0.5}, repair.Reject)
	l3, v3, ok3 := s.Predict(u)
	if !ok3 || l3 < 0 || l3 >= learn.NumLabels {
		t.Fatalf("post-retrain prediction: %v %v %v", l3, v3, ok3)
	}
	s.Predict(u)
	if got := retrains(); got != before+1 {
		t.Fatalf("one Add then two predictions: retrains %d -> %d, want +1", before, got)
	}
	// Changing the tuple (via a confirm on another attribute) changes the
	// features, since they include the whole tuple.
	s.ApplyFeedback(repair.Update{Tid: 3, Attr: "STT", Value: "IN", Score: 1}, repair.Retain)
	s.ApplyFeedback(repair.Update{Tid: 3, Attr: "SRC", Value: "H9", Score: 1}, repair.Confirm)
	if _, _, ok := s.Predict(u); !ok {
		t.Fatal("prediction should still work after tuple change")
	}
}

func TestGDRSLearningDiffersFromGDR(t *testing.T) {
	d := dataset.Hospital(dataset.Config{N: 900, Seed: 5})
	gdrRes, err := Run(StrategyGDR, d.Dirty, d.Truth, d.Rules, RunConfig{Budget: 120, Seed: 4, RecordEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	sRes, err := Run(StrategyGDRSLearning, d.Dirty, d.Truth, d.Rules, RunConfig{Budget: 120, Seed: 4, RecordEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Both must run; the selection policies genuinely differ, so the exact
	// feedback sequences (and almost surely the outcomes) diverge.
	if gdrRes.Verified == 0 || sRes.Verified == 0 {
		t.Fatal("runs consumed no feedback")
	}
	if gdrRes.FinalImprovement == sRes.FinalImprovement &&
		gdrRes.Applied == sRes.Applied &&
		gdrRes.LearnerDecisions == sRes.LearnerDecisions {
		t.Fatal("GDR and GDR-S-Learning produced identical runs; selection policy not applied")
	}
}

func TestActiveLearningUsesNoGroups(t *testing.T) {
	d := dataset.Hospital(dataset.Config{N: 600, Seed: 6})
	res, err := Run(StrategyActiveLearning, d.Dirty, d.Truth, d.Rules, RunConfig{Budget: 60, Seed: 4, RecordEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified == 0 {
		t.Fatal("no feedback consumed")
	}
	if res.Verified > 60 {
		t.Fatalf("budget exceeded: %d", res.Verified)
	}
}

func TestRunUnlimitedBudgetTerminates(t *testing.T) {
	d := dataset.Hospital(dataset.Config{N: 400, Seed: 8})
	res, err := Run(StrategyGDR, d.Dirty, d.Truth, d.Rules, RunConfig{Seed: 2, RecordEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalImprovement < 80 {
		t.Fatalf("unlimited GDR improvement = %.1f", res.FinalImprovement)
	}
}

func TestHeuristicSinglePassIsConstant(t *testing.T) {
	d := dataset.Hospital(dataset.Config{N: 500, Seed: 9})
	a, err := Run(StrategyHeuristic, d.Dirty, d.Truth, d.Rules, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(StrategyHeuristic, d.Dirty, d.Truth, d.Rules, RunConfig{Budget: 999})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalImprovement != b.FinalImprovement {
		t.Fatalf("heuristic not budget-independent: %v vs %v", a.FinalImprovement, b.FinalImprovement)
	}
}
