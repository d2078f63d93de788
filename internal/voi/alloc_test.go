package voi_test

import (
	"runtime"
	"testing"

	"gdr/internal/par"
	"gdr/internal/repair"
	"gdr/internal/voi"
)

// TestScorePathZeroAlloc pins RawBenefit — the inner loop of every group
// re-ranking between feedback rounds — to zero allocations per call, from
// the first call on a fresh ranker on: scoring keeps no state to warm up.
// The CI alloc-guard step runs this test so per-call buffers or string churn
// can't silently creep back into it.
func TestScorePathZeroAlloc(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	eng, gs := benchSetup(t, 2000)
	var ups []repair.Update
	for _, g := range gs {
		ups = append(ups, g.Updates...)
	}
	if len(ups) == 0 {
		t.Fatal("no updates to score")
	}
	// testing.AllocsPerRun discards a warm-up call; count every call here,
	// the very first one on a fresh ranker included.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := voi.NewRanker(eng)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range ups {
		r.RawBenefit(u)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 0 {
		t.Fatalf("scoring %d updates on a fresh ranker allocated %d times, want 0", len(ups), n)
	}
}
