package gdr_test

// Benchmarks regenerating every figure of the paper's evaluation section,
// plus ablation benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the hot substrates. Each figure bench runs the same
// harness the gdrbench CLI uses, at a reduced instance size so `go test
// -bench=.` completes in minutes; pass -benchtime=1x for a single
// regeneration. The CLI reproduces the paper-scale (n = 20000) tables.

import (
	"fmt"
	"io"
	"testing"

	"gdr"
	"gdr/internal/group"
)

// benchN is the per-iteration instance size for the figure benches.
const benchN = 2000

// benchWorkerCounts are the pool sizes every figure bench is run at; the
// workers=1 / workers=4 pair documents the parallel harness's speedup
// (figures are byte-identical across counts, so only time differs).
var benchWorkerCounts = []int{1, 4}

func benchConfig(workers int) gdr.FigureConfig {
	return gdr.FigureConfig{
		N:               benchN,
		Seed:            7,
		Workers:         workers,
		BudgetFractions: []float64{0.1, 0.3, 0.6, 1.0},
	}
}

func benchData(b *testing.B, id int) *gdr.Data {
	b.Helper()
	dc := gdr.DataConfig{N: benchN, Seed: 7}
	if id == 1 {
		return gdr.HospitalData(dc)
	}
	return gdr.CensusData(dc)
}

func benchFigure(b *testing.B, id int, f func(*gdr.Data, gdr.FigureConfig) (gdr.Figure, error)) {
	b.Helper()
	d := benchData(b, id)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchConfig(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fig, err := f(d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := fig.Render(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3Dataset1 regenerates Figure 3(a): VOI ranking vs Greedy vs
// Random on the hospital data.
func BenchmarkFigure3Dataset1(b *testing.B) { benchFigure(b, 1, gdr.Figure3) }

// BenchmarkFigure3Dataset2 regenerates Figure 3(b) on the census data.
func BenchmarkFigure3Dataset2(b *testing.B) { benchFigure(b, 2, gdr.Figure3) }

// BenchmarkFigure4Dataset1 regenerates Figure 4(a): GDR and its ablations vs
// the automatic heuristic on the hospital data.
func BenchmarkFigure4Dataset1(b *testing.B) { benchFigure(b, 1, gdr.Figure4) }

// BenchmarkFigure4Dataset2 regenerates Figure 4(b) on the census data.
func BenchmarkFigure4Dataset2(b *testing.B) { benchFigure(b, 2, gdr.Figure4) }

// BenchmarkFigure5Dataset1 regenerates Figure 5(a): precision/recall vs user
// effort on the hospital data.
func BenchmarkFigure5Dataset1(b *testing.B) { benchFigure(b, 1, gdr.Figure5) }

// BenchmarkFigure5Dataset2 regenerates Figure 5(b) on the census data.
func BenchmarkFigure5Dataset2(b *testing.B) { benchFigure(b, 2, gdr.Figure5) }

// runOnce executes one strategy run for ablation benches.
func runOnce(b *testing.B, d *gdr.Data, st gdr.Strategy, rc gdr.RunConfig) *gdr.Result {
	b.Helper()
	res, err := gdr.Run(st, d.Dirty, d.Truth, d.Rules, rc)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationForestK varies the committee size k (the paper fixes
// k = 10); the reported metric is the cost of a GDR run at each size.
func BenchmarkAblationForestK(b *testing.B) {
	d := benchData(b, 1)
	for _, k := range []int{1, 5, 10, 20} {
		b.Run(map[int]string{1: "k=1", 5: "k=5", 10: "k=10", 20: "k=20"}[k], func(b *testing.B) {
			var improvement float64
			for i := 0; i < b.N; i++ {
				rc := gdr.RunConfig{Budget: 200, Seed: 3, RecordEvery: 1 << 30}
				rc.Session.Forest.K = k
				improvement = runOnce(b, d, gdr.StrategyGDR, rc).FinalImprovement
			}
			b.ReportMetric(improvement, "improvement%")
		})
	}
}

// BenchmarkAblationGrouping compares the full framework (VOI groups +
// in-group active learning) against the ungrouped Active-Learning pool —
// the paper's Figure 4 argument for grouping.
func BenchmarkAblationGrouping(b *testing.B) {
	d := benchData(b, 1)
	for _, st := range []gdr.Strategy{gdr.StrategyGDR, gdr.StrategyActiveLearning} {
		b.Run(string(st), func(b *testing.B) {
			var improvement float64
			for i := 0; i < b.N; i++ {
				improvement = runOnce(b, d, st, gdr.RunConfig{Budget: 200, Seed: 3, RecordEvery: 1 << 30}).FinalImprovement
			}
			b.ReportMetric(improvement, "improvement%")
		})
	}
}

// BenchmarkAblationRanking compares the three group-ranking policies at a
// fixed budget (Figure 3's comparison as a bench).
func BenchmarkAblationRanking(b *testing.B) {
	d := benchData(b, 1)
	for _, st := range []gdr.Strategy{gdr.StrategyGDRNoLearning, gdr.StrategyGreedy, gdr.StrategyRandom} {
		b.Run(string(st), func(b *testing.B) {
			var improvement float64
			for i := 0; i < b.N; i++ {
				improvement = runOnce(b, d, st, gdr.RunConfig{Budget: 300, Seed: 3, RecordEvery: 1 << 30}).FinalImprovement
			}
			b.ReportMetric(improvement, "improvement%")
		})
	}
}

// BenchmarkAblationBatchSize varies ns, the number of labels per interactive
// round before the committee is retrained.
func BenchmarkAblationBatchSize(b *testing.B) {
	d := benchData(b, 1)
	for _, ns := range []int{1, 5, 10, 25} {
		b.Run(map[int]string{1: "ns=1", 5: "ns=5", 10: "ns=10", 25: "ns=25"}[ns], func(b *testing.B) {
			var improvement float64
			for i := 0; i < b.N; i++ {
				rc := gdr.RunConfig{Budget: 200, Seed: 3, RecordEvery: 1 << 30}
				rc.Session.BatchSize = ns
				improvement = runOnce(b, d, gdr.StrategyGDR, rc).FinalImprovement
			}
			b.ReportMetric(improvement, "improvement%")
		})
	}
}

// BenchmarkSessionBootstrap measures building a session over a dirty
// instance: violation indexes plus the initial update-generation pass.
func BenchmarkSessionBootstrap(b *testing.B) {
	d := benchData(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := gdr.NewSession(d.Dirty.Clone(), d.Rules, gdr.SessionConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if sess.PendingCount() == 0 {
			b.Fatal("no updates")
		}
	}
}

// groupsBenchSession builds a session over the 2000-row hospital workload
// and performs one cold VOI ranking, leaving every cache warm.
func groupsBenchSession(b *testing.B, workers int) *gdr.Session {
	b.Helper()
	d := benchData(b, 1)
	sess, err := gdr.NewSession(d.Dirty.Clone(), d.Rules, gdr.SessionConfig{Seed: 1, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	if len(sess.Groups(gdr.OrderVOI, nil)) == 0 {
		b.Fatal("no groups")
	}
	return sess
}

// BenchmarkGroupsWarm measures the steady-state poll: Groups(OrderVOI) with
// no intervening feedback. The incremental group index answers it from the
// cached ranking — this is the per-request cost every /groups poll pays at
// the serving tier between feedback rounds.
func BenchmarkGroupsWarm(b *testing.B) {
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sess := groupsBenchSession(b, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(sess.Groups(gdr.OrderVOI, nil)) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

// BenchmarkGroupsRebuild measures the same steady-state poll through the
// rebuild-from-scratch path the index replaced (partition the flat pending
// list, re-score every group, full sort) — the before side of the
// BENCH_5.json comparison, kept runnable because the lockstep equivalence
// tests define correctness against it.
func BenchmarkGroupsRebuild(b *testing.B) {
	sess := groupsBenchSession(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs := group.Partition(sess.PendingUpdates())
		sess.Ranker().Rank(gs, sess.Prob)
		if len(gs) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkFeedbackRound measures one whole interactive cycle — rank the
// groups, answer a batch of ns=10 updates from the top group through the
// consistency manager (learner in the loop), re-rank — the unit of work a
// serving-tier feedback round performs.
func BenchmarkFeedbackRound(b *testing.B) {
	d := benchData(b, 1)
	newSess := func() *gdr.Session {
		sess, err := gdr.NewSession(d.Dirty.Clone(), d.Rules, gdr.SessionConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}
	sess := newSess()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs := sess.Groups(gdr.OrderVOI, nil)
		if len(gs) == 0 {
			b.StopTimer()
			sess = newSess()
			b.StartTimer()
			gs = sess.Groups(gdr.OrderVOI, nil)
		}
		batch := gs[0].Updates
		if len(batch) > 10 {
			batch = batch[:10]
		}
		for _, u := range batch {
			cur, ok := sess.Pending(u.Cell())
			if !ok || cur != u {
				continue
			}
			switch tv := d.Truth.Get(u.Tid, u.Attr); {
			case u.Value == tv:
				sess.UserFeedback(u, gdr.Confirm)
			case sess.DB().Get(u.Tid, u.Attr) == tv:
				sess.UserFeedback(u, gdr.Retain)
			default:
				sess.UserFeedback(u, gdr.Reject)
			}
		}
	}
}

// BenchmarkNoLearnRound measures the engine half of a no-learn serving
// round at paper scale (20000 hospital rows): rank the groups by VOI, then
// answer the whole top group through ApplyFeedback, the learner left out.
// That re-rank is dominated by Eq. 6 what-if scoring.
func BenchmarkNoLearnRound(b *testing.B) {
	d := gdr.HospitalData(gdr.DataConfig{N: 20000, Seed: 7})
	newSess := func() *gdr.Session {
		sess, err := gdr.NewSession(d.Dirty.Clone(), d.Rules, gdr.SessionConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}
	sess := newSess()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs := sess.Groups(gdr.OrderVOI, nil)
		if len(gs) == 0 {
			b.StopTimer()
			sess = newSess()
			b.StartTimer()
			gs = sess.Groups(gdr.OrderVOI, nil)
		}
		for _, u := range gs[0].Updates {
			cur, ok := sess.Pending(u.Cell())
			if !ok || cur != u {
				continue
			}
			switch tv := d.Truth.Get(u.Tid, u.Attr); {
			case u.Value == tv:
				sess.ApplyFeedback(u, gdr.Confirm)
			case sess.DB().Get(u.Tid, u.Attr) == tv:
				sess.ApplyFeedback(u, gdr.Retain)
			default:
				sess.ApplyFeedback(u, gdr.Reject)
			}
		}
	}
}

// BenchmarkDiscovery measures constant-CFD mining at 5% support.
func BenchmarkDiscovery(b *testing.B) {
	d := benchData(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rules := gdr.DiscoverRules(d.Dirty, 0.05); len(rules) == 0 {
			b.Fatal("no rules")
		}
	}
}

// BenchmarkHeuristicRepair measures the fully automatic baseline end to end.
func BenchmarkHeuristicRepair(b *testing.B) {
	d := benchData(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, d, gdr.StrategyHeuristic, gdr.RunConfig{RecordEvery: 1 << 30})
	}
}

// BenchmarkAblationBalancedBootstrap compares class-balanced vs plain
// bootstrap sampling in the committee (DESIGN.md substitution 8).
func BenchmarkAblationBalancedBootstrap(b *testing.B) {
	d := benchData(b, 1)
	for _, unbalanced := range []bool{false, true} {
		name := "balanced"
		if unbalanced {
			name = "unbalanced"
		}
		b.Run(name, func(b *testing.B) {
			var improvement float64
			for i := 0; i < b.N; i++ {
				rc := gdr.RunConfig{Budget: 200, Seed: 3, RecordEvery: 1 << 30}
				rc.Session.Forest.Unbalanced = unbalanced
				improvement = runOnce(b, d, gdr.StrategyGDR, rc).FinalImprovement
			}
			b.ReportMetric(improvement, "improvement%")
		})
	}
}

// BenchmarkAblationDelegationGate varies the committee-confidence gate for
// learner confirms (DESIGN.md substitution 7b).
func BenchmarkAblationDelegationGate(b *testing.B) {
	d := benchData(b, 1)
	for _, gate := range []float64{0.51, 0.55, 0.7, 0.9} {
		b.Run(map[float64]string{0.51: "gate=0.51", 0.55: "gate=0.55", 0.7: "gate=0.70", 0.9: "gate=0.90"}[gate], func(b *testing.B) {
			var improvement float64
			for i := 0; i < b.N; i++ {
				rc := gdr.RunConfig{Budget: 200, Seed: 3, RecordEvery: 1 << 30}
				rc.Session.MinDelegate = gate
				improvement = runOnce(b, d, gdr.StrategyGDR, rc).FinalImprovement
			}
			b.ReportMetric(improvement, "improvement%")
		})
	}
}
