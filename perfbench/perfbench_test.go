package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // reversed: percentile must sort
	}
	p95, err := percentile(xs, 0.95)
	if err != nil || p95 != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190 (10 samples beyond)", p95, err)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Fatal("p95 of 199 samples leaves 9 beyond it; want an error")
	}
	if p50, err := percentile([]float64{3, 1, 2}, 0.5); err != nil || p50 != 2 {
		t.Fatalf("median of 3 samples = %v, %v; want 2", p50, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("median of no samples: want an error")
	}
}

func TestMeasuredWindowExtendsToMinRounds(t *testing.T) {
	var d driveStats
	for i := 0; i < minRounds+5; i++ {
		d.samples = append(d.samples, sample{end: time.Duration(i+1) * time.Millisecond, round: true, roundMs: 1, items: 2})
	}
	m := d.measured(10 * time.Millisecond)
	if len(m.roundMs) != minRounds || m.span != minRounds*time.Millisecond || m.items != 2*minRounds {
		t.Fatalf("window to the %dth round: got %d rounds over %v, %d items", minRounds, len(m.roundMs), m.span, m.items)
	}
	m = d.measured(time.Second)
	if len(m.roundMs) != minRounds+5 || m.span != time.Second {
		t.Fatalf("deadline past every round: got %d rounds over %v", len(m.roundMs), m.span)
	}
}

// TestPoolRegeneratesReleasedInput: a released input comes back from its
// seed byte for byte, so the gate's replay sees what the drive uploaded.
func TestPoolRegeneratesReleasedInput(t *testing.T) {
	p := &pool{runSeed: 3, w: workload{rows: 300, topology: "gdrd"}}
	if err := p.fill(3); err != nil {
		t.Fatal(err)
	}
	first := p.ins[2]
	p.release(2)
	if p.ins[2] != nil {
		t.Fatal("release kept the input")
	}
	again, err := p.get(2)
	if err != nil {
		t.Fatal(err)
	}
	if again == first || again.k != 2 || again.seed != first.seed || again.csv != first.csv || again.rules != first.rules {
		t.Fatalf("regenerated input %d (seed %d) differs from the released one (seed %d)", again.k, again.seed, first.seed)
	}
}

func TestRollupSelfTime(t *testing.T) {
	ms := time.Millisecond
	// round [0,100) with children groups [10,30) and feedback [40,90);
	// feedback holds two overlapping stages [45,60) and [55,70) and one
	// that runs past its parent [85,95).
	spans := []span{
		{ID: 0, Parent: -1, Name: "unattributed", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "groups", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "feedback", Start: 40 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Name: "exec", Start: 45 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Name: "persist", Start: 55 * ms, End: 70 * ms},
		{ID: 5, Parent: 2, Name: "late", Start: 85 * ms, End: 95 * ms},
	}
	lt := newLayerTotals()
	lt.rollup(spans)
	want := map[string]float64{
		"unattributed": 0.030, // 100 − 20 − 50
		"groups":       0.020,
		"feedback":     0.020, // 50 − union(45..70 = 25, 85..90 = 5)
		"exec":         0.015,
		"persist":      0.015,
		"late":         0.010,
	}
	for name, w := range want {
		if got := lt.self[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, got, w)
		}
	}
	// With children inside their parents and not overlapping each other,
	// the layers partition the root.
	inside := newLayerTotals()
	inside.rollup(spans[:4])
	sum := 0.0
	for _, v := range inside.self {
		sum += v
	}
	if math.Abs(sum-0.100) > 1e-9 {
		t.Errorf("self times sum to %v, want the round's 0.1 s", sum)
	}
}

func TestMoveKeepsTotal(t *testing.T) {
	lt := newLayerTotals()
	lt.self["a"] = 1
	if got := lt.move("a", "b", 3); got != 1 || lt.self["a"] != 0 || lt.self["b"] != 1 {
		t.Fatalf("move more than the source holds: moved %v, a=%v b=%v", got, lt.self["a"], lt.self["b"])
	}
	if got := lt.move("b", "c", -1); got != 0 || lt.self["b"] != 1 {
		t.Fatalf("negative move: moved %v, b=%v", got, lt.self["b"])
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming(`admit;dur=0.012, queue;dur=1.5, exec;desc="x";dur=4, bogus, persist;dur=abc, queue;dur=0.5`)
	want := []stageDur{{"admit", 0.000012}, {"queue", 0.002}, {"exec", 0.004}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i].stage != want[i].stage || math.Abs(got[i].secs-want[i].secs) > 1e-12 {
			t.Errorf("stage %d = %v, want %v", i, got[i], want[i])
		}
	}
	if parseServerTiming("") != nil {
		t.Error("empty header: want no stages")
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# TYPE gdrd_stage_seconds histogram
gdrd_stage_seconds_bucket{stage="persist",route="feedback",le="0.005"} 1
gdrd_stage_seconds_sum{stage="persist",route="feedback"} 0.25
gdrd_stage_seconds_count{stage="persist",route="feedback"} 10
gdrproxy_replica_pushes_total 3
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`gdrd_stage_seconds_sum{route="feedback",stage="persist"} 1.75
gdrd_stage_seconds_count{stage="persist",route="feedback"} 40
gdrd_stage_seconds_sum{stage="fsync",route="feedback"} 0.5
gdrproxy_replica_pushes_total 10
`))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if got := d.stageSum("persist", "feedback"); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("persist sum delta = %v, want 1.5 (label order must not matter)", got)
	}
	if got := d.stageCount("persist", "feedback"); got != 30 {
		t.Errorf("persist count delta = %v, want 30", got)
	}
	if got := d.stageSum("fsync", "feedback"); got != 0.5 {
		t.Errorf("series new since the first scrape = %v, want 0.5", got)
	}
	if got := d.get("gdrproxy_replica_pushes_total"); got != 7 {
		t.Errorf("unlabelled counter delta = %v, want 7", got)
	}
	if _, err := parseProm(strings.NewReader("gdrd_x{stage=\"a\" 1\n")); err == nil {
		t.Error("unterminated labels: want an error")
	}
}

func TestSplitServedKeepsRoundTime(t *testing.T) {
	lt := newLayerTotals()
	add := func(name string, secs float64) {
		lt.self[name] += secs
		lt.calls[name]++
		lt.durs[name] = append(lt.durs[name], secs*1e3)
	}
	add("http.transport/feedback", 0.010)
	add("server.queue/feedback", 0.001)
	add("server.exec/feedback", 0.004)
	add("server.persist/feedback", 0.012)
	add("http.transport/groups", 0.001)
	add("server.exec/groups", 0.006)
	before := 0.0
	for _, v := range lt.self {
		before += v
	}
	d := promSample{}
	set := func(name string, v float64, labels ...string) {
		m := map[string]string{}
		for i := 0; i+1 < len(labels); i += 2 {
			m[labels[i]] = labels[i+1]
		}
		d[seriesKey(name, m)] = v
	}
	// The handler saw 8 ms more feedback work than Server-Timing showed:
	// 3 ms of exec and 5 ms of persist lost to the span cap.
	set("gdrd_feedback_seconds_sum", 0.001+0.007+0.017)
	set("gdrd_checkpoint_seconds_sum", 0.017)
	set("gdrd_stage_seconds_sum", 0.002, "stage", "suggest", "route", "feedback")
	set("gdrd_stage_seconds_sum", 0.005, "stage", "rerank", "route", "groups")
	set("gdrd_stage_seconds_sum", 0.009, "stage", "fsync", "route", "feedback")
	splitServed(lt, d, "http.transport")
	after := 0.0
	for name, v := range lt.self {
		if strings.Contains(name, "/") {
			t.Errorf("route suffix left on %s", name)
		}
		after += v
	}
	if math.Abs(after-before) > 1e-12 {
		t.Fatalf("split changed the total: %v → %v", before, after)
	}
	want := map[string]float64{
		"http.transport":       0.003, // 0.010 − 0.003 − 0.005 + 0.001
		"repair.suggest":       0.002,
		"core.feedback":        0.005, // exec 0.007 − suggest
		"core.groups":          0.005,
		"server.exec":          0.001, // groups exec − rerank
		"server.persist.fsync": 0.009,
		"server.persist":       0.008,
	}
	for name, w := range want {
		if got := lt.self[name]; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

// TestSmoke drives every workload briefly, untraced and traced, through
// the same code the benchmark runs, at engine-learn's 2000 rows. (At a few
// hundred rows some sessions end with dirty tuples that no update is
// suggested for, which the gate rejects.)
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real sessions")
	}
	for _, w := range workloads {
		w := w
		w.rows, w.minSessions, w.setupReps, w.poolPerSec = 2000, 2, 2, 1
		for _, traced := range []bool{false, true} {
			var out strings.Builder
			res, err := runWorkload(w, options{seed: 7, seconds: 1, trace: traced, workdir: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			var want []string
			for _, m := range endToEndMetrics {
				want = append(want, m.name)
			}
			if traced {
				want = want[:0]
				for _, m := range perLayer {
					want = append(want, m.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%t: missing %s", w.name, traced, name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if traced {
				sum := res.Metrics["unattributed.busy_s"].Value
				for _, n := range rollupLayers {
					sum += res.Metrics[n+".busy_s"].Value
				}
				if round := res.Metrics["round.busy_s"].Value; math.Abs(sum-round) > 1e-6*round {
					t.Errorf("%s: layers add up to %v s, rounds took %v s", w.name, sum, round)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workload), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workload[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, doc.Workload[i].Name, w.name)
		}
	}
}
