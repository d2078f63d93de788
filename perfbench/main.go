// Command perfbench is the repository's benchmark. It drives guided-repair
// sessions through one of three topologies — the core library in-process,
// one durable gdrd, or a gdrproxy in front of two replicating gdrd nodes —
// with closed-loop simulated analysts, checks every session against a
// serial library replay, and prints every end-to-end metric (or, with
// -trace 1, every per-layer metric) by name, unit and sample count,
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the checkout root, which builds it first:
//
//	bash perfbench/run.sh --workload gdrd-durable --seed 1 --seconds 18 --trace 0
//
// -workload all runs every workload in turn. METHOD.md explains the
// workloads, the metrics and the layer rollup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gdr/internal/core"
)

// minRounds is the fewest full rounds a run may report: a p95 needs ten
// samples beyond it. A run that has not reached it by its deadline keeps
// driving new sessions until it has.
const minRounds = 200

// workload is one traffic mix. METHOD.md records why each was chosen.
type workload struct {
	name     string
	rows     int  // hospital tuples per session
	learn    bool // answers train the committees (UserFeedback)
	topology string
	// poolPerSec is how many inputs set-up generates per second of run, so
	// that input generation stays out of the measured drive.
	poolPerSec float64
	// minSessions is how many sessions every run drives, whatever its
	// speed; quality and effort are averaged over exactly these, so they
	// depend on the seed alone.
	minSessions int
	// setupReps is how many session creations set-up times per window.
	setupReps int
}

var workloads = []workload{
	{name: "engine-learn", rows: 2000, learn: true, topology: "library", poolPerSec: 2, minSessions: 16, setupReps: 25},
	{name: "gdrd-durable", rows: 20000, topology: "gdrd", poolPerSec: 0.7, minSessions: 12, setupReps: 9},
	{name: "proxy-replicated", rows: 20000, topology: "proxy", poolPerSec: 0.7, minSessions: 12, setupReps: 9},
}

// proxyNodes is the node count of the proxy-replicated topology.
const proxyNodes = 2

type options struct {
	seed    int64
	seconds int
	trace   bool
	workdir string
}

func main() {
	var name string
	var opts options
	var traceN int
	flag.StringVar(&name, "workload", "", "engine-learn | gdrd-durable | proxy-replicated | all")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed; session k uses seed·1000+k+1")
	flag.IntVar(&opts.seconds, "seconds", 18, "measured drive length (at least 200 rounds are driven regardless)")
	flag.IntVar(&traceN, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&opts.workdir, "workdir", ".bench_build", "directory for data dirs and span files")
	flag.Parse()
	opts.trace = traceN == 1
	if opts.seconds < 1 || (traceN != 0 && traceN != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var run []workload
	for _, w := range workloads {
		if name == "all" || name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		os.Exit(2)
	}
	ok := true
	for _, w := range run {
		res, err := runWorkload(w, opts, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driveStats is what one client measured. Each client owns its own; they
// are merged when the window ends.
type driveStats struct {
	epoch     time.Time // window start
	samples   []sample  // one per groups read, in completion order
	items     int       // user answers applied, drain included
	ops       int       // operations attempted (HTTP attempts, or library calls)
	failed    int       // failed attempts
	retries   int
	sheds     int // 429/503 answers
	groups304 int
	stale     int // answers the session no longer had pending
	truncated int // traced responses whose Server-Timing lost exec
}

// sample is one round (groups → updates → feedback) or, with round false,
// a session's final groups read that found nothing left to repair.
type sample struct {
	end        time.Duration // since the window started
	round      bool
	roundMs    float64
	feedbackMs float64
	groupsMs   float64
	items      int
}

func (d *driveStats) add(s sample) {
	s.end = time.Since(d.epoch)
	d.samples = append(d.samples, s)
}

// fullRounds counts the rounds driven, timed or not.
func (d *driveStats) fullRounds() int {
	n := 0
	for _, s := range d.samples {
		if s.round {
			n++
		}
	}
	return n
}

func (d *driveStats) merge(o *driveStats) {
	d.samples = append(d.samples, o.samples...)
	d.items += o.items
	d.ops += o.ops
	d.failed += o.failed
	d.retries += o.retries
	d.sheds += o.sheds
	d.groups304 += o.groups304
	d.stale += o.stale
	d.truncated += o.truncated
}

// measured is the part of a window the timing metrics describe: every
// round that completed by the deadline, or by the minRounds-th round if
// that came later. Sessions still open then are driven to their end and
// verified, but their later rounds run with fewer analysts than the
// workload prescribes, so they are not timed.
type measured struct {
	span                       time.Duration
	roundMs, feedbackMs, grpMs []float64
	items                      int
}

func (d *driveStats) measured(deadline time.Duration) measured {
	sort.Slice(d.samples, func(i, j int) bool { return d.samples[i].end < d.samples[j].end })
	end, n := deadline, 0
	for _, s := range d.samples {
		if s.round {
			if n++; n == minRounds {
				end = max(end, s.end)
			}
		}
	}
	m := measured{span: end}
	for _, s := range d.samples {
		if s.end > end {
			break
		}
		m.grpMs = append(m.grpMs, s.groupsMs)
		if s.round {
			m.roundMs = append(m.roundMs, s.roundMs)
			m.feedbackMs = append(m.feedbackMs, s.feedbackMs)
			m.items += s.items
		}
	}
	return m
}

// window is one measured drive.
type window struct {
	st          driveStats
	m           measured
	setupS      []float64 // uncontended session creations, s
	outcomes    []outcome
	errs        []error
	drive       time.Duration
	cpu         time.Duration
	peakHeap    uint64
	heapSamples int
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	recs        []*recorder
	nodes       promSample // gdrd /metrics delta, summed over nodes
	proxy       promSample // gdrproxy /metrics delta
	upstream    *upstreamTimer
	perNode     map[string]int // sessions each node owned
	steal       float64        // share of the host's CPU time stolen by the hypervisor
	missed      int            // suggestions the sessions ended without being offered
}

// dirtyLeft is the number of dirty tuples the window's sessions ended with.
func (w *window) dirtyLeft() int {
	n := 0
	for _, o := range w.outcomes {
		n += o.dirty
	}
	return n
}

// pool hands out session inputs by index. Set-up generates the expected
// number; a run that outlasts them generates more on demand. A driven
// session's input is released, so the heap the drive peaks at holds the
// same inputs whatever the run's speed; the gate's replay regenerates it.
type pool struct {
	runSeed int64
	w       workload
	mu      sync.Mutex
	ins     []*input // nil once released
}

func (p *pool) get(k int) (*input, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.ins) <= k {
		p.ins = append(p.ins, nil)
	}
	if p.ins[k] == nil {
		in, err := newInput(p.runSeed, k, p.w.rows, p.w.topology != "library")
		if err != nil {
			return nil, err
		}
		p.ins[k] = in
	}
	return p.ins[k], nil
}

// fill generates inputs 0..n-1, those released by an earlier window too.
func (p *pool) fill(n int) error {
	for k := 0; k < n; k++ {
		if _, err := p.get(k); err != nil {
			return err
		}
	}
	return nil
}

func (p *pool) release(k int) {
	p.mu.Lock()
	p.ins[k] = nil
	p.mu.Unlock()
}

// runWorkload measures one workload and checks it. Untraced, it reports
// the end-to-end metrics of one window. Traced, it measures an untraced
// window and then a traced one over the same seeds, and reports the
// per-layer metrics of the traced window plus the tracing overhead.
func runWorkload(w workload, opts options, out io.Writer) (*result, error) {
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return nil, err
	}
	dataRoot, err := os.MkdirTemp(opts.workdir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	host := hostInfo(dataRoot)
	fmt.Fprintf(out, "# perfbench %s seed=%d seconds=%d trace=%t %s\n", w.name, opts.seed, opts.seconds, opts.trace, host)

	p := &pool{runSeed: opts.seed, w: w}
	first, err := measure(w, opts, p, filepath.Join(dataRoot, "w0"), false)
	if err != nil {
		return nil, err
	}
	wins := []*window{first}
	if opts.trace {
		traced, err := measure(w, opts, p, filepath.Join(dataRoot, "w1"), true)
		if err != nil {
			return nil, err
		}
		wins = append(wins, traced)
		path := filepath.Join(opts.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, opts.seed))
		if err := writeSpans(path, traced.recs); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", path)
	}

	gateErrs, quality, effort := verify(w, p, wins)
	res := &result{Correct: len(gateErrs) == 0, Metrics: map[string]metric{}}
	for _, win := range wins {
		res.Attempted += win.st.ops
		res.Failed += win.st.failed
	}
	for _, e := range gateErrs {
		fmt.Fprintf(out, "# CORRECTNESS GATE FAILED: %v\n", e)
	}
	if opts.trace {
		layerMetrics(res, w, wins[0], wins[1], out)
	} else {
		if err := endToEnd(res, first, quality, effort, out, w.minSessions); err != nil {
			return nil, err
		}
	}
	reportPlacement(out, wins[len(wins)-1])
	return res, nil
}

// measure drives one window: set-up first generates the window's inputs
// (untimed), then creates w.setupReps sessions one at a time with nothing else running (setup_s; the sessions are then
// discarded), then the clients pull session inputs from the shared pool in
// index order and drive each session to its end. No client starts a
// session once the deadline has passed, minRounds rounds are done and the
// workload's first minSessions sessions have been started.
func measure(w workload, opts options, p *pool, dir string, traced bool) (*window, error) {
	if err := p.fill(max(int(math.Ceil(w.poolPerSec*float64(opts.seconds))), w.setupReps)); err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	win := &window{perNode: map[string]int{}}
	var r *rig
	var err error
	switch w.topology {
	case "gdrd":
		r, err = startGdrd(dir, nproc)
	case "proxy":
		r, err = startProxied(dir, proxyNodes, nproc, traced)
	}
	if err != nil {
		return nil, err
	}
	if r != nil {
		defer r.close()
	}
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer hc.CloseIdleConnections()
	newClient := func(st *driveStats, rec *recorder) *client {
		c := &client{hc: hc, base: r.url, st: st, rec: rec, hop: "http.transport"}
		if w.topology == "proxy" {
			c.hop = "cluster.hop"
		}
		return c
	}

	var setupSt driveStats
	for k := 0; k < w.setupReps; k++ {
		in, err := p.get(k)
		if err != nil {
			return nil, err
		}
		if w.topology == "library" {
			db := in.data.Dirty.Clone()
			start := time.Now()
			if _, err := core.NewSession(db, in.data.Rules, core.Config{Seed: in.seed, Workers: nproc}); err != nil {
				return nil, err
			}
			win.setupS = append(win.setupS, time.Since(start).Seconds())
			setupSt.ops++
			continue
		}
		c := newClient(&setupSt, nil)
		start := time.Now()
		created, err := c.create(in)
		if err != nil {
			return nil, err
		}
		win.setupS = append(win.setupS, time.Since(start).Seconds())
		if _, _, err := c.call(-1, "delete", http.MethodDelete, "/v1/sessions/"+created.Session.ID, nil, nil, http.StatusOK); err != nil {
			return nil, err
		}
	}

	var nodesBefore, proxyBefore promSample
	if r != nil {
		if nodesBefore, err = scrape(hc, r.scrape); err != nil {
			return nil, err
		}
		if r.proxy != nil {
			if proxyBefore, err = scrape(hc, []string{r.url}); err != nil {
				return nil, err
			}
		}
	}

	clients := nproc // one analyst per core
	if w.topology == "library" {
		clients = 1 // one session at a time, using every core
	}
	var next, rounds atomic.Int64
	deadline := time.Duration(opts.seconds) * time.Second
	stats := make([]driveStats, clients)
	outs := make([][]outcome, clients)
	errs := make([]error, clients)
	win.recs = make([]*recorder, clients)

	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	stopHeap := make(chan struct{})
	heapDone := make(chan [2]uint64)
	go sampleHeap(stopHeap, heapDone)
	cpuBefore, stealBefore := cpuTime(), hostSteal()
	start := time.Now()
	more := func() bool {
		return time.Since(start) < deadline || rounds.Load() < minRounds || next.Load() < int64(w.minSessions)
	}
	var wg sync.WaitGroup
	for d := 0; d < clients; d++ {
		stats[d].epoch = start
		if traced {
			win.recs[d] = newRecorder(start)
		}
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			st := &stats[d]
			for more() {
				k := int(next.Add(1) - 1)
				in, err := p.get(k)
				if err != nil {
					errs[d] = err
					return
				}
				before := len(st.samples)
				var o outcome
				if w.topology == "library" {
					o, err = runLibrarySession(in, w, nproc, st, win.recs[d])
				} else {
					c := newClient(st, win.recs[d])
					c.round = int64(k) << 20
					o, err = c.runSession(in, r)
				}
				if err != nil {
					errs[d] = err
					return
				}
				rounds.Add(int64(len(st.samples) - before - 1)) // all but the final poll
				outs[d] = append(outs[d], o)
				p.release(k)
			}
		}(d)
	}
	wg.Wait()
	win.drive = time.Since(start)
	win.cpu = cpuTime() - cpuBefore
	win.steal = hostSteal().share(stealBefore)
	close(stopHeap)
	peak := <-heapDone
	win.peakHeap, win.heapSamples = peak[0], int(peak[1])
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	win.allocBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	win.gcCycles = msAfter.NumGC - msBefore.NumGC
	win.gcPause = time.Duration(msAfter.PauseTotalNs - msBefore.PauseTotalNs)

	win.st.merge(&setupSt)
	for d := range stats {
		win.st.merge(&stats[d])
		win.outcomes = append(win.outcomes, outs[d]...)
		if errs[d] != nil {
			win.errs = append(win.errs, errs[d])
		}
	}
	win.m = win.st.measured(deadline)
	sort.Slice(win.outcomes, func(i, j int) bool { return win.outcomes[i].k < win.outcomes[j].k })
	for _, o := range win.outcomes {
		if o.owner != "" {
			win.perNode[o.owner]++
		}
	}
	if r != nil {
		after, err := scrape(hc, r.scrape)
		if err != nil {
			return nil, err
		}
		win.nodes = delta(nodesBefore, after)
		if r.proxy != nil {
			pa, err := scrape(hc, []string{r.url})
			if err != nil {
				return nil, err
			}
			win.proxy = delta(proxyBefore, pa)
		}
		win.upstream = r.upstream
	}
	return win, nil
}

// runLibrarySession is one engine-learn session: a fresh copy of the
// generated instance (input preparation, not timed), NewSession and the
// Procedure-1 drive with the learner on.
func runLibrarySession(in *input, w workload, workers int, st *driveStats, rec *recorder) (outcome, error) {
	db := in.data.Dirty.Clone()
	sess, err := core.NewSession(db, in.data.Rules, core.Config{Seed: in.seed, Workers: workers})
	if err != nil {
		return outcome{}, err
	}
	st.ops++
	t := &libTimer{st: st, rec: rec, round: int64(in.k) << 20, cur: -1}
	if rec != nil {
		sess.SetPhaseHook(t.phaseHook)
	}
	o, err := driveLibrary(sess, in.data.Truth, w.learn, nil, t)
	o.k, o.seed = in.k, in.seed
	return o, err
}

// verify is the correctness gate: every session must have ended with
// nothing pending, equal its serial library replay (rounds, trajectory,
// answers, dirty tuples left and the exported CSV byte for byte). It
// returns every violation, plus the mean quality and effort over the
// workload's first minSessions sessions, both of which come from the
// replays and so are the deterministic values of the seeds. It also sets
// each window's count of missed suggestions (see missedSuggestions).
func verify(w workload, p *pool, wins []*window) (errs []error, quality, effort float64) {
	for _, win := range wins {
		errs = append(errs, win.errs...)
	}
	need := map[int]bool{}
	for _, win := range wins {
		for _, o := range win.outcomes {
			need[o.k] = true
		}
	}
	ks := make([]int, 0, len(need))
	for k := range need {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	refs := make(map[int]outcome, len(ks))
	refErrs := make(map[int]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				in, err := p.get(k)
				var ref outcome
				if err == nil {
					ref, err = replay(in, w.learn)
					p.release(k)
				}
				mu.Lock()
				refs[k], refErrs[k] = ref, err
				mu.Unlock()
			}
		}()
	}
	for _, k := range ks {
		work <- k
	}
	close(work)
	wg.Wait()
	for _, win := range wins {
		for _, o := range win.outcomes {
			if err := refErrs[o.k]; err != nil {
				errs = append(errs, fmt.Errorf("replaying session %d: %w", o.k, err))
				continue
			}
			if err := o.finished(); err != nil {
				errs = append(errs, fmt.Errorf("session %d (seed %d): %w", o.k, o.seed, err))
			}
			if err := o.sameAs(refs[o.k]); err != nil {
				errs = append(errs, fmt.Errorf("session %d (seed %d): %w", o.k, o.seed, err))
			}
			win.missed += refs[o.k].missed
		}
	}
	for k := 0; k < w.minSessions; k++ {
		ref, ok := refs[k]
		if !ok {
			errs = append(errs, fmt.Errorf("session %d was not driven", k))
			return errs, 0, 0
		}
		quality += ref.quality
		effort += ref.effort()
	}
	n := float64(w.minSessions)
	return errs, quality / n, effort / n
}

// endToEndMetrics lists the end-to-end metrics in output order with their
// units. The p95 latencies are printed beside them but reported as
// per-layer metrics (round.p95_ms, feedback.p95_ms): on a shared host their
// run-to-run spread is wider than any bound a regression gate can use.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"items_per_s", "items/s"},
	{"round_p50_ms", "ms"},
	{"feedback_p50_ms", "ms"},
	{"groups_p50_ms", "ms"},
	{"cpu_ms_per_item", "ms"},
	{"peak_heap_mb", "MB"},
	{"quality_improvement_pct", "%"},
	{"effort_pct", "%"},
}

// endToEnd fills the end-to-end metrics of an untraced window and prints
// them with their sample counts.
func endToEnd(res *result, win *window, quality, effort float64, out io.Writer, minSessions int) error {
	st, m := &win.st, &win.m
	var firstErr error
	pct := func(xs []float64, p float64) float64 {
		v, err := percentile(xs, p)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	type row struct {
		value   float64
		samples int
	}
	rows := map[string]row{
		"setup_s":                 {pct(win.setupS, 0.5), len(win.setupS)},
		"items_per_s":             {float64(m.items) / m.span.Seconds(), m.items},
		"round_p50_ms":            {pct(m.roundMs, 0.5), len(m.roundMs)},
		"round_p95_ms":            {pct(m.roundMs, 0.95), len(m.roundMs)},
		"feedback_p50_ms":         {pct(m.feedbackMs, 0.5), len(m.feedbackMs)},
		"feedback_p95_ms":         {pct(m.feedbackMs, 0.95), len(m.feedbackMs)},
		"groups_p50_ms":           {pct(m.grpMs, 0.5), len(m.grpMs)},
		"cpu_ms_per_item":         {float64(win.cpu) / float64(time.Millisecond) / float64(max(st.items, 1)), st.items},
		"peak_heap_mb":            {float64(win.peakHeap) / (1 << 20), win.heapSamples},
		"quality_improvement_pct": {quality, minSessions},
		"effort_pct":              {effort, minSessions},
	}
	if firstErr != nil {
		return firstErr
	}
	for _, em := range endToEndMetrics {
		r := rows[em.name]
		res.Metrics[em.name] = metric{Value: r.value, Unit: em.unit}
		fmt.Fprintf(out, "  %-24s %14.4f %-8s samples=%d\n", em.name, r.value, em.unit, r.samples)
	}
	for _, name := range []string{"round_p95_ms", "feedback_p95_ms"} {
		r := rows[name]
		fmt.Fprintf(out, "  %-24s %14.4f %-8s samples=%d (unbounded; per-layer %s)\n", name, r.value, "ms", r.samples, strings.Replace(name, "_", ".", 1))
	}
	fmt.Fprintf(out, "  %-24s %14.6f %-8s samples=%d (failed %d, retries %d, sheds %d)\n",
		"failed_ops_share", float64(st.failed)/float64(max(st.ops, 1)), "ratio", st.ops, st.failed, st.retries, st.sheds)
	fmt.Fprintf(out, "  sessions=%d dirty_left=%d missed_suggestions=%d timed=%.2fs of drive=%.2fs cpu_steal=%.3f\n",
		len(win.outcomes), win.dirtyLeft(), win.missed, m.span.Seconds(), win.drive.Seconds(), win.steal)
	return nil
}

// reportPlacement prints where the proxy put the sessions and what the
// membership machinery did, for every proxy run.
func reportPlacement(out io.Writer, win *window) {
	if win.proxy == nil {
		return
	}
	nodes := make([]string, 0, len(win.perNode))
	for n := range win.perNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var parts []string
	for _, n := range nodes {
		parts = append(parts, fmt.Sprintf("%s=%d", n, win.perNode[n]))
	}
	rounds := float64(max(win.st.fullRounds(), 1))
	fmt.Fprintf(out, "  placement: sessions per node [%s] replica_pushes_per_round=%.3f push_failures=%g ring_changes=%g migrations=%g promotions=%g\n",
		strings.Join(parts, " "),
		win.proxy.get("gdrproxy_replica_pushes_total")/rounds,
		win.proxy.get("gdrproxy_replica_push_failures_total"),
		win.proxy.get("gdrproxy_ring_version"),
		win.proxy.get("gdrproxy_migrations_total"),
		win.proxy.get("gdrproxy_replica_promotions_total"))
}

// sampleHeap records the peak of live heap bytes every 5 ms until stop
// closes, then sends the peak and the sample count.
func sampleHeap(stop <-chan struct{}, done chan<- [2]uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak, n uint64
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
		n++
		select {
		case <-stop:
			done <- [2]uint64{peak, n}
			return
		case <-tick.C:
		}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the host's aggregate CPU time and the part of it the
// hypervisor gave to other guests (steal), from /proc/stat. On a shared
// host steal inflates every wall-clock figure, so runs report it.
type cpuTicks struct{ total, steal uint64 }

func hostSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i := 1; i < len(f) && i <= 8; i++ {
		var v uint64
		fmt.Sscan(f[i], &v)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// share is the steal fraction between before and t.
func (t cpuTicks) share(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

// hostInfo describes where the numbers were produced: core counts, the Go
// version and the filesystem under the data dirs.
func hostInfo(dataDir string) string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s os=%s/%s datadir_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(dataDir))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021997:
		return "9p"
	case 0x6a656a63:
		return "virtiofs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
