// Command gdrload replays oracle-simulated users against a gdrd server and
// reports end-to-end feedback-round throughput and latency percentiles
// across many concurrent sessions. (The repo's benchmark is perfbench/;
// gdrload is the load and chaos driver.)
//
// It generates one synthetic workload per session (distinct seeds), uploads
// the dirty instances, then spins N concurrent users across the M sessions;
// each user runs the Procedure-1 loop — ranked groups, one group's updates,
// a batched feedback round answered from the generator's ground truth —
// until the session is clean or its round budget runs out. The report is a
// single JSON document on stdout.
//
//	gdrload -addr http://localhost:8080 -sessions 4 -users 8 -n 400
//	gdrload -selfhost -sessions 4 -users 8     # in-process server, loopback HTTP
//	gdrload -proxy 3 -kill -sessions 4 -users 8  # in-process 3-node cluster
//
// -proxy N boots an in-process cluster through internal/cluster/clustertest
// — the rig the cluster equivalence suites use: N cluster-mode gdrd nodes
// with durable data dirs behind a real gdrproxy ring — and drives the load
// through the gateway; the report gains a per-node distribution (requests,
// owned sessions, migrations, replica pushes and promotions). -kill
// additionally closes, in process, the node that owns tenant 0's session
// once max(2, users/2) feedback rounds are done: the proxy's failover must
// restore its sessions onto the survivors and every tenant must still
// finish.
//
// Every feedback POST carries a stable X-Gdr-Request-Id, so a round
// retried after a shed is applied exactly once. -dup stresses that path
// deliberately: each round is immediately re-POSTed with its same id, and
// the run fails unless the duplicate comes back as a replay
// (X-Gdr-Duplicate) with identical stats instead of mutating the session
// again. The report counts every replayed duplicate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gdr"
	"gdr/internal/cluster/clustertest"
	"gdr/internal/server"
)

// runConfig carries the benchmark knobs from flags (or tests) into run.
type runConfig struct {
	addr     string // base URL of an external gdrd ("" with selfhost/proxyN)
	key      string // bearer API key ("" = no auth)
	selfhost bool   // boot one in-process server
	proxyN   int    // boot an in-process N-node cluster behind a proxy
	kill     bool   // with proxyN: crash one node mid-drive
	sessions int
	users    int
	rounds   int
	n        int
	ds       int
	seed     int64
	workers  int
	sweep    bool
	dup      bool // re-POST every feedback round with its same request id
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running gdrd (e.g. http://localhost:8080)")
	flag.BoolVar(&cfg.selfhost, "selfhost", false, "boot an in-process server on a loopback port instead of -addr")
	flag.IntVar(&cfg.proxyN, "proxy", 0, "boot an in-process N-node cluster behind a gdrproxy ring and drive through the gateway")
	flag.BoolVar(&cfg.kill, "kill", false, "with -proxy: abruptly kill one node mid-drive; failover must finish the run")
	flag.IntVar(&cfg.sessions, "sessions", 4, "concurrent repair sessions (tenants)")
	flag.IntVar(&cfg.users, "users", 8, "concurrent simulated users, round-robin across sessions")
	flag.IntVar(&cfg.rounds, "rounds", 50, "max feedback rounds per user")
	flag.IntVar(&cfg.n, "n", 400, "records per uploaded instance")
	flag.IntVar(&cfg.ds, "dataset", 1, "workload generator: 1 = hospital, 2 = census")
	flag.Int64Var(&cfg.seed, "seed", 7, "base seed; session i uploads seed+i")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "server worker budget (selfhost and proxy modes)")
	flag.BoolVar(&cfg.sweep, "sweep", false, "ask for a learner sweep with every feedback round")
	flag.BoolVar(&cfg.dup, "dup", false, "re-POST every feedback round with its same request id; the duplicate must replay, never re-apply")
	flag.StringVar(&cfg.key, "key", "", "bearer API key for an authenticated gdrd (-keyfile mode)")
	flag.Parse()
	if cfg.addr == "" && !cfg.selfhost && cfg.proxyN == 0 {
		fmt.Fprintln(os.Stderr, "gdrload: need -addr, -selfhost or -proxy")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdrload:", err)
		os.Exit(1)
	}
}

// Report is the benchmark output document.
type Report struct {
	Config      ReportConfig `json:"config"`
	Setup       SetupStats   `json:"setup"`
	WallSeconds float64      `json:"wall_seconds"`
	Rounds      int          `json:"feedback_rounds"`
	Items       int          `json:"feedback_items"`
	Applied     int          `json:"feedback_applied"`
	Stale       int          `json:"feedback_stale"`
	Learner     int          `json:"learner_decisions"`
	Groups304   int          `json:"groups_not_modified"`
	Sheds429    int          `json:"sheds_429"`
	Sheds503    int          `json:"sheds_503"`
	Retries     int          `json:"retries"`
	// DupReplays counts feedback responses the server answered from its
	// dedup window (X-Gdr-Duplicate) — forced -dup re-POSTs plus any
	// organic retry that would otherwise have double-applied a round.
	DupReplays int                `json:"duplicate_replays"`
	Throughput ThroughputStats    `json:"throughput"`
	Latency    map[string]LatSumm `json:"latency_seconds"`
	// ServerStages is the server-side stage breakdown (admit, queue, slot,
	// exec, persist), sourced from the Server-Timing header of every
	// response — where each request actually spent its time inside gdrd, as
	// opposed to the client-observed Latency above.
	ServerStages map[string]LatSumm `json:"server_stage_seconds"`
	Sessions     []SessionOutcome   `json:"sessions"`
	// Cluster is the per-node distribution, present only in -proxy mode.
	Cluster *ClusterReport `json:"cluster,omitempty"`
}

// ClusterReport is the -proxy mode addendum: where the load actually
// landed across the ring, and what the membership machinery did.
type ClusterReport struct {
	Nodes         int        `json:"nodes"`
	KilledNode    string     `json:"killed_node,omitempty"`
	RingVersion   uint64     `json:"ring_version"`
	Migrations    int64      `json:"migrations"`
	Recovered     int64      `json:"recovered_sessions"`
	ReplicaPushes int64      `json:"replica_pushes"`
	Promotions    int64      `json:"replica_promotions"`
	PerNode       []NodeLoad `json:"per_node"`
}

// NodeLoad is one ring member's share of the drive.
type NodeLoad struct {
	URL      string `json:"url"`
	Live     bool   `json:"live"`
	Requests int64  `json:"requests"`
	Sessions int    `json:"sessions_owned"`
}

// ReportConfig echoes the knobs that shaped the run.
type ReportConfig struct {
	Target   string `json:"target"`
	Sessions int    `json:"sessions"`
	Users    int    `json:"users"`
	Rounds   int    `json:"max_rounds_per_user"`
	N        int    `json:"records_per_session"`
	Dataset  int    `json:"dataset"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Sweep    bool   `json:"sweep"`
}

// SetupStats covers the upload phase (not counted in the drive wall time).
type SetupStats struct {
	Seconds        float64 `json:"seconds"`
	SessionsOpened int     `json:"sessions_opened"`
}

// ThroughputStats are the headline rates.
type ThroughputStats struct {
	ItemsPerSec  float64 `json:"feedback_items_per_sec"`
	RoundsPerSec float64 `json:"feedback_rounds_per_sec"`
}

// LatSumm summarizes one operation's latency distribution.
type LatSumm struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// SessionOutcome is the per-tenant end state.
type SessionOutcome struct {
	Index        int     `json:"index"`
	InitialDirty int     `json:"initial_dirty"`
	Dirty        int     `json:"dirty"`
	Applied      int     `json:"applied"`
	Pending      int     `json:"pending"`
	CleanedPct   float64 `json:"cleaned_pct"`
}

// latRecorder collects op durations across users.
type latRecorder struct {
	mu   sync.Mutex
	byOp map[string][]float64
}

func (l *latRecorder) observe(op string, d time.Duration) {
	l.mu.Lock()
	l.byOp[op] = append(l.byOp[op], d.Seconds())
	l.mu.Unlock()
}

func (l *latRecorder) summarize() map[string]LatSumm {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]LatSumm, len(l.byOp))
	for op, xs := range l.byOp {
		sort.Float64s(xs)
		n := len(xs)
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		q := func(p float64) float64 {
			i := int(p*float64(n)+0.5) - 1
			if i < 0 {
				i = 0
			}
			if i >= n {
				i = n - 1
			}
			return xs[i]
		}
		out[op] = LatSumm{Count: n, Mean: sum / float64(n), P50: q(0.50), P90: q(0.90), P99: q(0.99), Max: xs[n-1]}
	}
	return out
}

// counters are the shared run totals.
type counters struct {
	mu        sync.Mutex
	rounds    int
	items     int
	applied   int
	stale     int
	learner   int
	groups304 int
	dups      int
}

func run(cfg runConfig, out io.Writer) error {
	addr, key := cfg.addr, cfg.key
	sessions, users, rounds := cfg.sessions, cfg.users, cfg.rounds
	n, ds, seed, workers, sweep := cfg.n, cfg.ds, cfg.seed, cfg.workers, cfg.sweep
	if sessions < 1 || users < 1 {
		return fmt.Errorf("need at least one session and one user")
	}
	if cfg.selfhost && cfg.proxyN > 0 {
		return fmt.Errorf("pick one of -selfhost and -proxy")
	}
	if cfg.kill && cfg.proxyN < 2 {
		return fmt.Errorf("-kill needs -proxy with at least 2 nodes")
	}
	var rig *clustertest.Cluster
	switch {
	case cfg.proxyN > 0:
		// The nodes share the load generator's worker budget (at least 1
		// each); the probe cadence is slower than the rig's test default.
		var err error
		rig, err = clustertest.New(clustertest.Options{
			N:           cfg.proxyN,
			Workers:     max(workers/cfg.proxyN, 1),
			HealthEvery: 100 * time.Millisecond,
			FailAfter:   2,
		})
		if err != nil {
			return err
		}
		defer rig.Close()
		addr = rig.URL()
	case cfg.selfhost:
		srv := server.New(server.Config{Workers: workers, MaxSessions: sessions + 1})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		addr = "http://" + ln.Addr().String()
	}
	addr = strings.TrimRight(addr, "/")
	lc := newLoadClient(&http.Client{Timeout: 2 * time.Minute}, key, seed)

	// Upload phase: one workload per session, distinct seeds. Uploads fan
	// out concurrently — the server builds sessions in parallel up to its
	// worker budget, so serial creates would leave it idle and stretch
	// setup linearly with -sessions.
	setupStart := time.Now()
	type tenant struct {
		id    string
		truth *gdr.DB
	}
	tenants := make([]tenant, sessions)
	setupErrs := make([]error, sessions)
	var setupWG sync.WaitGroup
	for i := range tenants {
		setupWG.Add(1)
		go func(i int) {
			defer setupWG.Done()
			d, err := workload(ds, n, seed+int64(i))
			if err != nil {
				setupErrs[i] = err
				return
			}
			var csvBuf bytes.Buffer
			if err := d.Dirty.WriteCSV(&csvBuf); err != nil {
				setupErrs[i] = err
				return
			}
			var rules strings.Builder
			for _, r := range d.Rules {
				rules.WriteString(r.String() + "\n")
			}
			var created server.CreateSessionResponse
			code, err := lc.doJSON("POST", addr+"/v1/sessions", server.CreateSessionRequest{
				Name:  fmt.Sprintf("load-%d", i),
				CSV:   csvBuf.String(),
				Rules: rules.String(),
				Seed:  seed + int64(i),
			}, &created)
			if err != nil {
				setupErrs[i] = fmt.Errorf("creating session %d: %w", i, err)
				return
			}
			if code != http.StatusCreated {
				setupErrs[i] = fmt.Errorf("creating session %d: status %d", i, code)
				return
			}
			tenants[i] = tenant{id: created.Session.ID, truth: d.Truth}
		}(i)
	}
	setupWG.Wait()
	for _, err := range setupErrs {
		if err != nil {
			return err
		}
	}
	setup := SetupStats{Seconds: time.Since(setupStart).Seconds(), SessionsOpened: sessions}

	// Drive phase: users fan out round-robin across sessions.
	lats := &latRecorder{byOp: make(map[string][]float64)}
	var cnt counters
	var wg sync.WaitGroup
	errc := make(chan error, users)
	driveStart := time.Now()
	driveDone := make(chan struct{})
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			tn := tenants[u%sessions]
			if err := drive(lc, addr, tn.id, tn.truth, u, rounds, sweep, cfg.dup, lats, &cnt); err != nil {
				errc <- fmt.Errorf("user %d: %w", u, err)
			}
		}(u)
	}
	var killed string
	var killer sync.WaitGroup
	if cfg.kill && rig != nil {
		// Crash the node owning the first tenant's session once the drive
		// is demonstrably under way; the failover path must finish the run.
		killer.Add(1)
		go func() {
			defer killer.Done()
			killed = killWhenBusy(rig, &cnt, max(users/2, 2), tenants[0].id, driveDone)
		}()
	}
	wg.Wait()
	close(driveDone)
	killer.Wait() // no kill lands in the report or the teardown
	wall := time.Since(driveStart).Seconds()
	close(errc)
	for err := range errc {
		return err
	}

	// The cluster distribution is read before teardown deletes the
	// sessions, while ownership is still observable.
	var clusterRep *ClusterReport
	if rig != nil {
		ids := make([]string, len(tenants))
		for i, tn := range tenants {
			ids[i] = tn.id
		}
		clusterRep = clusterReport(rig, killed, ids)
	}

	// Final per-session state, then teardown.
	outcomes := make([]SessionOutcome, sessions)
	for i, tn := range tenants {
		var st server.StatusResponse
		code, err := lc.doJSON("GET", addr+"/v1/sessions/"+tn.id+"/status", nil, &st)
		if err != nil || code != 200 {
			return fmt.Errorf("status of session %d: code %d err %v", i, code, err)
		}
		outcomes[i] = SessionOutcome{
			Index:        i,
			InitialDirty: st.Stats.InitialDirty,
			Dirty:        st.Stats.Dirty,
			Applied:      st.Stats.Applied,
			Pending:      st.Stats.Pending,
			CleanedPct:   st.Stats.CleanedPct,
		}
		if code, err := lc.doJSON("DELETE", addr+"/v1/sessions/"+tn.id, nil, nil); err != nil || code != 200 {
			return fmt.Errorf("deleting session %d: code %d err %v", i, code, err)
		}
	}

	sheds429, sheds503, retries := lc.counts()
	rep := Report{
		Config: ReportConfig{
			Target: addr, Sessions: sessions, Users: users, Rounds: rounds,
			N: n, Dataset: ds, Seed: seed, Workers: workers, Sweep: sweep,
		},
		Setup:       setup,
		WallSeconds: wall,
		Rounds:      cnt.rounds,
		Items:       cnt.items,
		Applied:     cnt.applied,
		Stale:       cnt.stale,
		Learner:     cnt.learner,
		Groups304:   cnt.groups304,
		Sheds429:    sheds429,
		Sheds503:    sheds503,
		Retries:     retries,
		DupReplays:  cnt.dups,
		Throughput: ThroughputStats{
			ItemsPerSec:  float64(cnt.items) / wall,
			RoundsPerSec: float64(cnt.rounds) / wall,
		},
		Latency:      lats.summarize(),
		ServerStages: lc.stages.summarize(),
		Sessions:     outcomes,
		Cluster:      clusterRep,
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// drive is one simulated user: the interactive loop of Procedure 1 against
// one served session, answers from the ground truth.
func drive(lc *loadClient, addr, id string, truth *gdr.DB, u, rounds int, sweep, dup bool, lats *latRecorder, cnt *counters) error {
	base := addr + "/v1/sessions/" + id
	// Conditional polling state: the last groups listing and its validator.
	// The server answers an unchanged ranking with a bodyless 304, so a user
	// whose session was not perturbed since its previous poll (common when
	// users outnumber active work, or between retries) pays no body at all.
	var groups server.GroupsResponse
	var groupsTag string
	for r := 0; r < rounds; r++ {
		start := time.Now()
		code, tag, err := lc.getJSONCond(base+"/groups?order=voi&limit=4", groupsTag, &groups)
		switch {
		case err != nil:
			return fmt.Errorf("groups: %v", err)
		case code == http.StatusNotModified:
			cnt.mu.Lock()
			cnt.groups304++
			cnt.mu.Unlock()
		case code == 200:
			groupsTag = tag
		default:
			return fmt.Errorf("groups: code %d", code)
		}
		lats.observe("groups", time.Since(start))
		if len(groups.Groups) == 0 {
			return nil // session fully repaired
		}
		g := groups.Groups[u%len(groups.Groups)]

		start = time.Now()
		var ups server.UpdatesResponse
		code, err = lc.doJSON("GET", base+"/groups/"+g.Key+"/updates", nil, &ups)
		if err != nil {
			return fmt.Errorf("updates: %v", err)
		}
		lats.observe("updates", time.Since(start))
		if code == http.StatusNotFound {
			continue // another user drained the group between the two calls
		}
		if code != 200 {
			return fmt.Errorf("updates: code %d", code)
		}

		items := make([]server.FeedbackItem, 0, len(ups.Updates))
		for _, up := range ups.Updates {
			want := truth.Get(up.Tid, up.Attr)
			verb := "reject"
			switch {
			case up.Value == want:
				verb = "confirm"
			case up.Current == want:
				verb = "retain"
			}
			items = append(items, server.FeedbackItem{Tid: up.Tid, Attr: up.Attr, Value: up.Value, Feedback: verb})
		}
		// The request id is stable across the retry loop's attempts (and the
		// forced -dup replay): a round shed mid-flight and retried must be
		// applied exactly once, whichever attempt actually landed.
		reqID := fmt.Sprintf("gdrload-%s-%d-%d", id, u, r)
		body := server.FeedbackRequest{Items: items, Sweep: sweep}
		start = time.Now()
		var fb server.FeedbackResponse
		code, wasDup, err := lc.doJSONID("POST", base+"/feedback", body, &fb, reqID)
		if err != nil || code != 200 {
			return fmt.Errorf("feedback: code %d err %v", code, err)
		}
		lats.observe("feedback", time.Since(start))
		replays := 0
		if wasDup {
			replays++ // an organic retry already landed this round
		}
		if dup {
			var fb2 server.FeedbackResponse
			code, wasDup, err := lc.doJSONID("POST", base+"/feedback", body, &fb2, reqID)
			if err != nil || code != 200 {
				return fmt.Errorf("duplicate feedback: code %d err %v", code, err)
			}
			if !wasDup {
				return fmt.Errorf("round %d: forced duplicate was applied again, not replayed", r)
			}
			if fb2.Stats != fb.Stats {
				return fmt.Errorf("round %d: duplicate replay diverges: %+v vs %+v", r, fb2.Stats, fb.Stats)
			}
			replays++
		}

		applied, stale := 0, 0
		for _, res := range fb.Results {
			switch res.Status {
			case server.FeedbackApplied:
				applied++
			case server.FeedbackStale:
				stale++
			}
		}
		cnt.mu.Lock()
		cnt.rounds++
		cnt.items += len(items)
		cnt.applied += applied
		cnt.stale += stale
		cnt.learner += len(fb.LearnerDecisions)
		cnt.dups += replays
		cnt.mu.Unlock()
	}
	return nil
}

func workload(ds, n int, seed int64) (*gdr.Data, error) {
	cfg := gdr.DataConfig{N: n, Seed: seed}
	switch ds {
	case 1:
		return gdr.HospitalData(cfg), nil
	case 2:
		return gdr.CensusData(cfg), nil
	default:
		return nil, fmt.Errorf("unknown dataset %d (want 1 or 2)", ds)
	}
}

// killWhenBusy crashes the node owning the probe session once the drive
// has completed at least minRounds feedback rounds, and returns its URL.
// It kills nothing, and returns "", once done is closed: a kill after the
// drive would land in the middle of the report and the teardown.
func killWhenBusy(c *clustertest.Cluster, cnt *counters, minRounds int, probeToken string, done <-chan struct{}) string {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return ""
		case <-tick.C:
		}
		cnt.mu.Lock()
		busy := cnt.rounds >= minRounds
		cnt.mu.Unlock()
		if busy {
			break
		}
	}
	select {
	case <-done:
		return "" // the drive ended while the last poll ran
	default:
	}
	victim := c.Owner(probeToken)
	if victim < 0 {
		return ""
	}
	// Abrupt: close the listener mid-flight, nothing drains — the health
	// loop must notice and fail the node's sessions over to the survivors.
	c.Kill(victim)
	return c.Nodes[victim].URL
}

// clusterReport reads the post-drive distribution off the ring and the
// proxy's own metrics.
func clusterReport(c *clustertest.Cluster, killed string, sessionIDs []string) *ClusterReport {
	ring := c.Proxy.Ring()
	reg := c.Proxy.Registry()
	rep := &ClusterReport{
		Nodes:         len(c.Nodes),
		KilledNode:    killed,
		RingVersion:   ring.Version(),
		Migrations:    reg.Counter("gdrproxy_migrations_total").Value(),
		Recovered:     reg.Counter("gdrproxy_recovered_sessions_total").Value(),
		ReplicaPushes: reg.Counter("gdrproxy_replica_pushes_total").Value(),
		Promotions:    reg.Counter("gdrproxy_replica_promotions_total").Value(),
	}
	for _, n := range c.Nodes {
		owned := 0
		for _, id := range sessionIDs {
			if ring.Lookup(id) == n.URL {
				owned++
			}
		}
		rep.PerNode = append(rep.PerNode, NodeLoad{
			URL:      n.URL,
			Live:     ring.Has(n.URL),
			Requests: reg.LabeledCounter("gdrproxy_requests_total", "node", n.URL).Value(),
			Sessions: owned,
		})
	}
	return rep
}

// Retry policy for shed (429/503) responses.
const (
	retryBase     = 50 * time.Millisecond
	retryCap      = 5 * time.Second
	retryAttempts = 8 // retries after the first try
)

// loadClient wraps the HTTP client with bearer auth and overload-aware
// retries: a 429 or 503 is counted as a shed and retried with jittered
// exponential backoff, never sooner than the server's Retry-After hint.
// Other statuses pass straight through to the caller.
type loadClient struct {
	hc  *http.Client
	key string // bearer API key ("" = no auth header)

	// stages accumulates the per-stage server-side durations parsed from
	// every response's Server-Timing header.
	stages *latRecorder

	mu       sync.Mutex
	rng      *rand.Rand
	sheds429 int
	sheds503 int
	retries  int
}

func newLoadClient(hc *http.Client, key string, seed int64) *loadClient {
	return &loadClient{
		hc:     hc,
		key:    key,
		stages: &latRecorder{byOp: make(map[string][]float64)},
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// parseServerTiming extracts the stage durations from a Server-Timing
// header value ("queue;dur=0.312, exec;dur=4.821" — durations in
// milliseconds per the spec) as stage → seconds. Entries without a dur
// parameter, and anything malformed, are skipped.
func parseServerTiming(h string) map[string]float64 {
	if h == "" {
		return nil
	}
	out := make(map[string]float64)
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if parts[0] == "" {
			continue
		}
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			ms, err := strconv.ParseFloat(strings.Trim(v, `"`), 64)
			if err != nil {
				continue
			}
			out[parts[0]] = ms / 1e3
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// recordServerTiming files one response's stage breakdown.
func (c *loadClient) recordServerTiming(h string) {
	for stage, secs := range parseServerTiming(h) {
		c.stages.observe(stage, time.Duration(secs*float64(time.Second)))
	}
}

// backoffDelay computes the wait before retry number attempt (0-based):
// exponential in attempt with half the span jittered (jitter ∈ [0,1)), and
// never below the server's Retry-After hint — the server knows its own
// pressure better than our curve does.
func backoffDelay(attempt int, retryAfter time.Duration, jitter float64) time.Duration {
	d := retryBase << uint(attempt)
	if d > retryCap || d <= 0 {
		d = retryCap
	}
	d = d/2 + time.Duration(jitter*float64(d/2))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads the integer-seconds form of a Retry-After header
// (the only form gdrd emits); anything else means no hint.
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// shed records one shed response and reports whether the caller should
// retry (budget permitting).
func (c *loadClient) shed(status, attempt int) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if status == http.StatusTooManyRequests {
		c.sheds429++
	} else {
		c.sheds503++
	}
	if attempt >= retryAttempts {
		return 0, false
	}
	c.retries++
	return time.Duration(c.rng.Int63()), true // raw entropy; shaped by caller
}

// do issues one request, replaying through the retry policy. newReq must
// build a fresh request per attempt (bodies are consumed by a send).
func (c *loadClient) do(newReq func() (*http.Request, error)) (*http.Response, []byte, error) {
	for attempt := 0; ; attempt++ {
		req, err := newReq()
		if err != nil {
			return nil, nil, err
		}
		if c.key != "" {
			req.Header.Set("Authorization", "Bearer "+c.key)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return resp, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			entropy, again := c.shed(resp.StatusCode, attempt)
			if again {
				jitter := float64(entropy%1000) / 1000
				time.Sleep(backoffDelay(attempt, parseRetryAfter(resp.Header.Get("Retry-After")), jitter))
				continue
			}
		}
		c.recordServerTiming(resp.Header.Get("Server-Timing"))
		return resp, data, nil
	}
}

// counts snapshots the shed/retry totals for the report.
func (c *loadClient) counts() (sheds429, sheds503, retries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sheds429, c.sheds503, c.retries
}

// getJSONCond issues a conditional GET: etag (if any) travels as
// If-None-Match. On 200 the body is decoded into out and the fresh ETag
// returned; on 304 out is left holding the caller's cached value.
func (c *loadClient) getJSONCond(url, etag string, out any) (int, string, error) {
	resp, data, err := c.do(func() (*http.Request, error) {
		req, err := http.NewRequest("GET", url, nil)
		if err == nil && etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		return req, err
	})
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode == http.StatusOK && out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, "", fmt.Errorf("decoding GET %s response: %w", url, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("ETag"), nil
}

// doJSON issues one JSON request; out may be nil.
func (c *loadClient) doJSON(method, url string, body any, out any) (int, error) {
	code, _, err := c.doJSONID(method, url, body, out, "")
	return code, err
}

// doJSONID issues one JSON request carrying an idempotency key (reqID ""
// sends none). The key is set inside the per-attempt request builder, so
// every retry of a shed response replays the same id — that is what turns
// retried mutations into exactly-once ones. dup reports whether the server
// answered from its dedup window instead of applying the request.
func (c *loadClient) doJSONID(method, url string, body, out any, reqID string) (int, bool, error) {
	var buf []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, false, err
		}
		buf = b
	}
	resp, data, err := c.do(func() (*http.Request, error) {
		var rd io.Reader
		if buf != nil {
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequest(method, url, rd)
		if err == nil && buf != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if err == nil && reqID != "" {
			req.Header.Set(server.RequestIDHeader, reqID)
		}
		return req, err
	})
	if err != nil {
		return 0, false, err
	}
	if out != nil && len(data) > 0 && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, false, fmt.Errorf("decoding %s %s response: %w", method, url, err)
		}
	}
	return resp.StatusCode, resp.Header.Get(server.DuplicateHeader) != "", nil
}
