package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gdr/internal/cluster"
	"gdr/internal/obs"
	"gdr/internal/server"
)

// rig is one in-process serving topology on loopback HTTP.
type rig struct {
	url      string   // where the clients send requests
	scrape   []string // gdrd base URLs whose /metrics the run reads
	dataDirs []string
	proxy    *cluster.Proxy
	upstream *upstreamTimer // the proxy's own upstream calls (proxy only)
	closers  []func()
}

// close stops everything the rig started and waits for it.
func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// quietLogger formats every log record the way the shipped daemons do at
// their default info level, and discards the text.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// serveLoopback serves h on a fresh loopback port and registers the
// shutdown with r.
func (r *rig) serveLoopback(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	r.closers = append(r.closers, func() {
		_ = hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// startNode boots one gdrd with the daemon's shipped flag defaults, a
// data dir (every round checkpoints and fsyncs) and the given worker
// budget.
func (r *rig) startNode(dir string, workers int, clusterMode bool) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	srv := server.New(server.Config{
		MaxSessions:     64,
		TTL:             30 * time.Minute,
		Workers:         workers,
		Logger:          quietLogger(),
		DataDir:         dir,
		CheckpointEvery: 30 * time.Second,
		RequestTimeout:  time.Minute,
		QueueDepth:      64,
		Trace:           obs.Config{Capacity: 256},
		SlowRequest:     time.Second,
		ClusterMode:     clusterMode,
	})
	r.closers = append(r.closers, func() {
		srv.Close()
		os.RemoveAll(dir)
	})
	url, err := r.serveLoopback(srv.Handler())
	if err != nil {
		return "", err
	}
	r.dataDirs = append(r.dataDirs, dir)
	r.scrape = append(r.scrape, url)
	return url, nil
}

// startGdrd is the gdrd-durable topology: one node, clients talk to it.
func startGdrd(dir string, workers int) (*rig, error) {
	r := &rig{}
	url, err := r.startNode(filepath.Join(dir, "node0"), workers, false)
	if err != nil {
		r.close()
		return nil, err
	}
	r.url = url
	return r, nil
}

// startProxied is the proxy-replicated topology: n cluster-mode nodes,
// each with its own data dir and the full worker budget, behind a gdrproxy
// with the shipped membership defaults (500 ms probes, 3 failures, 2 s
// settle window). timeUpstream wraps the proxy's upstream client — the
// same 30 s-timeout client on the default transport the proxy builds for
// itself — so the traced run sees every export and replica PUT.
func startProxied(dir string, n, workers int, timeUpstream bool) (*rig, error) {
	r := &rig{}
	var nodes []string
	for i := 0; i < n; i++ {
		url, err := r.startNode(filepath.Join(dir, fmt.Sprintf("node%d", i)), workers, true)
		if err != nil {
			r.close()
			return nil, err
		}
		nodes = append(nodes, url)
	}
	cfg := cluster.Config{Nodes: nodes, Logger: quietLogger()}
	if timeUpstream {
		r.upstream = &upstreamTimer{next: http.DefaultTransport}
		cfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: r.upstream}
	}
	p, err := cluster.New(cfg)
	if err != nil {
		r.close()
		return nil, err
	}
	p.Start()
	r.proxy = p
	r.closers = append(r.closers, p.Close)
	if r.url, err = r.serveLoopback(p.Handler()); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// upstreamTimer times the proxy's background calls into the nodes: the
// snapshot export and the replica PUT of every replica push.
type upstreamTimer struct {
	next http.RoundTripper

	mu     sync.Mutex
	export []float64 // ms
	put    []float64 // ms
}

func (u *upstreamTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := u.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	var list *[]float64
	switch {
	case req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/snapshot"):
		list = &u.export
	case req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/replicas/"):
		list = &u.put
	default:
		return resp, nil
	}
	// The call ends when the proxy closes the body, right after reading
	// it; wrap the body so the timing stops there.
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		u.mu.Lock()
		*list = append(*list, msSince(start))
		u.mu.Unlock()
	}}
	return resp, nil
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// scrape reads and sums the /metrics of every listed base URL.
func scrape(hc *http.Client, urls []string) (promSample, error) {
	total := make(promSample)
	for _, u := range urls {
		resp, err := hc.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		s, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		total.add(s)
	}
	return total, nil
}

// Retry policy: every failed attempt is counted; sheds honour Retry-After.
const (
	maxAttempts = 8
	retryBase   = 50 * time.Millisecond
	retryCap    = 2 * time.Second
)

// client is one simulated analyst talking HTTP. It is owned by one
// goroutine.
type client struct {
	hc    *http.Client
	base  string
	st    *driveStats
	rec   *recorder
	hop   string // layer name of the client-side remainder of a call
	round int64
}

// call sends one request, retrying failed attempts (transport errors,
// timeouts and any status outside want) up to maxAttempts. Every attempt
// is counted; the latency the caller measures includes the retries. With
// tracing on, the call is a span named after the hop, with the server's
// Server-Timing stages laid out inside it as children.
//
// Calls outside a round (parent < 0: create, status, export, delete) are
// not traced; the rollup covers rounds only.
func (c *client) call(parent int, route, method, path string, body []byte, hdr http.Header, want ...int) (*http.Response, []byte, error) {
	rec := c.rec
	if parent < 0 {
		rec = nil
	}
	id := rec.begin(c.hop+"/"+route, parent, c.round)
	defer rec.end(id)
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.st.retries++
			wait := rec.begin("client.retry_wait", id, c.round)
			time.Sleep(backoff(attempt, lastErr))
			rec.end(wait)
		}
		c.st.ops++
		sent := time.Now()
		resp, data, err := c.once(method, path, body, hdr)
		if err == nil && !slices.Contains(want, resp.StatusCode) {
			err = &statusError{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: string(data)}
		}
		if err != nil {
			c.st.failed++
			var se *statusError
			if errors.As(err, &se) && (se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable) {
				c.st.sheds++
			}
			lastErr = err
			continue
		}
		if rec != nil {
			if layStages(rec, id, c.round, route, sent, time.Now(), resp.Header.Get("Server-Timing")) {
				c.st.truncated++
			}
		}
		return resp, data, nil
	}
	return nil, nil, fmt.Errorf("%s %s: %d attempts failed, last: %w", method, path, maxAttempts, lastErr)
}

// once is a single attempt.
func (c *client) once(method, path string, body []byte, hdr http.Header) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data, err
}

// layStages records the Server-Timing stages of one response as child
// spans of the call. The header gives durations only; the stages run one
// after another, so they are laid end to end and centred in the attempt,
// leaving the request and response legs on either side to the hop. It
// reports whether the header lacks the exec stage: gdrd keeps at most 64
// spans per request and a long feedback round can fill them with engine
// phases before exec and persist end, dropping both.
func layStages(rec *recorder, parent int, round int64, route string, sent, recv time.Time, header string) (truncated bool) {
	stages := parseServerTiming(header)
	truncated = true
	var sum time.Duration
	for _, s := range stages {
		truncated = truncated && s.stage != "exec"
		sum += time.Duration(s.secs * float64(time.Second))
	}
	start := rec.at(sent) + max(recv.Sub(sent)-sum, 0)/2
	for _, s := range stages {
		d := time.Duration(s.secs * float64(time.Second))
		rec.add("server."+s.stage+"/"+route, parent, round, start, start+d)
		start += d
	}
	return truncated
}

// statusError is a response outside the statuses the call accepts.
type statusError struct {
	code       int
	retryAfter string
	body       string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, strings.TrimSpace(e.body))
}

// backoff is the wait before retry attempt (1-based): exponential from
// retryBase, capped, and never shorter than the server's Retry-After.
func backoff(attempt int, last error) time.Duration {
	d := retryBase << uint(attempt-1)
	if d > retryCap {
		d = retryCap
	}
	var se *statusError
	if errors.As(last, &se) {
		if secs, err := strconv.Atoi(strings.TrimSpace(se.retryAfter)); err == nil && secs > 0 {
			d = max(d, min(time.Duration(secs)*time.Second, 5*time.Second))
		}
	}
	return d
}

// create opens in's session (POST /v1/sessions with the upload text).
func (c *client) create(in *input) (*server.CreateSessionResponse, error) {
	body, err := json.Marshal(server.CreateSessionRequest{
		Name:  fmt.Sprintf("bench-%d", in.k),
		CSV:   in.csv,
		Rules: in.rules,
		Seed:  in.seed,
	})
	if err != nil {
		return nil, err
	}
	_, data, err := c.call(-1, "create", http.MethodPost, "/v1/sessions", body, nil, http.StatusCreated)
	if err != nil {
		return nil, fmt.Errorf("creating session %d: %w", in.k, err)
	}
	var created server.CreateSessionResponse
	if err := json.Unmarshal(data, &created); err != nil {
		return nil, fmt.Errorf("creating session %d: %w", in.k, err)
	}
	return &created, nil
}

// runSession creates in's session, drives it to the end exactly as the
// library replay does (top VOI group, answered completely from the truth,
// no_learn feedback), checks its end state and exports it, then deletes
// it.
func (c *client) runSession(in *input, r *rig) (outcome, error) {
	o := outcome{k: in.k, seed: in.seed}
	created, err := c.create(in)
	if err != nil {
		return o, err
	}
	id := created.Session.ID
	base := "/v1/sessions/" + id
	o.initialDirty = created.Stats.InitialDirty
	if r.proxy != nil {
		o.owner = r.proxy.Ring().Lookup(id)
	}

	var traj trajectory
	var groups server.GroupsResponse
	etag := ""
	for {
		c.round++
		roundStart := time.Now()
		root := c.rec.begin("unattributed", -1, c.round)
		hdr := http.Header{}
		if etag != "" {
			hdr.Set("If-None-Match", etag)
		}
		resp, data, err := c.call(root, "groups", http.MethodGet, base+"/groups?order=voi&limit=1", nil, hdr, http.StatusOK, http.StatusNotModified)
		if err != nil {
			return o, fmt.Errorf("session %d round %d: groups: %w", in.k, o.rounds, err)
		}
		groupsMs := msSince(roundStart)
		if resp.StatusCode == http.StatusNotModified {
			c.st.groups304++
		} else {
			etag = resp.Header.Get("ETag")
			groups = server.GroupsResponse{}
			if err := json.Unmarshal(data, &groups); err != nil {
				return o, fmt.Errorf("session %d: groups: %w", in.k, err)
			}
		}
		if len(groups.Groups) == 0 {
			c.rec.end(root)
			c.st.add(sample{groupsMs: groupsMs})
			break
		}
		g := groups.Groups[0]
		_, data, err = c.call(root, "updates", http.MethodGet, base+"/groups/"+g.Key+"/updates", nil, nil, http.StatusOK)
		if err != nil {
			return o, fmt.Errorf("session %d round %d: updates: %w", in.k, o.rounds, err)
		}
		var ups server.UpdatesResponse
		if err := json.Unmarshal(data, &ups); err != nil {
			return o, fmt.Errorf("session %d: updates: %w", in.k, err)
		}
		items := make([]server.FeedbackItem, len(ups.Updates))
		for i, u := range ups.Updates {
			want := in.data.Truth.Get(u.Tid, u.Attr)
			v := "reject"
			switch {
			case u.Value == want:
				v = "confirm"
			case u.Current == want:
				v = "retain"
			}
			items[i] = server.FeedbackItem{Tid: u.Tid, Attr: u.Attr, Value: u.Value, Feedback: v}
		}
		fbBody, err := json.Marshal(server.FeedbackRequest{Items: items, NoLearn: true})
		if err != nil {
			return o, err
		}
		// A stable request id makes a retried round exactly-once.
		fbHdr := http.Header{}
		fbHdr.Set(server.RequestIDHeader, fmt.Sprintf("bench-%d-%d", in.seed, o.rounds))
		fbStart := time.Now()
		_, data, err = c.call(root, "feedback", http.MethodPost, base+"/feedback", fbBody, fbHdr, http.StatusOK)
		if err != nil {
			return o, fmt.Errorf("session %d round %d: feedback: %w", in.k, o.rounds, err)
		}
		c.rec.end(root)
		roundMs, feedbackMs := msSince(roundStart), msSince(fbStart)
		var fb server.FeedbackResponse
		if err := json.Unmarshal(data, &fb); err != nil {
			return o, fmt.Errorf("session %d: feedback: %w", in.k, err)
		}
		applied := 0
		for _, res := range fb.Results {
			switch res.Status {
			case server.FeedbackApplied:
				applied++
			case server.FeedbackStale:
				c.st.stale++
			default:
				return o, fmt.Errorf("session %d: feedback item %s: %s", in.k, res.Status, res.Error)
			}
		}
		c.st.add(sample{round: true, roundMs: roundMs, feedbackMs: feedbackMs, groupsMs: groupsMs, items: applied})
		traj.add(g.Attr, g.Value, applied)
		o.rounds++
		o.items += applied
		c.st.items += applied
	}
	o.traj = traj.h

	_, data, err := c.call(-1, "status", http.MethodGet, base+"/status", nil, nil, http.StatusOK)
	if err != nil {
		return o, fmt.Errorf("session %d: status: %w", in.k, err)
	}
	var st server.StatusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		return o, fmt.Errorf("session %d: status: %w", in.k, err)
	}
	o.dirty, o.pending = st.Stats.Dirty, st.Stats.Pending
	_, data, err = c.call(-1, "export", http.MethodGet, base+"/export", nil, nil, http.StatusOK)
	if err != nil {
		return o, fmt.Errorf("session %d: export: %w", in.k, err)
	}
	o.csv = sha256.Sum256(data)
	o.snapBytes = snapshotSize(r.dataDirs, id)
	if _, _, err := c.call(-1, "delete", http.MethodDelete, base, nil, nil, http.StatusOK); err != nil {
		return o, fmt.Errorf("session %d: delete: %w", in.k, err)
	}
	return o, nil
}

// snapshotSize is the size of the session's checkpoint file on whichever
// node holds it (replica copies live in a subdirectory and are not
// counted).
func snapshotSize(dirs []string, token string) int64 {
	for _, d := range dirs {
		matches, _ := filepath.Glob(filepath.Join(d, "*"+token+".snap"))
		for _, m := range matches {
			if fi, err := os.Stat(m); err == nil {
				return fi.Size()
			}
		}
	}
	return 0
}
