package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdr/internal/faultfs"
	"gdr/internal/server"
)

// fakeSession is what a fakeNode stores per token.
type fakeSession struct {
	tenant string
	snap   []byte
	seq    uint64 // mutation sequence reported on export
}

// fakeReplica is one spill-store entry on a fakeNode.
type fakeReplica struct {
	seq  uint64
	data []byte
}

// fakeNode is a minimal in-memory stand-in for a cluster-mode gdrd: enough
// of the /v1 session surface for the proxy's routing, migration and
// failover logic to be tested hermetically, plus request recording.
type fakeNode struct {
	ts *httptest.Server

	mu       sync.Mutex
	sessions map[string]fakeSession
	replicas map[string]fakeReplica
	calls    []string // "METHOD path" log, in arrival order
	down     bool     // refuse everything with a closed-ish 500
}

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	n := &fakeNode{sessions: make(map[string]fakeSession), replicas: make(map[string]fakeReplica)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if n.failing() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		token := r.Header.Get(server.AssignTokenHeader)
		if token == "" {
			http.Error(w, "fake node requires an assigned token", http.StatusBadRequest)
			return
		}
		var req server.CreateSessionRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		n.mu.Lock()
		if _, dup := n.sessions[token]; dup {
			n.mu.Unlock()
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "token in use"})
			return
		}
		n.sessions[token] = fakeSession{tenant: r.Header.Get(server.AssignTenantHeader), snap: req.Snapshot}
		n.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(server.CreateSessionResponse{Session: server.SessionInfo{ID: token}})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		list := server.SessionList{}
		for token, s := range n.sessions {
			list.Sessions = append(list.Sessions, server.SessionInfo{ID: token, Tenant: s.tenant})
		}
		n.mu.Unlock()
		sortSessions(list.Sessions)
		_ = json.NewEncoder(w).Encode(list)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		s, ok := n.sessions[r.PathValue("id")]
		n.mu.Unlock()
		if !ok {
			http.Error(w, "no session", http.StatusNotFound)
			return
		}
		snap := s.snap
		if snap == nil {
			snap = []byte("snap-" + r.PathValue("id"))
		}
		w.Header().Set(server.MutationSeqHeader, fmt.Sprint(s.seq))
		if s.tenant != "" {
			w.Header().Set(server.AssignTenantHeader, s.tenant)
		}
		_, _ = w.Write(snap)
	})
	mux.HandleFunc("PUT /v1/replicas/{key}", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		var seq uint64
		fmt.Sscan(r.Header.Get(server.MutationSeqHeader), &seq)
		data, _ := io.ReadAll(r.Body)
		n.mu.Lock()
		defer n.mu.Unlock()
		if prev, ok := n.replicas[r.PathValue("key")]; ok && seq < prev.seq {
			w.WriteHeader(http.StatusConflict)
			return
		}
		n.replicas[r.PathValue("key")] = fakeReplica{seq: seq, data: data}
		fmt.Fprint(w, `{"status":"stored"}`)
	})
	mux.HandleFunc("GET /v1/replicas", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		list := server.ReplicaList{}
		for key, rep := range n.replicas {
			tenant, token := "", key
			if t, tok, ok := strings.Cut(key, "@"); ok {
				tenant, token = t, tok
			}
			list.Replicas = append(list.Replicas, server.ReplicaInfo{
				Key: key, Token: token, Tenant: tenant, Seq: rep.seq, Size: len(rep.data)})
		}
		n.mu.Unlock()
		_ = json.NewEncoder(w).Encode(list)
	})
	mux.HandleFunc("GET /v1/replicas/{key}", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		rep, ok := n.replicas[r.PathValue("key")]
		n.mu.Unlock()
		if !ok {
			http.Error(w, "no replica", http.StatusNotFound)
			return
		}
		w.Header().Set(server.MutationSeqHeader, fmt.Sprint(rep.seq))
		_, _ = w.Write(rep.data)
	})
	mux.HandleFunc("DELETE /v1/replicas/{key}", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		_, ok := n.replicas[r.PathValue("key")]
		delete(n.replicas, r.PathValue("key"))
		n.mu.Unlock()
		if !ok {
			http.Error(w, "no replica", http.StatusNotFound)
			return
		}
		fmt.Fprint(w, `{"status":"deleted"}`)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/status", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		_, ok := n.sessions[r.PathValue("id")]
		n.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "session not found"})
			return
		}
		fmt.Fprintf(w, `{"id":%q}`, r.PathValue("id"))
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		_, ok := n.sessions[r.PathValue("id")]
		delete(n.sessions, r.PathValue("id"))
		n.mu.Unlock()
		if !ok {
			http.Error(w, "no session", http.StatusNotFound)
			return
		}
		fmt.Fprint(w, `{"status":"deleted"}`)
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func sortSessions(s []server.SessionInfo) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (n *fakeNode) failing() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

func (n *fakeNode) record(r *http.Request) {
	n.mu.Lock()
	n.calls = append(n.calls, r.Method+" "+r.URL.Path)
	n.mu.Unlock()
}

func (n *fakeNode) has(token string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.sessions[token]
	return ok
}

func (n *fakeNode) put(token, tenant string) {
	n.mu.Lock()
	n.sessions[token] = fakeSession{tenant: tenant}
	n.mu.Unlock()
}

// saw reports whether the node ever received a given "METHOD path" call.
func (n *fakeNode) saw(call string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.calls {
		if c == call {
			return true
		}
	}
	return false
}

// newTestProxy builds a proxy over k fake nodes. The health loop is not
// started — membership changes are test-driven.
func newTestProxy(t *testing.T, k int, tweak func(*Config)) (*Proxy, []*fakeNode, *httptest.Server) {
	t.Helper()
	nodes := make([]*fakeNode, k)
	urls := make([]string, k)
	for i := range nodes {
		nodes[i] = newFakeNode(t)
		urls[i] = nodes[i].ts.URL
	}
	cfg := Config{Nodes: urls, HealthEvery: time.Hour}
	if tweak != nil {
		tweak(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, nodes, ts
}

// nodeByURL maps a ring member back to its fake.
func nodeByURL(nodes []*fakeNode, url string) *fakeNode {
	for _, n := range nodes {
		if n.ts.URL == url {
			return n
		}
	}
	return nil
}

func TestProxyCreateLandsOnRingOwner(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, nil)
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var created server.CreateSessionResponse
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: code = %d", resp.StatusCode)
		}
		token := created.Session.ID
		owner := p.currentRing().Lookup(token)
		if own := nodeByURL(nodes, owner); own == nil || !own.has(token) {
			t.Fatalf("session %s not on its ring owner %s", token, owner)
		}
		// Follow-up verbs route to the same node.
		st, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
		if err != nil {
			t.Fatal(err)
		}
		st.Body.Close()
		if st.StatusCode != http.StatusOK {
			t.Fatalf("status via proxy: code = %d", st.StatusCode)
		}
	}
}

func TestProxyListMergesNodes(t *testing.T) {
	_, nodes, ts := newTestProxy(t, 3, nil)
	want := map[string]bool{}
	for i, n := range nodes {
		token := strings.Repeat(fmt.Sprintf("%x", i+1), 32)[:32]
		n.put(token, "")
		want[token] = true
	}
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list server.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != len(want) {
		t.Fatalf("merged list has %d sessions, want %d: %+v", len(list.Sessions), len(want), list)
	}
	for i := 1; i < len(list.Sessions); i++ {
		if list.Sessions[i-1].ID >= list.Sessions[i].ID {
			t.Fatal("merged list not sorted by id")
		}
	}
	for _, s := range list.Sessions {
		if !want[s.ID] {
			t.Fatalf("unexpected session %s in merged list", s.ID)
		}
	}
}

func TestProxyRemoveNodeMigratesSessions(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, nil)
	// Create enough sessions that every node owns some.
	var tokens []string
	for i := 0; i < 12; i++ {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var created server.CreateSessionResponse
		_ = json.NewDecoder(resp.Body).Decode(&created)
		resp.Body.Close()
		tokens = append(tokens, created.Session.ID)
	}
	victim := p.currentRing().Lookup(tokens[0])
	if err := p.RemoveNode(context.Background(), victim); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if nodeByURL(nodes, victim).hasAny() {
		t.Fatal("drained node still holds sessions")
	}
	ring := p.currentRing()
	if ring.Has(victim) {
		t.Fatal("drained node still in ring")
	}
	for _, token := range tokens {
		owner := ring.Lookup(token)
		if own := nodeByURL(nodes, owner); own == nil || !own.has(token) {
			t.Fatalf("session %s not on post-drain owner %s", token, owner)
		}
		resp, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s unreachable after drain: %d", token, resp.StatusCode)
		}
	}
	// The ring change is observable on the proxy's own health surface.
	var health struct {
		RingVersion uint64 `json:"ring_version"`
		LiveNodes   int    `json:"live_nodes"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.LiveNodes != 2 {
		t.Fatalf("healthz live_nodes = %d, want 2", health.LiveNodes)
	}
}

func (n *fakeNode) hasAny() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.sessions) > 0
}

// TestProxyMigrationPreservesTenant pins the ownership half of a move: the
// import must carry the source session's tenant, or a migrated session
// would go unowned and leak across tenants.
func TestProxyMigrationPreservesTenant(t *testing.T) {
	p, nodes, _ := newTestProxy(t, 2, nil)
	ring := p.currentRing()
	token := strings.Repeat("ab", 16)
	src := ring.Lookup(token)
	dst := ring.Nodes()[0]
	if dst == src {
		dst = ring.Nodes()[1]
	}
	nodeByURL(nodes, src).put(token, "acme")
	// Drain src: the session must land on dst with its tenant intact.
	if err := p.RemoveNode(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	d := nodeByURL(nodes, dst)
	d.mu.Lock()
	s, ok := d.sessions[token]
	d.mu.Unlock()
	if !ok {
		t.Fatal("session did not land on the surviving node")
	}
	if s.tenant != "acme" {
		t.Fatalf("migrated session tenant = %q, want acme", s.tenant)
	}
	if s.snap == nil {
		t.Fatal("import carried no snapshot bytes")
	}
}

// TestProxyStaleSourceResolvedBySweep drives the delete-failure path: the
// destination copy wins immediately and is ledgered as the only
// authoritative one; a ring flip back to the stale node must NOT route to
// the superseded copy; and once deletes heal, exactly one copy — the fresh
// one, identified by its mutated snapshot bytes — survives on the ring
// owner.
func TestProxyStaleSourceResolvedBySweep(t *testing.T) {
	faults := faultfs.New(1)
	p, nodes, ts := newTestProxy(t, 2, func(c *Config) { c.Faults = faults })
	ring := p.currentRing()
	token := strings.Repeat("cd", 16)
	src := ring.Lookup(token)
	dst := ring.Nodes()[0]
	if dst == src {
		dst = ring.Nodes()[1]
	}
	nodeByURL(nodes, src).put(token, "")
	faults.Set(FaultDelete, faultfs.Rule{P: 1})
	if err := p.RemoveNode(context.Background(), src); err != nil {
		t.Fatalf("drain with failing delete: %v", err)
	}
	// Both copies exist (delete was eaten), but routing prefers dst.
	if !nodeByURL(nodes, src).has(token) || !nodeByURL(nodes, dst).has(token) {
		t.Fatal("expected transient src+dst overlap after failed delete")
	}
	// Mark the fresh copy so the end state proves which one survived: the
	// destination copy diverges from the stale one the moment feedback
	// lands on it, and v2 stands in for that drift.
	fresh := []byte("snap-" + token + "-v2")
	d := nodeByURL(nodes, dst)
	d.mu.Lock()
	d.sessions[token] = fakeSession{snap: fresh}
	d.mu.Unlock()
	statusCall := "GET /v1/sessions/" + token + "/status"
	mustStatus := func(label string) {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: session unreachable: %d", label, resp.StatusCode)
		}
	}
	mustStatus("during overlap")
	if nodeByURL(nodes, src).saw(statusCall) {
		t.Fatal("a request routed to the stale source copy during the overlap")
	}
	// Ring flips back while deletes are still failing: the token's hash
	// owner is src again — the node holding the SUPERSEDED copy. The
	// ledger's routing pin must keep serving the fresh dst copy.
	if err := p.AddNode(context.Background(), src); err == nil {
		t.Fatal("rebalance onto a node holding an undeletable stale copy should report the stuck move")
	}
	mustStatus("after ring flip-back")
	if nodeByURL(nodes, src).saw(statusCall) {
		t.Fatal("ring flip-back routed to the stale copy; the fresh one must stay pinned")
	}
	// Deletes heal: the sweep removes the stale copy, then the rebalance
	// moves the fresh copy onto its ring owner.
	faults.Clear()
	if err := p.Rebalance(context.Background()); err != nil {
		t.Fatalf("healed rebalance: %v", err)
	}
	ring = p.currentRing()
	owner := ring.Lookup(token)
	copies := 0
	for _, n := range nodes {
		if n.has(token) {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("session exists on %d nodes after heal, want exactly 1", copies)
	}
	own := nodeByURL(nodes, owner)
	if !own.has(token) {
		t.Fatalf("surviving copy is not on the ring owner %s", owner)
	}
	own.mu.Lock()
	got := own.sessions[token].snap
	own.mu.Unlock()
	if string(got) != string(fresh) {
		t.Fatalf("the STALE copy survived the heal: snap = %q, want %q", got, fresh)
	}
}

// TestProxyFailoverRestoresFromSnapshots covers the crash path: a dead
// node's sessions come back on the survivors from its snapshot directory,
// and the recovered files are renamed so a node restart cannot resurrect
// stale copies.
func TestProxyFailoverRestoresFromSnapshots(t *testing.T) {
	dir := t.TempDir()
	var deadURL string
	p, nodes, ts := newTestProxy(t, 3, func(c *Config) {
		c.DataDirs = map[string]string{c.Nodes[2]: dir}
		deadURL = c.Nodes[2]
	})
	tokens := []string{strings.Repeat("11", 16), strings.Repeat("22", 16)}
	for i, token := range tokens {
		name := token + ".snap"
		if i == 1 {
			name = "acme@" + name
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte("snap-"+token), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the node the way the health loop would see it, then fail over.
	dead := nodeByURL(nodes, deadURL)
	dead.mu.Lock()
	dead.down = true
	dead.mu.Unlock()
	p.mu.Lock()
	p.nodes[deadURL].live = false
	p.ring = p.ring.Remove(deadURL)
	p.mu.Unlock()
	p.failover(context.Background(), deadURL)

	ring := p.currentRing()
	for i, token := range tokens {
		owner := ring.Lookup(token)
		own := nodeByURL(nodes, owner)
		if own == nil || !own.has(token) {
			t.Fatalf("session %s not recovered onto ring owner %s", token, owner)
		}
		own.mu.Lock()
		s := own.sessions[token]
		own.mu.Unlock()
		if string(s.snap) != "snap-"+token {
			t.Fatalf("recovered snapshot bytes = %q", s.snap)
		}
		if i == 1 && s.tenant != "acme" {
			t.Fatalf("recovered session tenant = %q, want acme", s.tenant)
		}
		resp, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recovered session unreachable: %d", resp.StatusCode)
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("recovered snapshots not renamed: %v", left)
	}
}

// TestProxy404RetryableWhileUnsettled: during a migration/recovery window
// a 404 from a node means "in flight", and the proxy must answer with the
// retryable 503 dialect instead.
func TestProxy404RetryableWhileUnsettled(t *testing.T) {
	p, _, ts := newTestProxy(t, 1, nil)
	token := strings.Repeat("ee", 16)
	p.mu.Lock()
	p.recover++
	p.mu.Unlock()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsettled 404: code = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("unsettled 503 missing Retry-After")
	}
	p.mu.Lock()
	p.recover--
	p.settleTil = time.Time{}
	p.mu.Unlock()
	resp, err = http.Get(ts.URL + "/v1/sessions/" + token + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("settled miss: code = %d, want 404", resp.StatusCode)
	}
}

// TestProxyHealthLoopDetectsDeath runs the real membership loop against a
// fake node flipping down and back up.
func TestProxyHealthLoopDetectsDeath(t *testing.T) {
	p, nodes, _ := newTestProxy(t, 2, func(c *Config) {
		c.HealthEvery = 10 * time.Millisecond
		c.FailAfter = 2
		c.SettleGrace = 50 * time.Millisecond
	})
	p.Start()
	defer p.Close()
	victim := nodes[1]
	victim.mu.Lock()
	victim.down = true
	victim.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for p.currentRing().Has(victim.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("health loop never removed the dead node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.mu.Lock()
	victim.down = false
	victim.mu.Unlock()
	deadline = time.Now().Add(2 * time.Second)
	for !p.currentRing().Has(victim.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("health loop never re-admitted the recovered node")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouteTokenZeroAlloc pins the proxy's per-request routing cost — an
// override check plus a ring lookup — at zero heap allocations.
func TestRouteTokenZeroAlloc(t *testing.T) {
	p, _, _ := newTestProxy(t, 3, nil)
	token := strings.Repeat("ff", 16)
	allocs := testing.AllocsPerRun(200, func() {
		if p.routeToken(token) == "" {
			t.Fail()
		}
	})
	if allocs != 0 {
		t.Fatalf("routeToken allocates %.1f times per call, want 0", allocs)
	}
}

// TestCreateHeaderRewriteAllocBound pins the create path's header work
// (assign-token header set on a live header map) to a fixed small bound.
func TestCreateHeaderRewriteAllocBound(t *testing.T) {
	h := make(http.Header, 4)
	token := strings.Repeat("aa", 16)
	allocs := testing.AllocsPerRun(200, func() {
		h.Set(server.AssignTokenHeader, token)
	})
	if allocs > 2 {
		t.Fatalf("header rewrite allocates %.1f times per call, want <= 2", allocs)
	}
}

// TestUpstreamConnectionsReused pins the body drain on the proxy's own
// upstream calls: health probes, replica PUTs (200 and 409), replica
// deletes, session imports (201 and 409) and session deletes all answer
// with a body the proxy does not need. Each must still be read to EOF, or
// the transport drops the connection and the next call dials a new one.
func TestUpstreamConnectionsReused(t *testing.T) {
	var round atomic.Int64 // odd rounds answer the conflict variants
	reply := func(w http.ResponseWriter, ok, conflict int) {
		code := ok
		if round.Load()%2 == 1 {
			code = conflict
		}
		w.WriteHeader(code)
		fmt.Fprint(w, `{"status":"ok","detail":"a body the proxy does not read"}`)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, http.StatusOK)
	})
	mux.HandleFunc("PUT /v1/replicas/{key}", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, http.StatusConflict)
	})
	mux.HandleFunc("DELETE /v1/replicas/{key}", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, http.StatusOK)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusCreated, http.StatusConflict)
	})
	mux.HandleFunc("DELETE /v1/sessions/{token}", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, http.StatusOK)
	})
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	p, err := New(Config{Nodes: []string{ts.URL}, HealthEvery: time.Hour, Client: &http.Client{Transport: &http.Transport{}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		round.Store(int64(i))
		if !p.probe(ts.URL) {
			t.Fatalf("round %d: probe failed", i)
		}
		if err := p.putReplica(ctx, ts.URL, "k", uint64(i+1), []byte("snap")); err != nil {
			t.Fatalf("round %d: putReplica: %v", i, err)
		}
		if err := p.deleteReplica(ctx, ts.URL, "k"); err != nil {
			t.Fatalf("round %d: deleteReplica: %v", i, err)
		}
		if err := p.importSession(ctx, ts.URL, "tok", "", []byte("snap")); err != nil {
			t.Fatalf("round %d: importSession: %v", i, err)
		}
		if err := p.deleteSession(ctx, ts.URL, "tok"); err != nil {
			t.Fatalf("round %d: deleteSession: %v", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("100 sequential upstream calls opened %d connections, want 1", n)
	}
}
