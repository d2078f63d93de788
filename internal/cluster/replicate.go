package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"gdr/internal/server"
)

// Shared-nothing session replication. Every session's latest snapshot
// lives in two places: on its ring owner (the primary, serving traffic)
// and in the replica spill store of the next distinct ring node. The proxy
// drives the copies:
//
//	push    — after every mutating round (feedback 200, create 201) the
//	          session's token is queued; the replicator exports the
//	          snapshot from the primary and PUTs it to the replica node,
//	          watermarked with the mutation sequence the bytes capture.
//	          The store rejects stale watermarks, so a delayed push can
//	          never roll a replica back.
//	promote — when a node dies, failover() pulls the freshest replica of
//	          each of its sessions from the survivors and imports it onto
//	          the new ring owner — no access to the dead node's disk
//	          required. The disk path remains as a fallback for sessions
//	          that never got a replica (single-node rings, push lag).
//	audit   — every health tick the anti-entropy sweep re-derives the
//	          desired placement (primary per ring owner, replica per
//	          LookupReplica) and queues pushes for missing or lagging
//	          replicas. Because the ring only contains live nodes, a dead
//	          replica holder's keys are automatically re-hinted to the
//	          next distinct survivor, and move back when it rejoins.
//	gc      — replicas whose session is gone or whose placement moved are
//	          deleted, but only in a quiet cluster (every configured node
//	          live, no inventory errors, no failover or migration in
//	          flight): deleting a copy is the one irreversible act here,
//	          so it waits until the sweep can see the whole board.

// observeForReplication inspects one successful upstream response on the
// proxying hot path and queues replica work. It never blocks: the queue is
// a map merge plus a buffered-channel doorbell.
func (p *Proxy) observeForReplication(resp *http.Response) {
	r := resp.Request
	switch {
	case r.Method == http.MethodPost && resp.StatusCode == http.StatusCreated && r.URL.Path == "/v1/sessions":
		// A fresh session: replicate it right away, so it survives its
		// owner's death even before the first feedback round.
		if token := r.Header.Get(server.AssignTokenHeader); token != "" {
			p.enqueueReplicate(token)
		}
	case r.Method == http.MethodPost && resp.StatusCode == http.StatusOK && strings.HasSuffix(r.URL.Path, "/feedback"):
		if token := sessionTokenFromPath(r.URL.Path); token != "" {
			p.enqueueReplicate(token)
		}
	case r.Method == http.MethodDelete && resp.StatusCode == http.StatusOK:
		if token := sessionTokenFromPath(r.URL.Path); token != "" && !strings.Contains(strings.TrimPrefix(r.URL.Path, "/v1/sessions/"), "/") {
			p.enqueueDrop(token)
		}
	}
}

// sessionTokenFromPath extracts the token segment of /v1/sessions/{id}[/…].
func sessionTokenFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// enqueueReplicate queues one token for a replica push.
func (p *Proxy) enqueueReplicate(token string) {
	p.replMu.Lock()
	p.replPend[token] = struct{}{}
	delete(p.replDrop, token) // a live mutation supersedes a pending drop
	p.replMu.Unlock()
	p.wakeReplicator()
}

// enqueueDrop queues one deleted session's replicas for removal.
func (p *Proxy) enqueueDrop(token string) {
	p.replMu.Lock()
	delete(p.replPend, token)
	p.replDrop[token] = struct{}{}
	p.replMu.Unlock()
	p.wakeReplicator()
}

func (p *Proxy) wakeReplicator() {
	select {
	case p.replWake <- struct{}{}:
	default:
	}
}

// replicator is the background worker draining the push/drop queues. It is
// deliberately not in the request path: feedback latency never waits on a
// replica push, and a slow replica node degrades durability (visible as
// audit re-queues) rather than serving.
func (p *Proxy) replicator() {
	defer p.healthWG.Done()
	for {
		select {
		case <-p.replWake:
			p.drainReplication(context.Background())
		case <-p.stop:
			return
		}
	}
}

// drainReplication processes everything currently queued, in token order.
// A failed push is counted and logged but not re-queued here — the
// anti-entropy audit re-derives the need on the next health tick, which
// also gives the target time to recover.
func (p *Proxy) drainReplication(ctx context.Context) error {
	p.replMu.Lock()
	pushes := make([]string, 0, len(p.replPend))
	for t := range p.replPend {
		pushes = append(pushes, t)
	}
	drops := make([]string, 0, len(p.replDrop))
	for t := range p.replDrop {
		drops = append(drops, t)
	}
	clear(p.replPend)
	clear(p.replDrop)
	p.replMu.Unlock()
	sort.Strings(pushes)
	sort.Strings(drops)
	var firstErr error
	for _, token := range pushes {
		if err := p.pushReplica(ctx, token); err != nil {
			p.reg.Counter("gdrproxy_replica_push_failures_total").Inc()
			p.log.Warn("replica push failed; the audit will retry", "token", token, "err", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, token := range drops {
		p.dropReplicas(ctx, token)
	}
	return firstErr
}

// pushReplica refreshes one session's replica: export from the current
// primary, PUT to the ring's replica node, watermarked.
func (p *Proxy) pushReplica(ctx context.Context, token string) error {
	if err := p.cfg.Faults.Fault(FaultReplicate); err != nil {
		return err
	}
	primary := p.routeToken(token)
	if primary == "" {
		return fmt.Errorf("cluster: no node serves %s", token)
	}
	target := p.currentRing().LookupReplica(token)
	if target == "" {
		return nil // single-node ring: nowhere distinct to replicate
	}
	snap, seq, tenant, err := p.exportSession(ctx, primary, token)
	if errors.Is(err, errSessionGone) {
		// Deleted after the push was queued: there is nothing to push, and
		// the delete queued its own replica drop. Were it moved instead, the
		// audit re-derives placement on the next health tick.
		return nil
	}
	if err != nil {
		return fmt.Errorf("exporting %s from %s: %w", token, primary, err)
	}
	if target == primary {
		// Placement moved while exporting; the next audit re-derives it.
		return nil
	}
	if err := p.putReplica(ctx, target, replicaKey(tenant, token), seq, snap); err != nil {
		return fmt.Errorf("pushing %s to %s: %w", token, target, err)
	}
	p.reg.Counter("gdrproxy_replica_pushes_total").Inc()
	return nil
}

// dropReplicas removes every node's replica of a deleted session.
func (p *Proxy) dropReplicas(ctx context.Context, token string) {
	for _, node := range p.currentRing().Nodes() {
		held, err := p.listReplicas(ctx, node)
		if err != nil {
			continue // the quiet-cluster GC will finish the job
		}
		for _, rep := range held {
			if rep.Token != token {
				continue
			}
			if err := p.deleteReplica(ctx, node, rep.Key); err == nil {
				p.reg.Counter("gdrproxy_replica_drops_total").Inc()
			}
		}
	}
}

// replicaKey renders the spill-store key for a session.
func replicaKey(tenant, token string) string {
	if tenant == "" {
		return token
	}
	return tenant + "@" + token
}

// auditReplicas is the anti-entropy sweep: re-derive the desired replica
// placement from the live session inventory and queue a push for every
// replica that is missing, misplaced, or behind its primary's mutation
// sequence. Runs on every health tick and after ring changes (via the
// tick that applied them).
func (p *Proxy) auditReplicas(ctx context.Context) {
	ring := p.currentRing()
	if ring.Len() < 2 {
		return // no distinct node to hold replicas
	}
	desired := make(map[string]replicaWant) // replica key → requirement
	inventoryOK := true
	for _, node := range ring.Nodes() {
		infos, err := p.listNode(ctx, node, p.adminAuth())
		if err != nil {
			p.log.Warn("replica audit: listing node failed", "node", node, "err", err)
			inventoryOK = false
			continue
		}
		for _, s := range infos {
			if p.staleAt(s.ID) == node || ring.Lookup(s.ID) != node {
				continue // superseded or transient copy; only primaries replicate
			}
			desired[replicaKey(s.Tenant, s.ID)] = replicaWant{token: s.ID, seq: s.MutSeq, target: ring.LookupReplica(s.ID)}
		}
	}
	held := make(map[string]map[string]server.ReplicaInfo) // node → key → info
	for _, node := range ring.Nodes() {
		reps, err := p.listReplicas(ctx, node)
		if err != nil {
			inventoryOK = false
			continue
		}
		byKey := make(map[string]server.ReplicaInfo, len(reps))
		for _, rep := range reps {
			byKey[rep.Key] = rep
		}
		held[node] = byKey
	}
	for key, w := range desired {
		rep, ok := held[w.target][key]
		if !ok || rep.Seq < w.seq {
			p.enqueueReplicate(w.token)
		}
	}
	p.gcReplicas(ctx, desired, held, inventoryOK)
}

// replicaWant is one session's replication requirement, derived from the
// live inventory during an audit.
type replicaWant struct {
	token  string
	seq    uint64
	target string
}

// gcReplicas deletes replicas no longer called for — the session is gone
// or its placement moved — but only in a quiet cluster: every configured
// node live, the whole inventory readable, and no failover or migration in
// flight. During any of those, a copy that looks superfluous may be the
// one copy left, so the sweep keeps it.
func (p *Proxy) gcReplicas(ctx context.Context, desired map[string]replicaWant, held map[string]map[string]server.ReplicaInfo, inventoryOK bool) {
	if !inventoryOK {
		return
	}
	p.mu.Lock()
	quiet := p.recover == 0 && len(p.migrating) == 0 && len(p.stale) == 0
	for _, st := range p.nodes {
		if !st.live {
			quiet = false
			break
		}
	}
	p.mu.Unlock()
	if !quiet {
		return
	}
	for node, byKey := range held {
		for key := range byKey {
			if w, ok := desired[key]; ok && w.target == node {
				continue
			}
			if err := p.deleteReplica(ctx, node, key); err != nil {
				p.log.Warn("replica gc delete failed", "node", node, "key", key, "err", err)
				continue
			}
			p.reg.Counter("gdrproxy_replica_drops_total").Inc()
			p.log.Info("garbage-collected replica", "node", node, "key", key)
		}
	}
}

// SyncReplicas drives replication to convergence right now: drain the
// queue, audit, drain again. Tests and operational scripts call this
// before deliberately killing a node, so the kill provably costs nothing.
func (p *Proxy) SyncReplicas(ctx context.Context) error {
	if err := p.drainReplication(ctx); err != nil {
		return err
	}
	p.auditReplicas(ctx)
	return p.drainReplication(ctx)
}

// putReplica PUTs one watermarked snapshot into a node's spill store.
func (p *Proxy) putReplica(ctx context.Context, node, key string, seq uint64, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, node+"/v1/replicas/"+key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(server.MutationSeqHeader, strconv.FormatUint(seq, 10))
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		// The store already holds a newer copy — a racing push won. Fine.
		return nil
	default:
		return fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
}

// getReplica pulls one replica's bytes and watermark from a node.
func (p *Proxy) getReplica(ctx context.Context, node, key string) ([]byte, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/replicas/"+key, nil)
	if err != nil {
		return nil, 0, err
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	seq, _ := strconv.ParseUint(resp.Header.Get(server.MutationSeqHeader), 10, 64)
	return data, seq, nil
}

// deleteReplica drops one replica from a node's spill store.
func (p *Proxy) deleteReplica(ctx context.Context, node, key string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, node+"/v1/replicas/"+key, nil)
	if err != nil {
		return err
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
	return nil
}

// listReplicas inventories one node's spill store. A node that does not
// expose the replica surface (pre-replication build) reads as empty.
func (p *Proxy) listReplicas(ctx context.Context, node string) ([]server.ReplicaInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/replicas", nil)
	if err != nil {
		return nil, err
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: listing replicas on %s: %s", node, resp.Status)
	}
	var list server.ReplicaList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list.Replicas, nil
}
