package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"gdr/internal/server"
)

// The migration protocol. A session moves in four steps:
//
//	drain   — the token is marked migrating; new requests for it wait
//	export  — POST src/…/snapshot captures the session (the export rides
//	          the source actor queue behind every in-flight command, and
//	          holds an eviction lease, so the bytes are complete and safe)
//	import  — POST dst/v1/sessions with the snapshot body and the
//	          placement headers recreates the session under its original
//	          token and tenant; byte-identical resume (the snapshot
//	          invariant) makes the copy indistinguishable from the source
//	redirect — the source copy is deleted and the routing override drops,
//	          so the ring sends every subsequent request to dst
//
// Failure at any step leaves the session with exactly one authoritative
// copy: export fails → still src; import fails → still src (override
// stays). A failed source delete leaves a superseded copy behind, so the
// proxy records it in the stale ledger and pins the routing override to
// dst: the stale copy is never served — even if the ring later flips back
// to its node — and every sweep retries deleting it until it is gone. The
// ledger is also what keeps the 409 duplicate-token dedup safe: an import
// conflict only ever deletes a copy the ledger (or the move direction)
// proves superseded, never the fresh one.

// migrateTimeout bounds one session move end to end.
const migrateTimeout = 30 * time.Second

// move is one planned session migration.
type move struct {
	token  string
	tenant string
	from   string
	to     string
}

// rebalance sweeps every live node's session set and moves each session
// whose ring owner is no longer the node holding it. Overrides for all
// pending moves are installed before the first migration starts, so a
// request for a not-yet-moved session still reaches its current home.
func (p *Proxy) rebalance(ctx context.Context) error {
	p.sweepStale(ctx)
	ring := p.currentRing()
	var moves []move
	for _, node := range ring.Nodes() {
		infos, err := p.listNode(ctx, node, p.adminAuth())
		if err != nil {
			p.log.Warn("rebalance: listing node failed", "node", node, "err", err)
			continue
		}
		for _, s := range infos {
			if p.staleAt(s.ID) == node {
				continue // superseded copy the sweep could not delete yet
			}
			if want := ring.Lookup(s.ID); want != "" && want != node {
				moves = append(moves, move{token: s.ID, tenant: s.Tenant, from: node, to: want})
			}
		}
	}
	return p.runMoves(ctx, moves)
}

// Rebalance is the operator/test resync entry point: clean superseded
// copies, then move every session back onto its ring owner.
func (p *Proxy) Rebalance(ctx context.Context) error { return p.rebalance(ctx) }

// staleAt returns the node ledgered as holding a superseded copy of the
// token ("" if none).
func (p *Proxy) staleAt(token string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stale[token]
}

// sweepStale retries deleting every ledgered superseded copy. A cleared
// entry also releases the token's routing override when the ring already
// points at the fresh copy's node.
func (p *Proxy) sweepStale(ctx context.Context) {
	p.mu.Lock()
	pending := make([]move, 0, len(p.stale))
	for token, node := range p.stale {
		pending = append(pending, move{token: token, from: node})
	}
	p.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].token < pending[j].token })
	for _, s := range pending {
		err := p.cfg.Faults.Fault(FaultDelete)
		if err == nil {
			err = p.deleteSession(ctx, s.from, s.token)
		}
		if err != nil {
			p.log.Warn("stale copy still undeletable; will retry", "token", s.token, "node", s.from, "err", err)
			continue
		}
		p.clearStale(s.token)
		p.log.Info("deleted superseded session copy", "token", s.token, "node", s.from)
	}
}

// clearStale drops a token's stale-ledger entry, and its routing override
// too once the ring already sends the token to the override's node.
func (p *Proxy) clearStale(token string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.stale, token)
	if ow, ok := p.overrides[token]; ok && p.ring.Lookup(token) == ow {
		delete(p.overrides, token)
	}
}

// StaleCount reports how many superseded session copies the ledger still
// tracks — 0 once the cluster has converged back to one copy per session.
// It is the health loop's retry trigger and the chaos tests' convergence
// probe.
func (p *Proxy) StaleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.stale)
}

// drainNode moves every session off one node (which has already left the
// ring) to the sessions' new ring owners.
func (p *Proxy) drainNode(ctx context.Context, node string) error {
	ring := p.currentRing()
	infos, err := p.listNode(ctx, node, p.adminAuth())
	if err != nil {
		return fmt.Errorf("cluster: draining %s: %w", node, err)
	}
	var moves []move
	for _, s := range infos {
		if p.staleAt(s.ID) == node {
			continue // a superseded copy; the sweep deletes it, never migrates it
		}
		if want := ring.Lookup(s.ID); want != "" {
			moves = append(moves, move{token: s.ID, tenant: s.Tenant, from: node, to: want})
		}
	}
	return p.runMoves(ctx, moves)
}

// runMoves executes planned migrations serially in token order
// (deterministic and gentle: one session is in flight at a time). The
// first error does not stop the sweep — every move is attempted — but is
// reported.
func (p *Proxy) runMoves(ctx context.Context, moves []move) error {
	if len(moves) == 0 {
		return nil
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].token < moves[j].token })
	p.mu.Lock()
	planned := moves[:0]
	for _, m := range moves {
		if _, busy := p.migrating[m.token]; busy {
			continue // someone else is already moving it
		}
		p.overrides[m.token] = m.from
		planned = append(planned, m)
	}
	p.mu.Unlock()
	var firstErr error
	for _, m := range planned {
		if err := p.migrate(ctx, m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// migrate moves one session. On success the override is dropped (the ring
// now routes to dst); on failure the override stays pointing at src, which
// still authoritatively holds the session.
func (p *Proxy) migrate(ctx context.Context, m move) (err error) {
	p.mu.Lock()
	if _, busy := p.migrating[m.token]; busy {
		p.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	p.migrating[m.token] = ch
	p.mu.Unlock()

	start := time.Now()
	moved := false
	staleSrc := false
	defer func() {
		p.mu.Lock()
		delete(p.migrating, m.token)
		switch {
		case moved && staleSrc:
			// The superseded source copy is still alive; pin routing to the
			// fresh destination copy until the sweep deletes it. Without the
			// pin, a later ring flip back to src would serve stale state.
			p.stale[m.token] = m.from
			p.overrides[m.token] = m.to
		case moved:
			if _, lingering := p.stale[m.token]; lingering {
				// An older stale copy is still out there; keep the fresh
				// copy pinned so a ring flip cannot route to it.
				p.overrides[m.token] = m.to
			} else {
				delete(p.overrides, m.token)
			}
		}
		p.mu.Unlock()
		close(ch)
		if err != nil {
			p.reg.Counter("gdrproxy_migration_failures_total").Inc()
			p.log.Warn("migration failed; session stays on source",
				"token", m.token, "from", m.from, "to", m.to, "err", err)
		} else {
			p.reg.Counter("gdrproxy_migrations_total").Inc()
			p.reg.Histogram("gdrproxy_migration_seconds").ObserveSince(start)
			p.log.Info("migrated session", "token", m.token, "from", m.from, "to", m.to,
				"took", time.Since(start))
		}
	}()

	ctx, cancel := context.WithTimeout(ctx, migrateTimeout)
	defer cancel()
	if ferr := p.cfg.Faults.Fault(FaultExport); ferr != nil {
		return fmt.Errorf("cluster: exporting %s from %s: %w", m.token, m.from, ferr)
	}
	snap, _, _, err := p.exportSession(ctx, m.from, m.token)
	if err != nil {
		return fmt.Errorf("cluster: exporting %s from %s: %w", m.token, m.from, err)
	}
	if p.staleAt(m.token) == m.to {
		// The destination holds a superseded copy of this very token. It
		// must go before the import: otherwise the import's 409 would be
		// read as "destination already has it" and the fresh source copy
		// would be deleted.
		derr := p.cfg.Faults.Fault(FaultDelete)
		if derr == nil {
			derr = p.deleteSession(ctx, m.to, m.token)
		}
		if derr != nil {
			return fmt.Errorf("cluster: destination %s holds an undeletable stale copy of %s: %w", m.to, m.token, derr)
		}
		p.clearStale(m.token)
	}
	if ferr := p.cfg.Faults.Fault(FaultImport); ferr != nil {
		return fmt.Errorf("cluster: importing %s onto %s: %w", m.token, m.to, ferr)
	}
	if err := p.importSession(ctx, m.to, m.token, m.tenant, snap); err != nil {
		return fmt.Errorf("cluster: importing %s onto %s: %w", m.token, m.to, err)
	}
	// The destination copy is authoritative from here on; routing flips to
	// it even if the source-side delete fails.
	moved = true
	if ferr := p.cfg.Faults.Fault(FaultDelete); ferr != nil {
		staleSrc = true
		p.reg.Counter("gdrproxy_stale_source_total").Inc()
		p.log.Warn("migration source delete failed; ledgered for the sweep",
			"token", m.token, "from", m.from, "err", ferr)
		return nil
	}
	if err := p.deleteSession(ctx, m.from, m.token); err != nil {
		// Not a failed migration: dst owns the session. The ledger keeps
		// routing pinned to dst and the sweep keeps retrying the delete.
		staleSrc = true
		p.reg.Counter("gdrproxy_stale_source_total").Inc()
		p.log.Warn("migration source delete failed; ledgered for the sweep",
			"token", m.token, "from", m.from, "err", err)
	}
	return nil
}

// errSessionGone marks an export that found no session on the node (a 404):
// it was deleted, or moved, after the caller chose the node.
var errSessionGone = errors.New("session gone")

// exportSession pulls a session's snapshot bytes off a node, plus the
// mutation sequence the bytes capture (the replica push watermark) and the
// owning tenant, both from the export's response headers. A node predating
// those headers yields seq 0 and tenant "" — still importable, just
// watermarked conservatively. A 404 wraps errSessionGone.
func (p *Proxy) exportSession(ctx context.Context, node, token string) ([]byte, uint64, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/sessions/"+token+"/snapshot", nil)
	if err != nil {
		return nil, 0, "", err
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return nil, 0, "", fmt.Errorf("%s: %s: %w", resp.Status, readErrorBody(resp.Body), errSessionGone)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, "", fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, "", err
	}
	seq, _ := strconv.ParseUint(resp.Header.Get(server.MutationSeqHeader), 10, 64)
	return data, seq, resp.Header.Get(server.AssignTenantHeader), nil
}

// importSession recreates a session from snapshot bytes on a node, under
// its original token and tenant. A 409 means the destination already has
// the session (a half-finished earlier move); the destination copy wins
// and the caller proceeds to delete the source.
func (p *Proxy) importSession(ctx context.Context, node, token, tenant string, snap []byte) error {
	body, err := json.Marshal(server.CreateSessionRequest{Snapshot: snap})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.AssignTokenHeader, token)
	if tenant != "" {
		req.Header.Set(server.AssignTenantHeader, tenant)
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusCreated:
		return nil
	case http.StatusConflict:
		p.reg.Counter("gdrproxy_duplicate_imports_total").Inc()
		return nil
	default:
		return fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
}

// deleteSession removes a session from a node.
func (p *Proxy) deleteSession(ctx context.Context, node, token string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, node+"/v1/sessions/"+token, nil)
	if err != nil {
		return err
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
	return nil
}

// failover restores a dead node's sessions onto the survivors. Two
// sources, tried in order:
//
//  1. Replicas — shared-nothing: every survivor's spill store is asked for
//     replicas of sessions that no longer exist anywhere live, and the
//     freshest copy of each is promoted onto its new ring owner. This
//     needs nothing from the dead node, not even its disk.
//  2. The dead node's snapshot directory (when DataDirs maps one) — the
//     fallback for sessions that never got a replica (single-node rings,
//     a push that had not landed yet). Files for already-promoted tokens
//     are neutralized, never imported: the replica is at least as fresh.
//
// Recovered and neutralized files are renamed (<name>.snap.recovered), so
// the dead node restarting later cannot resurrect a stale copy of a
// session that now lives elsewhere.
func (p *Proxy) failover(ctx context.Context, node string) {
	p.mu.Lock()
	p.recover++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.recover--
		p.mu.Unlock()
	}()
	promoted := p.promoteReplicas(ctx, node)
	p.failoverFromDisk(ctx, node, promoted)
}

// promoteReplicas recovers a dead node's sessions from the survivors'
// replica stores, returning the set of promoted tokens. The freshest
// (highest-watermark) copy of each orphaned session wins; after import the
// token is queued for re-replication, so the cluster converges back to
// primary + replica under the new placement.
func (p *Proxy) promoteReplicas(ctx context.Context, node string) map[string]bool {
	promoted := make(map[string]bool)
	ring := p.currentRing()
	if ring.Len() == 0 {
		return promoted
	}
	// Sessions that still exist somewhere live are not orphans — their
	// replicas must stay replicas, or a promotion would fork the session.
	alive := make(map[string]bool)
	for _, n := range ring.Nodes() {
		infos, err := p.listNode(ctx, n, p.adminAuth())
		if err != nil {
			p.log.Warn("failover: listing node failed; skipping replica promotion",
				"node", n, "err", err)
			return promoted
		}
		for _, s := range infos {
			alive[s.ID] = true
		}
	}
	type candidate struct {
		holder string
		info   server.ReplicaInfo
	}
	best := make(map[string]candidate) // replica key → freshest copy
	for _, n := range ring.Nodes() {
		reps, err := p.listReplicas(ctx, n)
		if err != nil {
			p.log.Warn("failover: listing replicas failed", "node", n, "err", err)
			continue
		}
		for _, rep := range reps {
			if alive[rep.Token] {
				continue
			}
			if cur, ok := best[rep.Key]; !ok || rep.Seq > cur.info.Seq {
				best[rep.Key] = candidate{holder: n, info: rep}
			}
		}
	}
	keys := make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		c := best[key]
		token := c.info.Token
		want := ring.Lookup(token)
		if want == "" {
			continue
		}
		data, _, err := p.getReplica(ctx, c.holder, key)
		if err != nil {
			p.reg.Counter("gdrproxy_recovery_failures_total").Inc()
			p.log.Warn("pulling replica for promotion failed", "key", key, "holder", c.holder, "err", err)
			continue
		}
		if err := p.importSession(ctx, want, token, c.info.Tenant, data); err != nil {
			p.reg.Counter("gdrproxy_recovery_failures_total").Inc()
			p.log.Warn("promoting replica failed", "token", token, "to", want, "err", err)
			continue
		}
		promoted[token] = true
		p.reg.Counter("gdrproxy_replica_promotions_total").Inc()
		p.log.Info("promoted replica", "token", token, "seq", c.info.Seq,
			"from", c.holder, "to", want)
		// The promoted copy is the new primary; re-derive its replica.
		p.enqueueReplicate(token)
	}
	if len(promoted) > 0 {
		p.reg.Counter("gdrproxy_recovered_sessions_total").Add(int64(len(promoted)))
	}
	return promoted
}

// failoverFromDisk restores whatever promoteReplicas could not from the
// dead node's snapshot directory, when one is configured.
func (p *Proxy) failoverFromDisk(ctx context.Context, node string, promoted map[string]bool) {
	dir := p.cfg.DataDirs[node]
	if dir == "" {
		if len(promoted) == 0 {
			p.log.Warn("dead node has no data dir and no replicas; its sessions are unrecoverable until it returns", "node", node)
		}
		return
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		p.log.Warn("scanning dead node's data dir failed", "node", node, "dir", dir, "err", err)
		return
	}
	sort.Strings(names)
	ring := p.currentRing()
	recovered := 0
	for _, path := range names {
		token, tenant := parseSnapName(path)
		if token == "" {
			continue
		}
		if promoted[token] {
			// A fresher (or equal) replica already became the new primary;
			// importing the disk copy over it would roll the session back.
			// Neutralize the file so a node restart cannot resurrect it.
			if err := os.Rename(path, path+".recovered"); err != nil {
				p.log.Warn("renaming superseded snapshot failed", "path", path, "err", err)
			}
			continue
		}
		if p.staleAt(token) == node {
			// A superseded copy a failed source delete left behind — the
			// fresh copy lives elsewhere. Neutralize the file instead of
			// restoring it; the dead server's in-memory copy is gone too.
			if err := os.Rename(path, path+".stale"); err != nil {
				p.log.Warn("renaming stale snapshot failed", "path", path, "err", err)
				continue
			}
			p.clearStale(token)
			continue
		}
		want := ring.Lookup(token)
		if want == "" {
			p.log.Warn("no live node to recover session onto", "token", token)
			continue
		}
		if err := p.recoverOne(ctx, path, token, tenant, want); err != nil {
			p.reg.Counter("gdrproxy_recovery_failures_total").Inc()
			p.log.Warn("recovering session failed", "token", token, "to", want, "err", err)
			continue
		}
		recovered++
	}
	p.reg.Counter("gdrproxy_recovered_sessions_total").Add(int64(recovered))
	p.log.Info("dead-node recovery finished", "node", node, "recovered", recovered, "snapshots", len(names))
}

// recoverOne imports one snapshot file onto a live node and renames the
// file so it cannot be restored twice.
func (p *Proxy) recoverOne(ctx context.Context, path, token, tenant, to string) error {
	if ferr := p.cfg.Faults.Fault(FaultRecover); ferr != nil {
		return ferr
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := p.importSession(ctx, to, token, tenant, data); err != nil {
		return err
	}
	if err := os.Rename(path, path+".recovered"); err != nil {
		p.log.Warn("renaming recovered snapshot failed; a node restart may resurrect a stale copy",
			"path", path, "err", err)
	}
	return nil
}

// parseSnapName extracts the token and owning tenant from a snapshot file
// name (<token>.snap or <tenant>@<token>.snap — the store's naming).
func parseSnapName(path string) (token, tenant string) {
	base := strings.TrimSuffix(filepath.Base(path), ".snap")
	tenant, token, owned := strings.Cut(base, "@")
	if !owned {
		return base, ""
	}
	return token, tenant
}

// adminAuth renders the proxy's own Authorization header value ("" in
// open mode).
func (p *Proxy) adminAuth() string {
	if p.cfg.AdminKey == "" {
		return ""
	}
	return "Bearer " + p.cfg.AdminKey
}

func (p *Proxy) setAdminAuth(req *http.Request) {
	if a := p.adminAuth(); a != "" {
		req.Header.Set("Authorization", a)
	}
}

// maxDrain bounds how much of an unread upstream body drainClose reads
// before giving up on reusing the connection.
const maxDrain = 64 << 10

// drainClose reads what is left of an upstream response body (up to
// maxDrain) and closes it. The transport returns a connection to its
// keep-alive pool only once the body was read to EOF; closing an unread
// body kills the connection, and the next call dials a new one.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrain))
	body.Close()
}

// readErrorBody extracts the error string from a gdrd error response,
// falling back to the raw body.
func readErrorBody(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var eb server.ErrorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return strings.TrimSpace(string(data))
}
