package cluster

import (
	"context"
	"math/rand/v2"
	"net/http"
	"time"
)

// healthLoop is the membership driver: it probes every configured node's
// /healthz on a jittered cadence, declares a node dead after FailAfter
// consecutive failures (removing it from the ring and restoring its
// sessions onto the survivors), and welcomes a recovered node back only
// after FailAfter consecutive successes — symmetric hysteresis, so a node
// flapping at the probe frequency cannot thrash the ring in either
// direction. Ring changes happen only here and in the explicit
// AddNode/RemoveNode calls, so membership is single-writer. Each round
// ends with the replica anti-entropy sweep, which converges every session
// toward one fresh primary plus one fresh replica.
func (p *Proxy) healthLoop() {
	defer p.healthWG.Done()
	timer := time.NewTimer(p.jitteredCadence())
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			p.checkAll()
			p.auditReplicas(context.Background())
			timer.Reset(p.jitteredCadence())
		case <-p.stop:
			return
		}
	}
}

// jitteredCadence spreads probes ±10% around HealthEvery so a fleet of
// proxies started together does not synchronize its probe bursts against
// the nodes.
func (p *Proxy) jitteredCadence() time.Duration {
	d := p.cfg.HealthEvery
	span := int64(d / 5)
	if span <= 0 {
		return d
	}
	return d - d/10 + time.Duration(rand.Int64N(span))
}

// checkAll runs one probe round over the configured node set, then retries
// deleting any ledgered stale session copies.
func (p *Proxy) checkAll() {
	defer func() {
		if p.StaleCount() > 0 {
			p.sweepStale(context.Background())
		}
	}()
	for _, node := range p.cfg.Nodes {
		ok := p.probe(node)
		p.mu.Lock()
		st := p.nodes[node]
		if st == nil {
			p.mu.Unlock()
			continue
		}
		var died, revived bool
		if ok {
			st.fails = 0
			if st.live {
				st.succs = 0
			} else if !st.drained {
				// Hysteresis: one good probe is not proof of life. A node must
				// answer FailAfter times in a row before it re-enters the ring,
				// or a half-up node would bounce sessions on every probe.
				st.succs++
				if st.succs >= p.cfg.FailAfter {
					revived = true
					st.live = true
					st.succs = 0
					p.ring = p.ring.Add(node)
					p.markSettlingLocked()
				}
			}
		} else {
			st.succs = 0
			st.fails++
			if st.live && st.fails >= p.cfg.FailAfter {
				died = true
				st.live = false
				p.ring = p.ring.Remove(node)
				p.markSettlingLocked()
			}
		}
		p.mu.Unlock()
		switch {
		case died:
			p.log.Warn("node declared dead", "node", node, "fail_after", p.cfg.FailAfter)
			p.reg.LabeledCounter("gdrproxy_node_deaths_total", "node", node).Inc()
			p.failover(context.Background(), node)
			p.rebalance(context.Background())
		case revived:
			p.log.Info("node rejoined", "node", node, "after_successes", p.cfg.FailAfter)
			p.reg.LabeledCounter("gdrproxy_node_joins_total", "node", node).Inc()
			p.rebalance(context.Background())
		}
	}
}

// probe is one health check; any 200 /healthz within the cadence counts.
func (p *Proxy) probe(node string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// AddNode grows the ring by one live node and rebalances sessions onto it.
// The node must be in the configured set (static membership: the health
// loop only probes configured nodes). It is the test- and operator-driven
// twin of a health-loop revival, so it skips the hysteresis — the operator
// has asserted the node is fit.
func (p *Proxy) AddNode(ctx context.Context, node string) error {
	p.mu.Lock()
	st := p.nodes[node]
	if st == nil {
		p.mu.Unlock()
		return errUnknownNode(node)
	}
	st.live = true
	st.fails = 0
	st.succs = 0
	st.drained = false
	p.ring = p.ring.Add(node)
	p.markSettlingLocked()
	p.mu.Unlock()
	return p.rebalance(ctx)
}

// RemoveNode gracefully drains a live node: it leaves the ring first (new
// sessions avoid it), then every session it holds is migrated to its new
// ring owner. The node stays up and healthy throughout — this is the
// planned-maintenance path, not the crash path.
func (p *Proxy) RemoveNode(ctx context.Context, node string) error {
	p.mu.Lock()
	st := p.nodes[node]
	if st == nil {
		p.mu.Unlock()
		return errUnknownNode(node)
	}
	st.live = false
	// A drained node stays out until AddNode: it is still healthy, and the
	// health loop must not re-admit it on the next probe.
	st.drained = true
	p.ring = p.ring.Remove(node)
	p.markSettlingLocked()
	p.mu.Unlock()
	return p.drainNode(ctx, node)
}

type errUnknownNode string

func (e errUnknownNode) Error() string { return "cluster: unknown node " + string(e) }
