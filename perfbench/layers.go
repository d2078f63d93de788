package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// perLayer lists every per-layer metric in output order with its unit. A
// traced run reports all of them; a layer its workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"round.calls", "count"},
	{"round.busy_s", "s"},
	{"unattributed.busy_s", "s"},
	{"trace.round_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"round.p95_ms", "ms"},
	{"feedback.p95_ms", "ms"},
	{"core.new_session.calls", "count"},
	{"core.new_session.busy_s", "s"},
	{"core.new_session.p50_ms", "ms"},
	{"core.groups.calls", "count"},
	{"core.groups.busy_s", "s"},
	{"core.groups.p50_ms", "ms"},
	{"core.groups.p95_ms", "ms"},
	{"core.group_updates.calls", "count"},
	{"core.group_updates.busy_s", "s"},
	{"core.group_updates.p50_ms", "ms"},
	{"core.feedback.calls", "count"},
	{"core.feedback.busy_s", "s"},
	{"core.feedback.p50_ms", "ms"},
	{"repair.suggest.calls", "count"},
	{"repair.suggest.busy_s", "s"},
	{"learn.retrain.calls", "count"},
	{"learn.retrain.busy_s", "s"},
	{"learn.retrain.p50_ms", "ms"},
	{"learn.retrain.p95_ms", "ms"},
	{"learn.predict.calls", "count"},
	{"learn.predict.busy_s", "s"},
	{"learn.retrains_per_item", "ratio"},
	{"server.admit.busy_s", "s"},
	{"server.admit.p50_ms", "ms"},
	{"server.queue.busy_s", "s"},
	{"server.queue.p50_ms", "ms"},
	{"server.queue.p95_ms", "ms"},
	{"server.slot.busy_s", "s"},
	{"server.slot.p50_ms", "ms"},
	{"server.slot.p95_ms", "ms"},
	{"server.exec.busy_s", "s"},
	{"server.exec.p50_ms", "ms"},
	{"server.persist.calls", "count"},
	{"server.persist.busy_s", "s"},
	{"server.persist.p50_ms", "ms"},
	{"server.persist.p95_ms", "ms"},
	{"server.persist.encode.busy_s", "s"},
	{"server.persist.write.busy_s", "s"},
	{"server.persist.fsync.calls", "count"},
	{"server.persist.fsync.busy_s", "s"},
	{"server.persist.rename.busy_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"http.transport.busy_s", "s"},
	{"http.transport.p50_ms", "ms"},
	{"cluster.hop.busy_s", "s"},
	{"cluster.hop.p50_ms", "ms"},
	{"client.retry_wait.busy_s", "s"},
	{"server.export.calls", "count"},
	{"server.export.busy_s", "s"},
	{"server.export.p50_ms", "ms"},
	{"server.replica_put.calls", "count"},
	{"server.replica_put.busy_s", "s"},
	{"server.replica_put.p50_ms", "ms"},
	{"cluster.replica_pushes_per_round", "ratio"},
	{"cluster.replica_push_failures", "count"},
	{"cluster.ring_changes", "count"},
	{"cluster.migrations", "count"},
	{"cluster.promotions", "count"},
	{"cluster.sessions_per_node.max", "count"},
	{"cluster.sessions_per_node.min", "count"},
	{"server.sheds", "count"},
	{"server.groups_304", "count"},
	{"core.items_stale", "count"},
	{"core.dirty_left", "count"},
	{"core.missed_suggestions", "count"},
	{"server.timing_truncated", "count"},
	{"go.alloc_bytes_per_item", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"failed_ops_share", "ratio"},
}

// rollupLayers are the layers whose self times partition the rounds'
// client-observed time; their busy_s values plus unattributed add up to
// round.busy_s.
var rollupLayers = []string{
	"core.groups", "core.group_updates", "core.feedback", "repair.suggest",
	"learn.retrain", "learn.predict",
	"server.admit", "server.queue", "server.slot", "server.exec",
	"server.persist", "server.persist.encode", "server.persist.write",
	"server.persist.fsync", "server.persist.rename",
	"http.transport", "cluster.hop", "client.retry_wait",
}

// splitServed turns the spans of a served run into layers. A call span's
// self time is its hop (loopback HTTP, plus the gateway in the proxy
// topology); its Server-Timing children are the server's root stages,
// named server.<stage>/<route>. The engine phases and checkpoint steps
// inside exec and persist are not in Server-Timing, so they are taken
// from the /metrics deltas of the same requests (gdrd_stage_seconds by
// stage and route) and moved out of the stage that contains them:
//
//	exec/groups   → core.groups (rerank), rest stays server.exec
//	exec/updates  → core.group_updates
//	exec/feedback → repair.suggest, learn.retrain, rest core.feedback
//	persist       → encode (its queue/slot/exec beyond the root ones),
//	                write, fsync, rename; rest stays server.persist
//
// Moving never changes the total, so the rollup still adds up to the
// round time. Route suffixes are then folded away.
func splitServed(t *layerTotals, d promSample, hop string) {
	orig := func(name string) float64 { return sumOf(t.durs[name]) / 1e3 }
	// Feedback rounds whose spans overflowed gdrd's per-request cap lack
	// exec and persist in Server-Timing, so that time sits in the hop. The
	// handler's own histograms see every request: gdrd_feedback_seconds
	// covers queue, slot, exec and persist, gdrd_checkpoint_seconds the
	// persist. Their excess over what Server-Timing reported moves back.
	persist := d.get("gdrd_checkpoint_seconds_sum")
	exec := d.get("gdrd_feedback_seconds_sum") - persist - orig("server.queue/feedback") - orig("server.slot/feedback")
	t.move(hop+"/feedback", "server.exec/feedback", exec-orig("server.exec/feedback"))
	t.move(hop+"/feedback", "server.persist/feedback", persist-orig("server.persist/feedback"))
	t.move("server.exec/groups", "core.groups", d.stageSum("rerank", "groups"))
	t.move("server.exec/updates", "core.group_updates", t.self["server.exec/updates"])
	t.move("server.exec/feedback", "repair.suggest", d.stageSum("suggest", "feedback"))
	t.move("server.exec/feedback", "learn.retrain", d.stageSum("retrain", "feedback"))
	t.move("server.exec/feedback", "core.feedback", t.self["server.exec/feedback"])
	encode := 0.0
	for _, s := range []string{"queue", "slot", "exec"} {
		encode += d.stageSum(s, "feedback") - orig("server."+s+"/feedback")
	}
	t.move("server.persist/feedback", "server.persist.encode", encode)
	for _, s := range []string{"write", "fsync", "rename"} {
		t.move("server.persist/feedback", "server.persist."+s, d.stageSum(s, "feedback"))
	}
	// Per-call distributions of the engine layers are the exec stage of
	// their route, the finest per-request figure Server-Timing gives.
	t.durs["core.groups"] = t.durs["server.exec/groups"]
	t.durs["core.group_updates"] = t.durs["server.exec/updates"]
	t.durs["core.feedback"] = t.durs["server.exec/feedback"]
	t.calls["core.groups"] = int(d.stageCount("rerank", "groups"))
	t.calls["core.group_updates"] = t.calls["server.exec/updates"]
	t.calls["core.feedback"] = t.calls["server.exec/feedback"]
	t.calls["repair.suggest"] = int(d.stageCount("suggest", "feedback"))
	t.calls["learn.retrain"] = int(d.stageCount("retrain", "feedback"))
	t.calls["server.persist.fsync"] = int(d.stageCount("fsync", "feedback"))

	names := make([]string, 0, len(t.self))
	for n := range t.self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		base, _, routed := strings.Cut(n, "/")
		if !routed {
			continue
		}
		t.self[base] += t.self[n]
		t.calls[base] += t.calls[n]
		t.durs[base] = append(t.durs[base], t.durs[n]...)
		delete(t.self, n)
		delete(t.durs, n)
		delete(t.calls, n)
	}
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// layerMetrics fills the per-layer metrics from the traced window and
// prints them, with the check that the layers add up to the round time.
func layerMetrics(res *result, w workload, plain, traced *window, out io.Writer) {
	t := newLayerTotals()
	roundTotal := 0.0 // client-observed, from the round spans themselves
	for _, r := range traced.recs {
		if r == nil {
			continue
		}
		t.rollup(r.spans)
		for _, s := range r.spans {
			if s.Parent < 0 {
				roundTotal += (s.End - s.Start).Seconds()
			}
		}
	}
	if w.topology != "library" {
		hop := "http.transport"
		if w.topology == "proxy" {
			hop = "cluster.hop"
		}
		splitServed(t, traced.nodes, hop)
	}
	st := &traced.st
	items := float64(max(st.items, 1))
	rounds := t.calls["unattributed"]
	v := map[string]float64{
		"round.calls":             float64(rounds),
		"round.busy_s":            roundTotal,
		"unattributed.busy_s":     t.self["unattributed"],
		"trace.round_p50_ms":      median(traced.m.roundMs),
		"core.new_session.calls":  float64(len(traced.setupS)),
		"core.new_session.busy_s": sumOf(traced.setupS),
		"core.new_session.p50_ms": 1e3 * median(traced.setupS),
		"learn.retrains_per_item": float64(t.calls["learn.retrain"]) / items,
		"server.sheds":            float64(st.sheds),
		"server.groups_304":       float64(st.groups304),
		"core.items_stale":        float64(st.stale),
		"core.dirty_left":         float64(traced.dirtyLeft()),
		"core.missed_suggestions": float64(traced.missed),
		"server.timing_truncated": float64(st.truncated),
		"go.alloc_bytes_per_item": float64(traced.allocBytes) / items,
		"go.gc_cycles":            float64(traced.gcCycles),
		"go.gc_pause_s":           traced.gcPause.Seconds(),
		"failed_ops_share":        float64(st.failed) / float64(max(st.ops, 1)),
	}
	// The p95 latencies come from the untraced window, like the end-to-end
	// figures they stand beside.
	for name, xs := range map[string][]float64{"round.p95_ms": plain.m.roundMs, "feedback.p95_ms": plain.m.feedbackMs} {
		if p95, err := percentile(xs, 0.95); err == nil {
			v[name] = p95
		}
	}
	if base := median(plain.m.roundMs); base > 0 {
		v["trace.overhead_pct"] = 100 * (v["trace.round_p50_ms"] - base) / base
	}
	for _, n := range rollupLayers {
		v[n+".busy_s"] = t.self[n]
		v[n+".calls"] = float64(t.calls[n])
		xs := t.durs[n]
		v[n+".p50_ms"] = median(xs)
		if p95, err := percentile(xs, 0.95); err == nil {
			v[n+".p95_ms"] = p95
		}
	}
	var snap, snaps float64
	for _, o := range traced.outcomes {
		if o.snapBytes > 0 {
			snap += float64(o.snapBytes)
			snaps++
		}
	}
	if snaps > 0 {
		v["snapshot.bytes"] = snap / snaps
	}
	if u := traced.upstream; u != nil {
		u.mu.Lock()
		v["server.export.calls"] = float64(len(u.export))
		v["server.export.busy_s"] = sumOf(u.export) / 1e3
		v["server.export.p50_ms"] = median(u.export)
		v["server.replica_put.calls"] = float64(len(u.put))
		v["server.replica_put.busy_s"] = sumOf(u.put) / 1e3
		v["server.replica_put.p50_ms"] = median(u.put)
		u.mu.Unlock()
	}
	if p := traced.proxy; p != nil {
		v["cluster.replica_pushes_per_round"] = p.get("gdrproxy_replica_pushes_total") / float64(max(st.fullRounds(), 1))
		v["cluster.replica_push_failures"] = p.get("gdrproxy_replica_push_failures_total")
		v["cluster.ring_changes"] = p.get("gdrproxy_ring_version")
		v["cluster.migrations"] = p.get("gdrproxy_migrations_total")
		v["cluster.promotions"] = p.get("gdrproxy_replica_promotions_total")
		counts := sortedCounts(traced.perNode, proxyNodes)
		v["cluster.sessions_per_node.max"] = float64(counts[0])
		v["cluster.sessions_per_node.min"] = float64(counts[len(counts)-1])
	}

	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
		fmt.Fprintf(out, "  %-34s %16.6f %s\n", m.name, v[m.name], m.unit)
	}
	sum := t.self["unattributed"]
	for _, n := range rollupLayers {
		sum += t.self[n]
	}
	fmt.Fprintf(out, "  rollup: %d rounds, layers + unattributed = %.6f s of %.6f s client round time; untraced round p50 %.4f ms\n",
		rounds, sum, roundTotal, median(plain.m.roundMs))
}

// sortedCounts returns the session counts of n nodes in descending order;
// nodes that own no session count 0.
func sortedCounts(m map[string]int, n int) []int {
	out := make([]int, max(n, len(m)))
	i := 0
	for _, c := range m {
		out[i] = c
		i++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
