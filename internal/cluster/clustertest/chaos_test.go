package clustertest

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"gdr/internal/cluster"
	"gdr/internal/faultfs"
	"gdr/internal/server"
)

// The migration chaos drive: the same lockstep oracle loop as the
// equivalence suite, but every ring change happens under an injected
// migration fault — a failed export, a failed import, and a failed source
// delete followed by the stale node crashing and coming back. After every
// heal the cluster session must be byte-identical to the unmigrated
// control, the session must never be lost (unreachable) or duplicated
// (two live authoritative copies), and the drive must still finish with
// repairs applied.

// sessionCopies counts how many live nodes hold a copy of the token —
// asked of the nodes directly, not through the proxy, so routing overrides
// cannot hide a duplicate.
func sessionCopies(t testing.TB, c *testRig, token string) int {
	t.Helper()
	copies := 0
	for _, n := range c.Nodes {
		if n.hs == nil {
			continue // killed
		}
		resp, err := http.Get(n.URL + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		var list server.SessionList
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range list.Sessions {
			if s.ID == token {
				copies++
			}
		}
	}
	return copies
}

// mustCopies asserts the never-lost / never-duplicated invariant.
func mustCopies(t testing.TB, c *testRig, token string, want int, label string) {
	t.Helper()
	if got := sessionCopies(t, c, token); got != want {
		t.Fatalf("%s: session %s exists on %d nodes, want %d", label, token, got, want)
	}
}

// waitConverged blocks until the proxy's stale ledger drains (the health
// loop's sweep runs every HealthEvery).
func waitConverged(t testing.TB, c *testRig, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for c.Proxy.StaleCount() > 0 {
		if time.Now().After(end) {
			t.Fatalf("stale ledger never drained (%d entries left)", c.Proxy.StaleCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterMigrationChaos(t *testing.T) {
	n, maxRounds := 120, 80
	if testing.Short() {
		n, maxRounds = 80, 50
	}
	const seed = int64(23)
	csvText, rulesText, d := hospitalUpload(t, n, seed)

	faults := faultfs.New(7)
	c := Start(t, Options{N: 3, Faults: faults})
	control := newControlServer(t, 2, 1)
	ctx := context.Background()

	cs := createSession(t, c.Client(), c.URL(), csvText, rulesText, seed)
	ctl := createSession(t, control.Client(), control.URL, csvText, rulesText, seed)
	token := cs.id

	equal := func(label string) {
		t.Helper()
		mustEqualObservation(t, label, observe(t, cs), observe(t, ctl))
	}

	phases := 0
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		clusterTrace, more := driveRound(t, cs, d.Truth)
		controlTrace, controlMore := driveRound(t, ctl, d.Truth)
		if more != controlMore {
			t.Fatalf("round %d: cluster done=%v but control done=%v", rounds, !more, !controlMore)
		}
		if !more {
			break
		}
		if verbs, controlVerbs := clusterTrace.Verbs, controlTrace.Verbs; len(verbs) != len(controlVerbs) {
			t.Fatalf("round %d diverges: %+v vs %+v", rounds, clusterTrace, controlTrace)
		}

		switch rounds {
		case 1:
			// Phase A — export fails mid-drain. The session must stay on the
			// source (the only complete copy) and stay reachable through the
			// proxy's override, then move cleanly once exports heal.
			owner := c.Owner(token)
			faults.Set(cluster.FaultExport, faultfs.Rule{P: 1})
			if err := c.Drain(ctx, owner); err == nil {
				t.Fatal("phase A: drain with failing exports should report the stuck move")
			}
			mustCopies(t, c, token, 1, "phase A mid-fault")
			equal("phase A mid-fault")
			faults.Clear()
			if err := c.Drain(ctx, owner); err != nil {
				t.Fatalf("phase A: healed drain: %v", err)
			}
			if c.Owner(token) == owner {
				t.Fatal("phase A: session owner unchanged after drain")
			}
			mustCopies(t, c, token, 1, "phase A healed")
			equal("phase A healed")
			if err := c.AddBack(ctx, owner); err != nil {
				t.Fatalf("phase A: add back: %v", err)
			}
			equal("phase A restored")
			phases++
		case 3:
			// Phase B — import fails mid-drain: same contract, the copy on
			// the destination must never half-exist.
			owner := c.Owner(token)
			faults.Set(cluster.FaultImport, faultfs.Rule{P: 1})
			if err := c.Drain(ctx, owner); err == nil {
				t.Fatal("phase B: drain with failing imports should report the stuck move")
			}
			mustCopies(t, c, token, 1, "phase B mid-fault")
			equal("phase B mid-fault")
			faults.Clear()
			if err := c.Drain(ctx, owner); err != nil {
				t.Fatalf("phase B: healed drain: %v", err)
			}
			mustCopies(t, c, token, 1, "phase B healed")
			equal("phase B healed")
			if err := c.AddBack(ctx, owner); err != nil {
				t.Fatalf("phase B: add back: %v", err)
			}
			equal("phase B restored")
			phases++
		case 5:
			// Phase C — the source delete fails: the move itself succeeds and
			// a superseded copy lingers on the drained node. The stale node
			// then crashes and restarts (resurrecting the stale copy from its
			// own snapshot file) before deletes heal. The ledger must keep
			// routing pinned to the fresh copy throughout and sweep the
			// resurrected one away.
			owner := c.Owner(token)
			faults.Set(cluster.FaultDelete, faultfs.Rule{P: 1})
			if err := c.Drain(ctx, owner); err != nil {
				t.Fatalf("phase C: drain: %v", err)
			}
			mustCopies(t, c, token, 2, "phase C stale overlap")
			if c.Proxy.StaleCount() != 1 {
				t.Fatalf("phase C: stale ledger = %d, want 1", c.Proxy.StaleCount())
			}
			equal("phase C stale overlap")
			c.Kill(owner)
			faults.Clear()
			c.Restart(owner)
			waitConverged(t, c, 5*time.Second)
			mustCopies(t, c, token, 1, "phase C converged")
			equal("phase C converged")
			if err := c.AddBack(ctx, owner); err != nil {
				t.Fatalf("phase C: add back: %v", err)
			}
			mustCopies(t, c, token, 1, "phase C restored")
			equal("phase C restored")
			phases++
		}
	}
	if phases != 3 {
		t.Fatalf("only %d of 3 chaos phases ran (repair finished after %d rounds)", phases, rounds)
	}
	equal("final")

	var status map[string]any
	if code := doJSON(t, cs.client, "GET", cs.url("/status"), nil, &status); code != 200 {
		t.Fatalf("status: %d", code)
	}
	if status["stats"].(map[string]any)["applied"].(float64) == 0 {
		t.Fatal("no repairs applied over the whole chaos drive")
	}
}
