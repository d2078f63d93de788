package clustertest

import (
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// testRig is a Cluster whose failures end the test: the suites' view of
// the rig.
type testRig struct {
	*Cluster
	tb testing.TB
}

// Start boots the rig with New and registers its Close on tb.
func Start(tb testing.TB, opts Options) *testRig {
	tb.Helper()
	c, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return &testRig{Cluster: c, tb: tb}
}

// Restart is Cluster.Restart, fatal on error.
func (c *testRig) Restart(i int) {
	c.tb.Helper()
	if err := c.Cluster.Restart(i); err != nil {
		c.tb.Fatalf("clustertest: restarting node %d: %v", i, err)
	}
}

// KillAndWipe is the shared-nothing crash: node i drops off the network
// AND its snapshot directory is destroyed. Nothing of the node survives,
// so recovery must come from the replicas the proxy pushed to the other
// nodes — the disk-failover path has nothing to read.
func (c *testRig) KillAndWipe(i int) {
	c.tb.Helper()
	c.Kill(i)
	if err := os.RemoveAll(c.Nodes[i].DataDir); err != nil {
		c.tb.Fatalf("clustertest: wiping %s: %v", c.Nodes[i].DataDir, err)
	}
}

// WaitReady blocks until the gateway's /readyz reports ready — no failover
// or migration in flight and the post-ring-change settle window closed —
// or the deadline passes.
func (c *testRig) WaitReady(deadline time.Duration) {
	c.tb.Helper()
	end := time.Now().Add(deadline)
	for {
		resp, err := c.Client().Get(c.URL() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(end) {
			c.tb.Fatal("clustertest: gateway never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// WaitRing blocks until the ring's live member count reaches want (the
// health loop runs asynchronously) or the deadline passes.
func (c *testRig) WaitRing(want int, deadline time.Duration) {
	c.tb.Helper()
	end := time.Now().Add(deadline)
	for {
		if c.Proxy.Ring().Len() == want {
			return
		}
		if time.Now().After(end) {
			c.tb.Fatalf("clustertest: ring never reached %d live nodes (have %d)", want, c.Proxy.Ring().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRigLifecycle walks the non-test constructor through a node crash
// and replacement, then a double Close: afterwards no data dir is left and
// no node or gateway port accepts connections.
func TestRigLifecycle(t *testing.T) {
	c, err := New(Options{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	var dirs, addrs []string
	for _, n := range c.Nodes {
		dirs = append(dirs, n.DataDir)
		addrs = append(addrs, strings.TrimPrefix(n.URL, "http://"))
	}
	addrs = append(addrs, strings.TrimPrefix(c.URL(), "http://"))

	resp, err := c.Client().Get(c.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway /healthz = %d", resp.StatusCode)
	}

	c.Kill(1)
	c.Kill(1) // a second kill of a dead node is a no-op
	if _, err := net.DialTimeout("tcp", addrs[1], time.Second); err == nil {
		t.Fatal("killed node still accepts connections")
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[1].URL != "http://"+addrs[1] {
		t.Fatalf("restarted node moved from %s to %s", addrs[1], c.Nodes[1].URL)
	}
	if err := c.Restart(1); err == nil {
		t.Fatal("Restart of a live node accepted")
	}
	resp, err = http.Get(c.Nodes[1].URL + "/healthz")
	if err != nil {
		t.Fatalf("restarted node: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted node /healthz = %d", resp.StatusCode)
	}

	c.Close()
	c.Close()
	for _, dir := range dirs {
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("data dir %s survives Close (stat err %v)", dir, err)
		}
	}
	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections after Close", addr)
		}
	}
}
