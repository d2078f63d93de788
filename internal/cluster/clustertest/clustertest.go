// Package clustertest boots a real multi-node gdrd cluster inside one
// process: K genuine server.Server instances (cluster mode, each with its
// own snapshot directory) listening on loopback ports, fronted by a real
// cluster.Proxy served on a loopback gateway. The equivalence suites drive
// oracle repair traffic through the proxy, inject ring changes (graceful
// drains, node crashes, fault-injected migrations) mid-session, and assert
// that a migrated session remains byte-identical to an unmigrated control
// at the same trace point — the equivalence bar that proves live migration
// safe. gdrload's -proxy mode boots the same rig, so the kill-under-load
// drive runs the code those suites prove.
package clustertest

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"gdr/internal/cluster"
	"gdr/internal/core"
	"gdr/internal/faultfs"
	"gdr/internal/server"
)

// Node is one booted gdrd server.
type Node struct {
	URL     string
	DataDir string

	srv *server.Server
	hs  *http.Server // nil while the node is killed
}

// Options shapes a cluster.
type Options struct {
	// N is the node count (default 3).
	N int
	// VNodes overrides the ring's virtual-node count (ring default if 0).
	VNodes int
	// Workers is each node's CPU-slot budget (default 2).
	Workers int
	// SessionWorkers is each session's intra-request fan-out (default 1).
	SessionWorkers int
	// Faults plugs a proxy-side injector into the migration machinery.
	Faults *faultfs.Injector
	// HealthEvery / FailAfter / SettleGrace tune the membership loop
	// (fast defaults: 50ms / 2 / 250ms).
	HealthEvery time.Duration
	FailAfter   int
	SettleGrace time.Duration
}

// Cluster is the booted rig: nodes, proxy, and the proxy's front door.
type Cluster struct {
	opts  Options
	Nodes []*Node
	Proxy *cluster.Proxy
	gw    *http.Server
	url   string
}

// quietLogger drops everything below Error — the rig boots and kills whole
// servers, and their routine lifecycle chatter would bury the caller's
// output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// New boots the nodes, each on a fresh temporary data dir, then the proxy
// and its gateway. On error everything already booted is torn down. Close
// stops the rig and removes the data dirs.
func New(opts Options) (*Cluster, error) {
	if opts.N <= 0 {
		opts.N = 3
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.SessionWorkers <= 0 {
		opts.SessionWorkers = 1
	}
	if opts.HealthEvery <= 0 {
		opts.HealthEvery = 50 * time.Millisecond
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = 2
	}
	if opts.SettleGrace <= 0 {
		opts.SettleGrace = 250 * time.Millisecond
	}
	c := &Cluster{opts: opts}
	urls := make([]string, 0, opts.N)
	dataDirs := make(map[string]string, opts.N)
	for i := 0; i < opts.N; i++ {
		dir, err := os.MkdirTemp("", "clustertest-node-*")
		if err != nil {
			c.Close()
			return nil, err
		}
		n := &Node{DataDir: dir}
		c.Nodes = append(c.Nodes, n)
		if err := c.boot(n, "127.0.0.1:0"); err != nil {
			c.Close()
			return nil, err
		}
		urls = append(urls, n.URL)
		dataDirs[n.URL] = dir
	}
	p, err := cluster.New(cluster.Config{
		Nodes:       urls,
		DataDirs:    dataDirs,
		VNodes:      opts.VNodes,
		HealthEvery: opts.HealthEvery,
		FailAfter:   opts.FailAfter,
		SettleGrace: opts.SettleGrace,
		Logger:      quietLogger(),
		Faults:      opts.Faults,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Proxy = p
	p.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.gw = &http.Server{Handler: p.Handler()}
	c.url = "http://" + ln.Addr().String()
	go serve(c.gw, ln)
	return c, nil
}

// boot starts a gdrd server for n on addr ("127.0.0.1:0" picks a port)
// over n's data dir. New and Restart both come through here.
func (c *Cluster) boot(n *Node, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{
		ClusterMode: true,
		DataDir:     n.DataDir,
		Workers:     c.opts.Workers,
		MaxSessions: -1,
		TTL:         time.Hour,
		Session:     core.Config{Workers: c.opts.SessionWorkers},
		Logger:      quietLogger(),
	})
	hs := &http.Server{Handler: srv.Handler()}
	n.URL = "http://" + ln.Addr().String()
	n.srv, n.hs = srv, hs
	go serve(hs, ln)
	return nil
}

// serve runs hs on ln until it is closed.
func serve(hs *http.Server, ln net.Listener) {
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
		// The rig closes listeners on purpose; anything else is worth
		// surfacing.
		os.Stderr.WriteString("clustertest: serve: " + err.Error() + "\n")
	}
}

// URL is the cluster's front door — clients talk only to the proxy.
func (c *Cluster) URL() string { return c.url }

// Client returns an HTTP client for the gateway.
func (c *Cluster) Client() *http.Client { return http.DefaultClient }

// Kill makes node i drop off the network abruptly, like a crashed process:
// its listener closes mid-flight and nothing drains. The node's snapshot
// directory survives — that is what the proxy's disk failover restores
// from.
func (c *Cluster) Kill(i int) {
	n := c.Nodes[i]
	if n.hs == nil {
		return
	}
	_ = n.hs.Close()
	n.srv.Close()
	n.hs, n.srv = nil, nil
}

// Restart boots a replacement server for a killed node on the same
// address and data dir — the "replacement node" heal path. The health loop
// re-admits it once it answers probes.
func (c *Cluster) Restart(i int) error {
	n := c.Nodes[i]
	if n.hs != nil {
		return errors.New("clustertest: Restart of a live node")
	}
	return c.boot(n, strings.TrimPrefix(n.URL, "http://"))
}

// Drain gracefully removes node i from the ring, migrating its sessions.
func (c *Cluster) Drain(ctx context.Context, i int) error {
	return c.Proxy.RemoveNode(ctx, c.Nodes[i].URL)
}

// AddBack re-admits a drained node and rebalances onto it.
func (c *Cluster) AddBack(ctx context.Context, i int) error {
	return c.Proxy.AddNode(ctx, c.Nodes[i].URL)
}

// Owner returns the index of the node currently owning a token on the
// ring, or -1.
func (c *Cluster) Owner(token string) int {
	owner := c.Proxy.Ring().Lookup(token)
	for i, n := range c.Nodes {
		if n.URL == owner {
			return i
		}
	}
	return -1
}

// Close tears the whole rig down and removes the node data dirs. It is
// safe to call more than once.
func (c *Cluster) Close() {
	if c.gw != nil {
		_ = c.gw.Close()
		c.gw = nil
	}
	if c.Proxy != nil {
		c.Proxy.Close()
		c.Proxy = nil
	}
	for i, n := range c.Nodes {
		c.Kill(i)
		_ = os.RemoveAll(n.DataDir)
	}
}
