package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mdcc"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// cluster is the five-process loopback deployment: one server per
// data center, each hosting its DC's storage node and gateway tier.
type cluster struct {
	bin     string
	dir     string
	topo    *mdcc.RemoteTopology
	args    [][]string // per DC, so a killed server restarts identically
	healthz []string   // per DC; empty for servers without HTTP
	metrics []string
	procs   []*exec.Cmd
	logs    []*os.File
}

// serverMetrics is the part of mdcc-server's /metrics the benchmark reads.
type serverMetrics struct {
	Shards []struct {
		Node       string       `json:"node"`
		Puts       int64        `json:"puts"`
		Protocol   core.Metrics `json:"protocol"`
		Durability *struct {
			Checkpoints            int64   `json:"checkpoints"`
			AppendsSinceCheckpoint int64   `json:"appendsSinceCheckpoint"`
			WalAppends             int64   `json:"walAppends"`
			ReplayMs               float64 `json:"replayMs"`
			ReplayTail             int64   `json:"replayTail"`
		} `json:"durability"`
	} `json:"shards"`
	Transport transport.Stats  `json:"transport"`
	Gateway   *gateway.Metrics `json:"gateway"`
}

// bootCluster starts the five servers and waits until each serves.
// extra is appended to every server's flags, with {dc} replaced by the
// server's data center. Servers
// start stagger apart, so timers armed at boot (checkpoints) do not
// fire in all five at once.
func bootCluster(bin, dir string, extra []string, stagger time.Duration) (*cluster, error) {
	dcs := topology.AllDCs()
	ports, err := freePorts(2 * len(dcs))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	min := int64(0)
	topo := &mdcc.RemoteTopology{NodesPerDC: 1, Mode: "mdcc", Addrs: map[string]string{}}
	topo.Constraints = append(topo.Constraints, struct {
		Attr string `json:"attr"`
		Min  *int64 `json:"min"`
		Max  *int64 `json:"max"`
	}{Attr: "stock", Min: &min})
	for i, dc := range dcs {
		topo.Addrs[dc.String()] = "127.0.0.1:" + strconv.Itoa(ports[i])
	}
	blob, err := json.Marshal(topo)
	if err != nil {
		return nil, err
	}
	topoPath := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(topoPath, blob, 0o644); err != nil {
		return nil, err
	}
	c := &cluster{bin: bin, dir: dir, topo: topo}
	for i, dc := range dcs {
		args := []string{"-topology", topoPath, "-dc", dc.String(), "-gateway"}
		addr := "127.0.0.1:" + strconv.Itoa(ports[len(dcs)+i])
		args = append(args, "-http", addr)
		h, m := "http://"+addr+"/healthz", "http://"+addr+"/metrics"
		for _, a := range extra {
			args = append(args, strings.ReplaceAll(a, "{dc}", dc.String()))
		}
		c.args = append(c.args, args)
		c.healthz = append(c.healthz, h)
		c.metrics = append(c.metrics, m)
		c.procs = append(c.procs, nil)
		c.logs = append(c.logs, nil)
	}
	for i := range dcs {
		if i > 0 {
			time.Sleep(stagger)
		}
		if err := c.start(i); err != nil {
			c.stop()
			return nil, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := range dcs {
		if err := c.waitReady(i, deadline); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) start(i int) error {
	logf, err := os.OpenFile(filepath.Join(c.dir, fmt.Sprintf("server%d.log", i)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(c.bin, c.args[i]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start server %d: %v", i, err)
	}
	c.procs[i], c.logs[i] = cmd, logf
	return nil
}

// waitReady polls server i's /healthz, which answers once every node
// and the gateway are built.
func (c *cluster) waitReady(i int, deadline time.Time) error {
	client := &http.Client{Timeout: time.Second}
	for {
		if resp, err := client.Get(c.healthz[i]); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %d never came up (log in %s)", i, c.dir)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pid of server i.
func (c *cluster) pid(i int) int { return c.procs[i].Process.Pid }

// kill SIGKILLs server i and waits for it to exit.
func (c *cluster) kill(i int) {
	p := c.procs[i]
	if p == nil {
		return
	}
	_ = p.Process.Kill()
	_ = p.Wait()
	c.logs[i].Close()
	c.procs[i] = nil
}

// stop sends SIGTERM to every server, waits for each to exit (a
// traced server writes its span file on the way out) and SIGKILLs
// any that outlive the grace period.
func (c *cluster) stop() {
	for _, p := range c.procs {
		if p != nil {
			_ = p.Process.Signal(syscall.SIGTERM)
		}
	}
	for i, p := range c.procs {
		if p == nil {
			continue
		}
		done := make(chan struct{})
		go func() { p.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			_ = p.Process.Kill()
			<-done
		}
		c.logs[i].Close()
		c.procs[i] = nil
	}
}

// scrape reads server i's /metrics.
func (c *cluster) scrape(i int) (serverMetrics, error) {
	var m serverMetrics
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(c.metrics[i])
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// scrapeAll reads every server's /metrics.
func (c *cluster) scrapeAll() ([]serverMetrics, error) {
	out := make([]serverMetrics, len(c.procs))
	for i := range c.procs {
		m, err := c.scrape(i)
		if err != nil {
			return nil, fmt.Errorf("scrape server %d: %v", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// cpuTicks sums user+system CPU over the running servers.
func (c *cluster) cpuTicks() (int64, error) {
	var sum int64
	for i := range c.procs {
		t, err := procCPU(c.pid(i))
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// writtenBytes sums the servers' wchar from /proc/<pid>/io: bytes
// handed to write(2) for files and sockets alike.
func (c *cluster) writtenBytes() (int64, error) {
	var sum int64
	for i := range c.procs {
		f, err := os.Open(fmt.Sprintf("/proc/%d/io", c.pid(i)))
		if err != nil {
			return 0, err
		}
		v, err := parseIOField(f, "wchar")
		f.Close()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// signalAll sends sig to every running server.
func (c *cluster) signalAll(sig os.Signal) {
	for _, p := range c.procs {
		if p != nil {
			_ = p.Process.Signal(sig)
		}
	}
}

// hwmMiB sums the servers' peak resident sets.
func (c *cluster) hwmMiB() (float64, error) {
	var kb int64
	for i := range c.procs {
		v, err := procHWM(c.pid(i))
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// freePorts reserves n distinct loopback ports.
func freePorts(n int) ([]int, error) {
	var ports []int
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}
