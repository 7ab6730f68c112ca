// Command server is the benchmark's own MDCC server. It wires the same
// public constructors as cmd/mdcc-server (transport.NewTCP,
// core.NewStorageNode/NewDurableStorageNode, gateway.New) for the flags
// the benchmark's workloads use. -spans puts the benchmark's span
// recorder (ledger.Net) between the protocol nodes and the TCP
// transport, and installs it as the transport's WireTracer so handler
// spans name their cause across processes. SIGUSR1 starts recording,
// SIGUSR2 stops it; SIGTERM writes the spans to the -spans file and
// exits. -http serves /healthz and the part of mdcc-server's /metrics
// the benchmark reads. Unlike mdcc-server, -data opens the durable
// stores without fsync (core.DurableOptions.NoSync).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mdcc"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/kv"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
	"mdcc/perfbench/ledger"
)

var (
	topoPath  = flag.String("topology", "cluster.json", "topology JSON file")
	dcName    = flag.String("dc", "", "this server's data center")
	dataDir   = flag.String("data", "", "durable store directory, written without fsync (empty = in-memory)")
	ckptEvery = flag.Duration("checkpoint-interval", 30*time.Second, "durable checkpoint interval (with -data)")
	gwMode    = flag.Bool("gateway", false, "host this DC's transaction gateway tier")
	httpAddr  = flag.String("http", "", "serve /healthz and /metrics here")
	spansPath = flag.String("spans", "", "record spans (SIGUSR1 starts, SIGUSR2 stops) and write them here on SIGTERM")
)

func main() {
	flag.Parse()
	log.SetPrefix("perfbench server: ")
	topo, err := mdcc.LoadRemoteTopology(*topoPath)
	if err != nil {
		log.Fatal(err)
	}
	dc, err := mdcc.ParseDC(*dcName)
	if err != nil {
		log.Fatal(err)
	}
	mode, err := topo.ModeValue()
	if err != nil {
		log.Fatal(err)
	}
	routes := make(map[transport.NodeID]string)
	for name, a := range topo.Addrs {
		peer, err := mdcc.ParseDC(name)
		if err != nil {
			log.Fatal(err)
		}
		if peer == dc {
			continue
		}
		for i := 0; i < topo.NodesPerDC; i++ {
			routes[topology.StorageID(peer, i)] = a
		}
		for _, id := range gateway.RouteIDs(peer) {
			routes[id] = a
		}
	}
	tcp := transport.NewTCP(routes)
	tcp.Logf = log.Printf
	var net transport.Network = tcp
	var rec *ledger.Recorder
	if *spansPath != "" {
		// Span ids carry the process number in their top bits, so ids
		// from the five servers never collide.
		rec = ledger.NewRecorder(uint64(dc)+1, time.Now, false)
		tcp.SetTracer(rec)
		net = ledger.NewNet(tcp, rec)
	}
	if _, err := tcp.Listen(topo.Addrs[dc.String()]); err != nil {
		log.Fatal(err)
	}

	cfg := core.Defaults(mode)
	cfg.Constraints = topo.ConstraintList()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: topo.NodesPerDC, Clients: 0, ClientDC: -1})
	if *dataDir != "" {
		cfg.CheckpointInterval = *ckptEvery
	}
	var closers []func() error
	var nodes []*core.StorageNode
	var stores []*kv.Store
	for i := 0; i < topo.NodesPerDC; i++ {
		id := topology.StorageID(dc, i)
		if *dataDir == "" {
			store := kv.NewMemory()
			nodes = append(nodes, core.NewStorageNode(id, dc, net, cl, cfg, store))
			stores = append(stores, store)
			closers = append(closers, store.Close)
			continue
		}
		dir := filepath.Join(*dataDir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		ds, err := core.OpenDurableOpts(dir, core.DurableOptions{NoSync: true})
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, core.NewDurableStorageNode(id, dc, net, cl, cfg, ds))
		stores = append(stores, ds.Store)
		closers = append(closers, ds.Close)
	}
	var gw *gateway.Gateway
	if *gwMode {
		gw = gateway.New(dc, net, cl, cfg, mdcc.GatewayTuning{})
	}
	if *httpAddr != "" {
		go serveHTTP(*httpAddr, nodes, stores, tcp, gw, *dataDir != "")
	}
	log.Printf("%s serving", dc)

	sig := make(chan os.Signal, 4)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGUSR1, syscall.SIGUSR2)
wait:
	for s := range sig {
		switch {
		case s == syscall.SIGUSR1 && rec != nil:
			rec.Start()
		case s == syscall.SIGUSR2 && rec != nil:
			rec.Stop()
		case s == syscall.SIGTERM || s == syscall.SIGINT:
			break wait
		}
	}
	if rec != nil {
		rec.Stop()
		if err := rec.Dump().WriteFile(*spansPath); err != nil {
			log.Printf("write spans: %v", err)
		}
	}
	if gw != nil {
		gw.Close()
	}
	tcp.Close()
	for _, c := range closers {
		_ = c()
	}
}

// serveHTTP answers /healthz once every node and the gateway exist
// (the benchmark's readiness probe) and serves /metrics in
// mdcc-server's shape, limited to the fields the benchmark reads.
func serveHTTP(addr string, nodes []*core.StorageNode, stores []*kv.Store, tcp *transport.TCP, gw *gateway.Gateway, durable bool) {
	type durOut struct {
		Checkpoints            int64   `json:"checkpoints"`
		AppendsSinceCheckpoint int64   `json:"appendsSinceCheckpoint"`
		WalAppends             int64   `json:"walAppends"`
		ReplayMs               float64 `json:"replayMs"`
		ReplayTail             int64   `json:"replayTail"`
	}
	type shard struct {
		Node       string       `json:"node"`
		Puts       int64        `json:"puts"`
		Protocol   core.Metrics `json:"protocol"`
		Durability *durOut      `json:"durability,omitempty"`
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		out := struct {
			Shards    []shard          `json:"shards"`
			Transport transport.Stats  `json:"transport"`
			Gateway   *gateway.Metrics `json:"gateway,omitempty"`
		}{Transport: tcp.Stats()}
		for i, n := range nodes {
			sh := shard{Node: string(n.ID()), Puts: stores[i].Puts(), Protocol: n.Metrics()}
			if durable {
				d := n.Durability()
				sh.Durability = &durOut{
					Checkpoints:            d.Checkpoints,
					AppendsSinceCheckpoint: d.AppendsSinceCheckpoint,
					WalAppends:             d.Store.Appends + d.Oplog.Appends,
					ReplayMs:               float64(d.Replay.Duration) / float64(time.Millisecond),
					ReplayTail:             d.Replay.TailStore + d.Replay.TailOplog,
				}
			}
			out.Shards = append(out.Shards, sh)
		}
		if gw != nil {
			m := gw.Metrics()
			out.Gateway = &m
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	log.Fatal(http.ListenAndServe(addr, mux))
}
