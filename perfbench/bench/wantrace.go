package main

import (
	"fmt"
	"time"

	"mdcc/internal/bench"
	"mdcc/internal/core"
	"mdcc/internal/kv"
	"mdcc/internal/mtx"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/stats"
	"mdcc/internal/topology"
	"mdcc/internal/tpcw"
	"mdcc/perfbench/ledger"
)

// tracedWan is a wan-tpcw run on a world assembled with the ledger
// between the protocol nodes and the simulator.
type tracedWanResult struct {
	wanResult
	windowEvents int64         // simulator events inside the measured window
	windowWall   time.Duration // wall time of the measured window
}

// coreClient adapts a coordinator to mtx.Client, as bench.World does.
type coreClient struct{ c *core.Coordinator }

func (cc coreClient) Read(key record.Key, cb mtx.ReadFunc) { cc.c.Read(key, cb) }
func (cc coreClient) Commit(updates []record.Update, done func(bool)) {
	cc.c.Commit(updates, func(r core.CommitResult) { done(r.Committed) })
}
func (cc coreClient) SupportsCommutative() bool { return true }

// runWanTraced assembles bench.NewWorld's MDCC world from simnet.New
// and the core constructors with a ledger.Net in between, then drives
// it exactly as bench.Run does, recording spans over the measured
// window only.
func runWanTraced(seed int64, seconds int) (*tracedWanResult, *ledger.Ledger, error) {
	opts := wanOptions(seed)
	t0 := time.Now()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: opts.NodesPerDC, Clients: opts.Clients, ClientDC: opts.ClientDC})
	net := simnet.New(simnet.Options{
		Latency:     cl.LatencyWith(nil),
		JitterFrac:  0.10,
		ServiceTime: 250 * time.Microsecond,
		Seed:        seed,
	})
	rec := ledger.NewRecorder(1, net.Now, true)
	lnet := ledger.NewNet(net, rec)
	cfg := core.Defaults(core.ModeMDCC)
	cfg.Constraints = opts.Constraints
	var stores []*kv.Store
	var nodes []*core.StorageNode
	for _, n := range cl.Storage {
		s := kv.NewMemory()
		stores = append(stores, s)
		nodes = append(nodes, core.NewStorageNode(n.ID, n.DC, lnet, cl, cfg, s))
	}
	var coords []*core.Coordinator
	var clients []mtx.Client
	for _, c := range cl.Clients {
		co := core.NewCoordinator(c.ID, c.DC, lnet, cl, cfg)
		coords = append(coords, co)
		clients = append(clients, coreClient{co})
	}
	out := &tracedWanResult{}
	out.setup = []float64{time.Since(t0).Seconds()}

	// bench.Run, step for step, so the virtual run matches the untraced one.
	wl := tpcw.New(tpcw.Options{Items: wanItems})
	rng := net.Rand()
	for _, e := range wl.Preload(rng) {
		shard := cl.Shard(e.Key)
		for i, n := range cl.Storage {
			if n.Index == shard {
				_ = stores[i].Put(e.Key, e.Value, e.Version)
			}
		}
	}
	warm, measure, grace := wanWarmup, wanMeasure(seconds), 5*time.Second
	res := &bench.Result{Protocol: opts.Protocol, Workload: wl.Name(), Clients: len(clients),
		WriteLat: stats.NewSample(4096), AbortLat: stats.NewSample(1024), ReadLat: stats.NewSample(4096)}
	start := net.Now()
	from, to := start.Add(warm), start.Add(warm+measure)
	var ev0 simnet.Stats
	var wall0 time.Time
	net.At(warm, func() { rec.Start(); ev0, wall0 = net.Stats(), time.Now() })
	net.At(warm+measure, func() {
		rec.Stop()
		ev1 := net.Stats()
		out.windowEvents = ev1.Delivered + ev1.Timers - ev0.Delivered - ev0.Timers
		out.windowWall = time.Since(wall0)
	})
	for ci := range clients {
		ci := ci // bench.Run's loop, which predates per-iteration loop variables
		client, dc := clients[ci], cl.Clients[ci].DC
		var loop func()
		loop = func() {
			now := net.Now()
			if !now.Before(to) {
				return
			}
			txn := wl.Next(ci, dc, rng)
			txStart := now
			txn(client, rng, func(tr mtx.TxnResult) {
				end := net.Now()
				lat := float64(end.Sub(txStart)) / float64(time.Millisecond)
				if !end.Before(from) && end.Before(to) {
					switch {
					case !tr.Write:
						res.Reads++
						res.ReadLat.Add(lat)
					case tr.Committed:
						res.Commits++
						res.WriteLat.Add(lat)
					default:
						res.Aborts++
						res.AbortLat.Add(lat)
					}
				}
				loop()
			})
		}
		net.At(0, loop)
	}
	cpu0, w0 := cpuSelfMs(), time.Now()
	net.RunFor(warm + measure + grace)
	out.wall = time.Since(w0).Seconds()
	out.cpuMs = cpuSelfMs() - cpu0
	out.rssMiB = maxRSSMiB()
	res.WriteTPS = float64(res.Commits) / measure.Seconds()
	res.TPS = float64(res.Commits+res.Reads) / measure.Seconds()
	out.res = res
	for _, n := range nodes {
		m := n.Metrics()
		out.coreM.Phase2 += m.Phase2
		out.coreM.DemarcationRejects += m.DemarcationRejects
	}
	for _, c := range coords {
		out.coordM.Commits += c.Metrics().Commits
	}
	storeOf := func(key record.Key, dc int) (record.Value, record.Version, bool) {
		shard := cl.Shard(key)
		for i, n := range cl.Storage {
			if int(n.DC) == dc && n.Index == shard {
				return stores[i].Get(key)
			}
		}
		return record.Value{}, 0, false
	}
	out.checkErr = checkStock(storeOf)
	if out.checkErr == nil && res.Commits == 0 {
		out.checkErr = fmt.Errorf("no write transaction committed")
	}
	return out, ledger.Analyze([]*ledger.Dump{rec.Dump()}), nil
}
