package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"mdcc/internal/bench"
	"mdcc/internal/core"
	"mdcc/internal/record"
	"mdcc/internal/stats"
	"mdcc/internal/topology"
	"mdcc/internal/tpcw"
)

// The paper's Figure 3 MDCC arm (§5): 100 geo-distributed clients,
// 10k items, four storage nodes per data center.
const (
	wanClients     = 100
	wanItems       = 10000
	wanNodesPerDC  = 4
	wanWarmup      = 10 * time.Second // virtual
	wanRestartLoad = 2 * time.Second  // virtual
	wanSLO         = 1000.0           // ms of virtual p99 for slo_tps
)

// wanMeasure is the virtual measured window for a run of the given
// seconds. The paper measures 120 virtual seconds after a 30 s warm-up;
// the simulated stores keep per-record history, so that run peaks near
// 2 GiB, and the benchmark measures --seconds of virtual time.
func wanMeasure(seconds int) time.Duration { return time.Duration(seconds) * time.Second }

func wanOptions(seed int64) bench.Options {
	return bench.Options{
		Protocol:    bench.ProtoMDCC,
		NodesPerDC:  wanNodesPerDC,
		Clients:     wanClients,
		ClientDC:    -1,
		Seed:        seed,
		Constraints: []record.Constraint{tpcw.Constraint()},
	}
}

// wanResult is everything one wan-tpcw run measured.
type wanResult struct {
	setup    []float64 // world build + preload, seconds
	restart  []float64 // fresh world through wanRestartLoad, seconds
	res      *bench.Result
	wall     float64 // seconds of bench.Run
	cpuMs    float64 // this process's CPU over bench.Run
	rssMiB   float64
	coreM    core.Metrics
	coordM   core.CoordMetrics
	checkErr error
}

// cpuSelfMs is this process's user+system CPU so far.
func cpuSelfMs() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// wanSetup times building a world and preloading its items.
func wanSetup(seed int64) float64 {
	runtime.GC() // start every build from the same empty heap
	t0 := time.Now()
	w := bench.NewWorld(wanOptions(seed))
	w.Preload(tpcw.New(tpcw.Options{Items: wanItems}).Preload(w.Net.Rand()))
	return time.Since(t0).Seconds()
}

// wanRestart times a fresh world from nothing through its first
// wanRestartLoad of TPC-W load, which must commit something: the
// simulated deployment's restart to service.
func wanRestart(seed int64) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	w := bench.NewWorld(wanOptions(seed))
	res := bench.Run(w, tpcw.New(tpcw.Options{Items: wanItems}),
		bench.RunConfig{Measure: wanRestartLoad, Grace: time.Millisecond})
	if res.Commits == 0 {
		return 0, fmt.Errorf("restarted world committed nothing in %s", wanRestartLoad)
	}
	return time.Since(t0).Seconds(), nil
}

// runWan runs the TPC-W arm: setup repetitions, then one measured run.
func runWan(seed int64, seconds int, repeats int) (*wanResult, error) {
	out := &wanResult{}
	for i := 0; i < repeats; i++ {
		out.setup = append(out.setup, wanSetup(seed+int64(i)+1))
	}
	for i := 0; i < (repeats+1)/2; i++ {
		d, err := wanRestart(seed + int64(i) + 1)
		if err != nil {
			return nil, err
		}
		out.restart = append(out.restart, d)
	}
	w := bench.NewWorld(wanOptions(seed))
	wl := tpcw.New(tpcw.Options{Items: wanItems})
	cpu0, t0 := cpuSelfMs(), time.Now()
	out.res = bench.Run(w, wl, bench.RunConfig{Warmup: wanWarmup, Measure: wanMeasure(seconds)})
	out.wall = time.Since(t0).Seconds()
	out.cpuMs = cpuSelfMs() - cpu0
	out.rssMiB = maxRSSMiB()
	out.coreM, out.coordM = w.CoreMetrics(), w.CoordMetrics()
	out.checkErr = checkStock(w.StoreOf)
	if out.checkErr == nil && out.res.Commits == 0 {
		out.checkErr = fmt.Errorf("no write transaction committed")
	}
	return out, nil
}

// checkStock verifies the TPC-W constraint on every item replica.
func checkStock(storeOf func(record.Key, int) (record.Value, record.Version, bool)) error {
	for i := 0; i < wanItems; i++ {
		key := tpcw.ItemKey(i)
		for dc := range topology.AllDCs() {
			v, _, ok := storeOf(key, dc)
			if !ok {
				return fmt.Errorf("%s missing in DC %d", key, dc)
			}
			if s := v.Attrs[tpcw.AttrStock]; s < 0 {
				return fmt.Errorf("%s: stock %d < 0 in DC %d", key, s, dc)
			}
		}
	}
	return nil
}

// sampleTail applies the percentile rule to a stats.Sample.
func sampleTail(s *stats.Sample, q float64) (Tail, bool) {
	q, ok := limitQ(s.N(), q)
	if !ok {
		return Tail{N: s.N()}, false
	}
	return Tail{Value: s.Percentile(100 * q), Q: q, N: s.N()}, true
}
