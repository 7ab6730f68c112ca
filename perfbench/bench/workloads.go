package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// specFor returns a live workload's shape for a run of the given
// measured seconds.
func specFor(name string, seconds int) liveSpec {
	if name == "durable-rmw" {
		// Reads alternate with read-modify-writes over a keyspace small
		// enough that the read tier, which evicts a key unread for ten
		// seconds, keeps every key materialized. Writes cycle through
		// the keys (see nextWriteKey), so no two share a key while in
		// flight. Without fsync a three-second rung's result depended on
		// the machine's other load between about 800 and 1600 writes/s
		// on a two-core machine (p99 35-57 ms at 800 in a busy hour;
		// 1.1-2.7 % aborts at 1600 in a quiet one, either side of the
		// 98 %-committed test), so the ladder has no rung in that band:
		// 400 passes and 3200 fails wherever the knee sits. At the
		// fixed rate each of a 20-second window's five slices (see
		// slicedTail) holds 1000 writes, enough for a p99.
		return liveSpec{
			durable: true, keys: 128, blobBytes: 512,
			writeRate: 250, readEvery: 2,
			ladder: []float64{100, 400, 3200},
			rung:   3 * time.Second,
			cycle:  checkpointCycle(seconds),
			tailN:  100,
		}
	}
	// Commutative stock decrements on 64 hot keys at 1000 tx/s, the
	// point the gateway's batching is tuned for, with one read of a hot
	// key per four writes. The knee of a two-core machine moved between
	// about 2000 and 5000 tx/s with the load of its neighbours: a rung
	// at 2400 flipped between runs in a busy hour, one at 4800 (p99
	// 47-100 ms) in a quiet one. So the ladder has no rung in that band:
	// 1200 passes and 9600 fails wherever the knee sits.
	return liveSpec{
		keys: 64, writeRate: 1000, readEvery: 5,
		ladder: []float64{300, 1200, 9600},
		rung:   2 * time.Second,
	}
}

// checkpointCycle is the durable servers' checkpoint interval: the
// measured window spans six whole cycles.
func checkpointCycle(seconds int) time.Duration { return time.Duration(seconds) * time.Second / 6 }

// serverBinary is the server a live workload runs untraced:
// mdcc-server itself, except that durable-rmw runs the benchmark's own
// server, which opens the durable stores without fsync. The WAL, gob
// kv.Put, checkpoint and replay code all run, but the latency of the
// host disk's fsync, which moved several-fold from hour to hour on a
// shared disk, stays out of the gated metrics.
func serverBinary(spec liveSpec) string {
	if spec.durable {
		return binary("server")
	}
	return binary("mdcc-server")
}

// serverFlags are the per-server flags beyond topology, DC, gateway
// and HTTP.
func serverFlags(spec liveSpec, seconds int) func(dir string) []string {
	return func(dir string) []string {
		if !spec.durable {
			return nil
		}
		return []string{"-data", filepath.Join(dir, "data", "{dc}"),
			"-checkpoint-interval", checkpointCycle(seconds).String()}
	}
}

// liveEndToEnd turns a live run into the end-to-end metrics.
func liveEndToEnd(res *liveResult) (*report, []error) {
	r := newReport()
	var errs []error
	w := res.fixed
	r.set("setup_s", median(res.setup), "s", fmt.Sprintf("median of %d boots", len(res.setup)))
	t, ok := percentile(sortedCopy(w.writeMs), 0.50)
	r.tail("commit_p50_ms", t, ok)
	whole, _ := percentile(sortedCopy(w.writeMs), 0.99)
	t, ok = slicedTail(w.writeMs, w.writeAt, time.Duration(w.secs*float64(time.Second)), tailSlices, 0.99)
	r.tail("commit_p99_ms", t, ok)
	r.notes["commit_p99_ms"] += fmt.Sprintf(", median of %d slices; whole window %.4f", tailSlices, whole.Value)
	if !ok {
		errs = append(errs, fmt.Errorf("commit_p99_ms: only %d commits", t.N))
	}
	r.set("commit_tps", float64(w.commits)/w.secs, "tx/s",
		fmt.Sprintf("commits=%d in %.0fs; %.1f %% of the CPU stolen", w.commits, w.secs, 100*res.steal))
	if a := w.attempted(); a > 0 {
		r.set("commit_ratio", float64(w.commits)/float64(a), "ratio",
			fmt.Sprintf("attempted=%d aborts=%d errors=%d sheds=%d", a, w.aborts, w.errs, w.sheds))
	}
	if w.commits > 0 {
		r.set("server_cpu_ms_per_commit", res.cpuMs/float64(w.commits), "ms", fmt.Sprintf("cpu=%.0fms", res.cpuMs))
	}
	r.set("rss_mb", res.rssMiB, "MiB", "sum of the five servers' VmHWM")
	t, ok = percentile(sortedCopy(w.readMs), 0.50)
	r.tail("read_p50_ms", t, ok)
	t, ok = percentile(sortedCopy(w.readMs), 0.99)
	r.tail("read_p99_ms", t, ok)
	r.set("sim_tx_per_wall_s", float64(w.commits)/res.windowTo.Sub(res.windowFrom).Seconds(), "tx/s",
		"live: commits per wall second of the window, drain included")
	if len(res.restarts) > 0 {
		r.set("restart_s", median(res.restarts), "s",
			fmt.Sprintf("median of %v; replayed tail=%d records", res.restarts, res.tail))
	}
	if len(res.rungs) > 0 {
		rate, ok := slo.sloRate(res.rungs)
		note := ""
		for _, g := range res.rungs {
			note += fmt.Sprintf("%.0f:%s ", g.Rate, map[bool]string{true: "pass", false: "fail"}[slo.passes(g)])
		}
		if !ok {
			note += "(no rung met the SLO)"
		}
		r.set("slo_tps", rate, "tx/s", note)
	}
	if err := checkLag(w.maxLag); err != nil {
		errs = append(errs, err)
	}
	return r, errs
}

// wanEndToEnd turns a wan-tpcw run into the end-to-end metrics.
func wanEndToEnd(res *wanResult) (*report, []error) {
	r := newReport()
	var errs []error
	br := res.res
	r.set("setup_s", median(res.setup), "s", fmt.Sprintf("median of %d world builds + preloads", len(res.setup)))
	t, ok := sampleTail(br.WriteLat, 0.50)
	r.tail("commit_p50_ms", t, ok)
	t, ok = sampleTail(br.WriteLat, 0.99)
	r.tail("commit_p99_ms", t, ok)
	p99 := t.Value
	if !ok {
		errs = append(errs, fmt.Errorf("commit_p99_ms: only %d commits", t.N))
	}
	r.set("commit_tps", br.WriteTPS, "tx/s", fmt.Sprintf("virtual; commits=%d", br.Commits))
	if a := br.Commits + br.Aborts; a > 0 {
		r.set("commit_ratio", float64(br.Commits)/float64(a), "ratio", fmt.Sprintf("attempted=%d aborts=%d", a, br.Aborts))
	}
	sloTPS := 0.0
	if ok && p99 <= wanSLO {
		sloTPS = br.WriteTPS
	}
	r.set("slo_tps", sloTPS, "tx/s", fmt.Sprintf("virtual write tx/s of the closed loop while p99 ≤ %.0f ms", wanSLO))
	if br.Commits > 0 {
		r.set("server_cpu_ms_per_commit", res.cpuMs/float64(br.Commits), "ms", "the whole simulated deployment runs in this process")
	}
	r.set("rss_mb", res.rssMiB, "MiB", "benchmark process max RSS")
	t, ok = sampleTail(br.ReadLat, 0.50)
	r.tail("read_p50_ms", t, ok)
	t, ok = sampleTail(br.ReadLat, 0.99)
	r.tail("read_p99_ms", t, ok)
	r.set("restart_s", median(res.restart), "s", fmt.Sprintf("median of %d fresh worlds through %s of load", len(res.restart), wanRestartLoad))
	r.set("sim_tx_per_wall_s", float64(res.coordM.Commits)/res.wall, "tx/s",
		fmt.Sprintf("commits=%d wall=%.2fs", res.coordM.Commits, res.wall))
	return r, errs
}

// endToEnd lists the end-to-end metrics every workload reports and
// the regression gate covers. Two more are measured and printed with
// them but gated as per-layer metrics only (ungatedEndToEnd): their
// spread between runs on a shared two-core machine (25-27 % of the
// median over ten runs) sits at the largest bound a gate may have.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"commit_p50_ms", "ms"}, {"commit_p99_ms", "ms"}, {"commit_tps", "tx/s"},
	{"commit_ratio", "ratio"}, {"slo_tps", "tx/s"}, {"server_cpu_ms_per_commit", "ms"}, {"rss_mb", "MiB"},
	{"read_p50_ms", "ms"}, {"sim_tx_per_wall_s", "tx/s"},
}

// ungatedEndToEnd are end-to-end metrics reported in the per-layer
// ledger, from a traced run's untraced pass, under these names.
var ungatedEndToEnd = []struct{ name, as, unit string }{
	{"read_p99_ms", "client.read_p99_ms", "ms"},
	{"restart_s", "recovery.restart_s", "s"},
}

func endToEndNames() []string {
	var names []string
	for _, d := range endToEnd {
		names = append(names, d.name)
	}
	return names
}

// finish builds the result line from a report: a run is correct when
// its checks passed and it produced every metric it owes.
func finish(r *report, names []string, attempted, failed int64, errs []error) result {
	for _, n := range names {
		if _, ok := r.metrics[n]; !ok {
			errs = append(errs, fmt.Errorf("metric %s was not measured", n))
		}
	}
	for _, err := range errs {
		fmt.Printf("FAIL %v\n", err)
	}
	out := map[string]metric{}
	for _, n := range names {
		out[n] = r.metrics[n]
	}
	return result{Correct: len(errs) == 0, Attempted: attempted, Failed: failed, Metrics: out}
}

func liveWorkload(name, work string) result {
	spec := specFor(name, *seconds)
	if *traceOn == 1 {
		return tracedLive(name, spec, work)
	}
	res, err := runLive(spec, *seed, *seconds, serverBinary(spec), work, true, false, serverFlags(spec, *seconds))
	if err != nil {
		fail("%s: %v", name, err)
	}
	r, errs := liveEndToEnd(res)
	if res.checkErr != nil {
		errs = append(errs, res.checkErr)
	}
	r.print(name + " end to end")
	return finish(r, endToEndNames(), res.attempted, res.failed, errs)
}

// wanColdStarts is how many world builds setup_s takes its median
// over; restart_s takes half as many restarts.
const wanColdStarts = 9

func wanWorkload() result {
	if *traceOn == 1 {
		return tracedWan()
	}
	res, err := runWan(*seed, *seconds, wanColdStarts)
	if err != nil {
		fail("wan-tpcw: %v", err)
	}
	r, errs := wanEndToEnd(res)
	if res.checkErr != nil {
		errs = append(errs, res.checkErr)
	}
	r.print("wan-tpcw end to end")
	br := res.res
	return finish(r, endToEndNames(), br.Commits+br.Aborts+br.Reads, 0, errs)
}
