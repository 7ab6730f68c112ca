package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"mdcc/internal/topology"
	"mdcc/perfbench/ledger"
)

// acceptorTypes are the message types whose acceptor self time the
// ledger reports one by one: the heaviest on the gated workloads
// (proposals and visibility arrive batched from a gateway, unbatched
// from a simulated client's coordinator; Phase2a and leader proposals
// are the classic path).
var acceptorTypes = []string{
	"Batch.MsgProposeBatch", "Batch.MsgVisibility", "MsgProposeBatch", "MsgVisibility",
	"MsgVisibilityBatch", "MsgRead", "MsgPhase2a", "MsgProposeLeader",
}

// overheadNames are the end-to-end metrics both passes of a traced
// run measure; trace_overhead.<name> is traced minus untraced.
var overheadNames = []string{
	"commit_p50_ms", "commit_p99_ms", "commit_tps", "commit_ratio", "server_cpu_ms_per_commit",
	"rss_mb", "read_p50_ms", "read_p99_ms", "sim_tx_per_wall_s",
}

// metricDef is a declared metric and its unit.
type metricDef struct{ name, unit string }

// perLayer lists every per-layer metric; a workload reports 0 for a
// layer it does not exercise.
func perLayer() []metricDef {
	defs := []metricDef{
		{"client.rpc_ms.p50", "ms"}, {"client.gen_lag_ms.max", "ms"},
		{"gateway.residency_ms.p50", "ms"}, {"gateway.residency_ms.p99", "ms"},
		{"gateway.self_us_per_commit", "us"}, {"gateway.coord_self_us_per_commit", "us"},
		{"gateway.coalesce_ratio", "ratio"}, {"gateway.batch_fanin", "ratio"}, {"gateway.shed", "count"},
		{"gateway.read_residency_ms.p50", "ms"}, {"gateway.readtier_local_frac", "ratio"},
		{"transport.msgs_per_commit", "count"}, {"transport.bytes_per_commit", "B"},
		{"transport.batch_items_per_envelope", "ratio"}, {"transport.send_us.mean", "us"}, {"transport.dropped", "count"},
		{"codec.encode_us_per_msg", "us"}, {"codec.decode_us_per_msg", "us"}, {"codec.bytes_per_msg", "B"},
		{"core.acceptor_self_us_per_commit", "us"}, {"core.acceptor_msgs_per_commit", "count"},
	}
	for _, t := range acceptorTypes {
		defs = append(defs, metricDef{"core.acceptor_self_us." + t, "us"})
	}
	defs = append(defs, []metricDef{
		{"core.fast_quorum_ms.p50", "ms"}, {"core.classic_ratio", "ratio"}, {"core.demarcation_rejects", "count"},
		{"wal.appends_per_commit", "count"}, {"wal.bytes_per_commit", "B"}, {"wal.bytes_per_user_byte", "ratio"}, {"kv.puts_per_commit", "count"},
		{"wal.checkpoints_in_window", "count"}, {"wal.replay_ms", "ms"}, {"wal.replay_records", "count"},
		{"simnet.events_per_commit", "count"}, {"simnet.engine_wall_us_per_event", "us"},
		{"core.sim_handler_wall_us_per_commit", "us"},
		{"trace.linked_frac", "ratio"}, {"trace.spans_dropped", "count"},
	}...)
	for _, u := range ungatedEndToEnd {
		defs = append(defs, metricDef{u.as, u.unit})
	}
	for _, n := range overheadNames {
		defs = append(defs, metricDef{"trace_overhead." + n, unitOf(n)})
	}
	return defs
}

func perLayerNames() []string {
	var names []string
	for _, d := range perLayer() {
		names = append(names, d.name)
	}
	return names
}

// layerReport starts a per-layer report with every metric at 0.
func layerReport() *report {
	r := newReport()
	for _, d := range perLayer() {
		r.set(d.name, 0, d.unit, "")
	}
	return r
}

// p50 of samples, 0 without enough of them.
func pct(xs []float64, q float64) float64 {
	t, ok := percentile(sortedCopy(xs), q)
	if !ok {
		return 0
	}
	return t.Value
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unitOf is an end-to-end metric's unit.
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	for _, u := range ungatedEndToEnd {
		if u.name == name {
			return u.unit
		}
	}
	return ""
}

// overhead reports traced minus untraced for the shared metrics, and
// the untraced pass's ungated end-to-end metrics.
func overhead(r *report, base, traced *report) {
	for _, u := range ungatedEndToEnd {
		if m, ok := base.metrics[u.name]; ok {
			r.set(u.as, m.Value, m.Unit, base.notes[u.name])
		}
	}
	for _, n := range overheadNames {
		b, ok1 := base.metrics[n]
		t, ok2 := traced.metrics[n]
		if ok1 && ok2 {
			r.set("trace_overhead."+n, t.Value-b.Value, b.Unit, fmt.Sprintf("untraced %.4f traced %.4f", b.Value, t.Value))
		}
	}
}

// spans applies the span-derived metrics common to live and simulated runs.
func spans(r *report, l *ledger.Ledger, commits float64) {
	r.set("core.acceptor_self_us_per_commit", div(float64(l.SelfNs[ledger.ClassAcceptor])/1e3, commits), "us", "")
	r.set("core.acceptor_msgs_per_commit", div(float64(l.Handled[ledger.ClassAcceptor]), commits), "count", "")
	for _, t := range acceptorTypes {
		r.set("core.acceptor_self_us."+t, div(float64(l.TypeSelfNs[t])/1e3, float64(l.TypeHandled[t])), "us",
			fmt.Sprintf("n=%d", l.TypeHandled[t]))
	}
	r.set("core.fast_quorum_ms.p50", pct(l.Pairs.FastQuorum, 0.5), "ms", fmt.Sprintf("n=%d", len(l.Pairs.FastQuorum)))
	r.set("trace.linked_frac", div(float64(l.Linked), float64(l.Parented)), "ratio",
		fmt.Sprintf("%d of %d handler spans with a cause", l.Linked, l.Parented))
	r.set("trace.spans_dropped", float64(l.Dropped), "count", "")
	// Every acceptor message type seen, heaviest first, for the record.
	type ts struct {
		name string
		ns   int64
	}
	var all []ts
	for n, v := range l.TypeSelfNs {
		all = append(all, ts{n, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ns > all[j].ns })
	for _, t := range all {
		fmt.Printf("acceptor self time %-22s %10.1f us/commit over %d msgs\n", t.name,
			div(float64(t.ns)/1e3, commits), l.TypeHandled[t.name])
	}
}

// counterDelta sums a /metrics counter over servers at both window edges.
func counterDelta(before, after []serverMetrics, f func(serverMetrics) float64) float64 {
	var d float64
	for i := range after {
		d += f(after[i]) - f(before[i])
	}
	return d
}

func tracedLive(name string, spec liveSpec, work string) result {
	flags := serverFlags(spec, *seconds)
	base, err := runLive(spec, *seed, *seconds, serverBinary(spec), filepath.Join(work, "untraced"), false, false, flags)
	if err != nil {
		fail("%s untraced pass: %v", name, err)
	}
	tflags := func(dir string) []string {
		return append(flags(dir), "-spans", filepath.Join(dir, "spans-{dc}.gob"))
	}
	tr, err := runLive(spec, *seed, *seconds, binary("server"), filepath.Join(work, "traced"), false, true, tflags)
	if err != nil {
		fail("%s traced pass: %v", name, err)
	}
	var dumps []*ledger.Dump
	for _, dc := range topology.AllDCs() {
		d, err := ledger.ReadDump(filepath.Join(tr.spanDir, "spans-"+dc.String()+".gob"))
		if err != nil {
			fail("%s: read spans: %v", name, err)
		}
		dumps = append(dumps, d)
	}
	l := ledger.Analyze(dumps)

	r := layerReport()
	var errs []error
	if base.checkErr != nil {
		errs = append(errs, base.checkErr)
	}
	tc := float64(tr.fixed.commits) // span metrics: traced pass
	bc := float64(base.fixed.commits)
	r.set("client.rpc_ms.p50", pct(tr.fixed.rpcMs, 0.5), "ms", "")
	r.set("client.gen_lag_ms.max", float64(tr.fixed.maxLag)/1e6, "ms", "validity check, not a target")
	r.set("gateway.residency_ms.p50", pct(l.Pairs.Residency, 0.5), "ms", fmt.Sprintf("n=%d", len(l.Pairs.Residency)))
	r.set("gateway.residency_ms.p99", pct(l.Pairs.Residency, 0.99), "ms", "")
	r.set("gateway.self_us_per_commit", div(float64(l.SelfNs[ledger.ClassGateway])/1e3, tc), "us", "")
	r.set("gateway.coord_self_us_per_commit", div(float64(l.SelfNs[ledger.ClassCoordinator])/1e3, tc), "us", "")
	r.set("gateway.read_residency_ms.p50", pct(l.Pairs.ReadResidency, 0.5), "ms", fmt.Sprintf("n=%d", len(l.Pairs.ReadResidency)))
	r.set("transport.send_us.mean", div(float64(l.SendNs)/1e3, float64(l.Sends)), "us", fmt.Sprintf("sends=%d", l.Sends))
	r.set("codec.encode_us_per_msg", l.Codec.EncodeUs, "us", fmt.Sprintf("weighted over %d sends", l.Codec.Msgs))
	r.set("codec.decode_us_per_msg", l.Codec.DecodeUs, "us", "")
	r.set("codec.bytes_per_msg", l.Codec.Bytes, "B", "")
	spans(r, l, tc)

	// Counters come from the untraced pass's /metrics, over its window.
	b, a := base.before, base.after
	gw := func(f func(serverMetrics) int64) float64 {
		return counterDelta(b, a, func(m serverMetrics) float64 {
			if m.Gateway == nil {
				return 0
			}
			return float64(f(m))
		})
	}
	shards := func(f func(serverMetrics, int) int64) float64 {
		return counterDelta(b, a, func(m serverMetrics) float64 {
			var s int64
			for i := range m.Shards {
				s += f(m, i)
			}
			return float64(s)
		})
	}
	dur := func(f func(serverMetrics, int) int64) float64 {
		return shards(func(m serverMetrics, i int) int64 {
			if m.Shards[i].Durability == nil {
				return 0
			}
			return f(m, i)
		})
	}
	submitted := gw(func(m serverMetrics) int64 { return m.Gateway.Submitted })
	r.set("gateway.coalesce_ratio", div(gw(func(m serverMetrics) int64 { return m.Gateway.MergedUpdates }), submitted), "ratio", "")
	r.set("gateway.batch_fanin", div(gw(func(m serverMetrics) int64 { return m.Gateway.BatchedMsgs }),
		gw(func(m serverMetrics) int64 { return m.Gateway.BatchEnvelopes })), "ratio", "")
	r.set("gateway.shed", gw(func(m serverMetrics) int64 { return m.Gateway.AdmissionRejects }), "count", "")
	local := gw(func(m serverMetrics) int64 { return m.Gateway.LocalReads })
	r.set("gateway.readtier_local_frac", div(local, local+gw(func(m serverMetrics) int64 { return m.Gateway.ReadRPCs + m.Gateway.ReadCoalesced })), "ratio", "")
	tp := func(f func(serverMetrics) int64) float64 {
		return counterDelta(b, a, func(m serverMetrics) float64 { return float64(f(m)) })
	}
	bytesSent := tp(func(m serverMetrics) int64 { return m.Transport.BytesSent })
	r.set("transport.msgs_per_commit", div(tp(func(m serverMetrics) int64 { return m.Transport.MsgsSent }), bc), "count", "")
	r.set("transport.bytes_per_commit", div(bytesSent, bc), "B", "")
	r.set("transport.batch_items_per_envelope", div(tp(func(m serverMetrics) int64 { return m.Transport.BatchedSent }),
		tp(func(m serverMetrics) int64 { return m.Transport.BatchesSent })), "ratio", "")
	r.set("transport.dropped", tp(func(m serverMetrics) int64 {
		return m.Transport.DroppedNoRoute + m.Transport.DroppedQueueFull + m.Transport.DroppedConnDown
	}), "count", "")
	r.set("core.classic_ratio", div(shards(func(m serverMetrics, i int) int64 { return m.Shards[i].Protocol.Phase2 }), bc), "ratio", "")
	r.set("core.demarcation_rejects", shards(func(m serverMetrics, i int) int64 { return m.Shards[i].Protocol.DemarcationRejects }), "count", "")
	if spec.durable {
		appends := dur(func(m serverMetrics, i int) int64 { return m.Shards[i].Durability.WalAppends })
		// Disk bytes: everything the servers wrote minus what they sent
		// on the wire (the /metrics responses are noise below 1%).
		disk := float64(base.wchar) - bytesSent
		user := bc * float64(spec.blobBytes+8)
		r.set("wal.appends_per_commit", div(appends, bc), "count", "")
		r.set("wal.bytes_per_commit", div(disk, bc), "B", "")
		r.set("wal.bytes_per_user_byte", div(disk, user), "ratio", "")
		r.set("kv.puts_per_commit", div(shards(func(m serverMetrics, i int) int64 { return m.Shards[i].Puts }), bc), "count", "")
		r.set("wal.checkpoints_in_window", dur(func(m serverMetrics, i int) int64 { return m.Shards[i].Durability.Checkpoints }), "count", "")
		for _, sh := range base.restarted.Shards {
			if sh.Durability != nil {
				r.set("wal.replay_ms", sh.Durability.ReplayMs, "ms", "")
				r.set("wal.replay_records", float64(sh.Durability.ReplayTail), "count", "")
			}
		}
	}
	be, e1 := liveEndToEnd(base)
	te, e2 := liveEndToEnd(tr)
	errs = append(append(errs, e1...), e2...)
	overhead(r, be, te)
	be.print(name + " untraced pass")
	te.print(name + " traced pass")
	r.print(name + " per layer")
	return finish(r, perLayerNames(), base.attempted+tr.attempted, base.failed+tr.failed, errs)
}

func tracedWan() result {
	base, err := runWan(*seed, *seconds, 1)
	if err != nil {
		fail("wan-tpcw untraced pass: %v", err)
	}
	tr, l, err := runWanTraced(*seed, *seconds)
	if err != nil {
		fail("wan-tpcw traced pass: %v", err)
	}
	r := layerReport()
	var errs []error
	for _, e := range []error{base.checkErr, tr.checkErr} {
		if e != nil {
			errs = append(errs, e)
		}
	}
	commits := float64(tr.res.Commits)
	spans(r, l, commits)
	r.set("core.classic_ratio", div(float64(tr.coreM.Phase2), float64(tr.coordM.Commits)), "ratio", "Phase2 rounds per commit, whole run")
	r.set("core.demarcation_rejects", float64(tr.coreM.DemarcationRejects), "count", "whole run")
	events := float64(tr.windowEvents)
	r.set("simnet.events_per_commit", div(events, commits), "count", "")
	r.set("simnet.engine_wall_us_per_event", div(float64(tr.windowWall-time.Duration(l.TopNs))/1e3, events), "us", "")
	r.set("core.sim_handler_wall_us_per_commit", div(float64(l.SelfNs[ledger.ClassAcceptor]+l.SelfNs[ledger.ClassCoordinator])/1e3, commits), "us", "")
	be, e1 := wanEndToEnd(base)
	te, e2 := wanEndToEnd(&tr.wanResult)
	errs = append(append(errs, e1...), e2...)
	overhead(r, be, te)
	be.print("wan-tpcw untraced pass")
	te.print("wan-tpcw traced pass")
	r.print("wan-tpcw per layer")
	att := base.res.Commits + base.res.Aborts + base.res.Reads + tr.res.Commits + tr.res.Aborts + tr.res.Reads
	return finish(r, perLayerNames(), att, 0, errs)
}
