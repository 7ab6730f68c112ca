package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdcc"
)

// liveSpec shapes one live workload.
type liveSpec struct {
	durable   bool
	keys      int           // hot keys (hot-commute) or keyspace (durable-rmw)
	blobBytes int           // durable-rmw: bytes rewritten by each update
	writeRate float64       // fixed-rate write arrivals per second
	readEvery int           // every readEvery-th arrival is a read
	ladder    []float64     // write rates, climbed in order for slo_tps
	rung      time.Duration // per ladder rung
	cycle     time.Duration // durable-rmw: the servers' checkpoint interval
	tailN     int           // durable-rmw: writes between the victim's checkpoint and its SIGKILL
}

// Live workload constants.
const (
	victim      = 4                      // ap-tk: never home to a load session
	maxSessions = 4                      // so the victim DC carries no load session
	warmup      = 2 * time.Second        // discarded before the first measured rate
	lagBound    = 100 * time.Millisecond // generator lateness that invalidates a run
	maxInflight = 8192
	settle      = 2 * time.Second // before restarts, after the ladder
	tailSlices  = 5               // commit_p99_ms is the median of this many slices' p99
	// A fixed window or a failed ladder rung during which the
	// hypervisor stole more than maxSteal of the machine's CPU time is
	// measured again, up to windowRetries or rungRetries times. Each
	// window first waits, up to quietWait, for a second with no more
	// than maxSteal stolen.
	maxSteal      = 0.02
	windowRetries = 1
	rungRetries   = 2
	quietWait     = 15 * time.Second
)

var slo = SLO{P99Ms: 50, MinCommitted: 0.98}

// window is the harvest of one open-loop stretch of arrivals.
type window struct {
	secs                         float64
	writeMs, readMs              []float64       // from each arrival's scheduled time
	writeAt                      []time.Duration // each writeMs sample's scheduled time, from the window's start
	rpcMs                        []float64       // writes: from the call to its reply
	commits, aborts, errs, sheds int64
	reads, readErrs              int64
	maxLag                       time.Duration
	backlog                      bool
}

func (w *window) attempted() int64 { return w.commits + w.aborts + w.errs + w.sheds }

// liveRun is one live workload against one booted cluster.
type liveRun struct {
	spec  liveSpec
	seed  int64
	cl    *cluster
	sess  []*mdcc.RemoteSession
	keys  []mdcc.Key
	rng   *rand.Rand // the generator's: key choice is a function of the seed
	order []int      // durable-rmw: the seeded order writes cycle through the keys
	wseq  int
	pool  []byte // durable-rmw blob bytes, from the seed
	opSeq atomic.Int64

	inflight atomic.Int64
	mu       sync.Mutex
	acks     []int64 // acknowledged writes per key
	unknown  []int64 // writes per key whose outcome is unknown
}

// newLiveRun boots a cluster, dials the load sessions and preloads.
func newLiveRun(spec liveSpec, seed int64, bin, dir string, extra []string, stagger time.Duration) (*liveRun, error) {
	cl, err := bootCluster(bin, dir, extra, stagger)
	if err != nil {
		return nil, err
	}
	r := &liveRun{spec: spec, seed: seed, cl: cl, rng: rand.New(rand.NewSource(seed))}
	n := runtime.NumCPU()
	if n > maxSessions {
		n = maxSessions
	}
	for i := 0; i < n; i++ {
		s, err := mdcc.DialGateway(cl.topo, mdcc.AllDCs()[i], fmt.Sprintf("load%d", i), "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.sess = append(r.sess, s)
	}
	r.acks = make([]int64, spec.keys)
	r.unknown = make([]int64, spec.keys)
	if err := r.preload(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *liveRun) close() {
	for _, s := range r.sess {
		s.Close()
	}
	r.sess = nil
	r.cl.stop()
}

// initial is a key's preloaded value.
func (r *liveRun) initial(i int) mdcc.Value {
	if r.spec.durable {
		return mdcc.Value{Attrs: map[string]int64{"n": 0}, Blob: r.blob(int64(i))}
	}
	return mdcc.Value{Attrs: map[string]int64{"stock": 1 << 40}}
}

// blob is a deterministic blobBytes-long slice of the seeded pool.
func (r *liveRun) blob(k int64) []byte {
	off := int(k*7919) % (len(r.pool) - r.spec.blobBytes)
	return append([]byte(nil), r.pool[off:off+r.spec.blobBytes]...)
}

// preload inserts the keyspace with multi-insert transactions.
func (r *liveRun) preload() error {
	if r.spec.durable {
		r.pool = make([]byte, 1<<16)
		rand.New(rand.NewSource(r.seed ^ 0x5eed)).Read(r.pool)
	}
	prefix := "hot/"
	if r.spec.durable {
		prefix = "acct/"
	}
	for i := 0; i < r.spec.keys; i++ {
		r.keys = append(r.keys, mdcc.Key(fmt.Sprintf("%s%05d", prefix, i)))
	}
	const perTx, par = 64, 8
	errc := make(chan error, par)
	next := atomic.Int64{}
	for w := 0; w < par; w++ {
		go func() {
			for {
				lo := int(next.Add(perTx)) - perTx
				if lo >= len(r.keys) {
					errc <- nil
					return
				}
				hi := lo + perTx
				if hi > len(r.keys) {
					hi = len(r.keys)
				}
				var ups []mdcc.Update
				for i := lo; i < hi; i++ {
					ups = append(ups, mdcc.Insert(r.keys[i], r.initial(i)))
				}
				ok, err := r.sess[0].Commit(ups...)
				if err != nil || !ok {
					errc <- fmt.Errorf("preload keys %d..%d: committed=%v err=%v", lo, hi, ok, err)
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < par; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	if first != nil || !r.spec.durable {
		return first
	}
	// Fill each load session's gateway read tier, which materializes a
	// key on its first read.
	var next2 atomic.Int64
	for w := 0; w < par; w++ {
		go func() {
			for {
				i := int(next2.Add(1)) - 1
				if i >= len(r.keys)*len(r.sess) {
					errc <- nil
					return
				}
				key := r.keys[i%len(r.keys)]
				if _, _, _, err := r.sess[i/len(r.keys)].Read(key); err != nil {
					errc <- fmt.Errorf("warm read %s: %v", key, err)
					return
				}
			}
		}()
	}
	for w := 0; w < par; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// nextWriteKey cycles durable writes through a seeded permutation of
// the keyspace: every key is written equally often, and two writes to
// one key are a whole cycle apart, so a read-modify-write never races
// another on its key or reads it stale from the read tier.
func (r *liveRun) nextWriteKey() int {
	if r.order == nil {
		r.order = r.rng.Perm(len(r.keys))
	}
	k := r.order[r.wseq%len(r.order)]
	r.wseq++
	return k
}

// do runs one arrival against session s and returns its outcome.
func (r *liveRun) do(s *mdcc.RemoteSession, read bool, k int) (ok bool, err error) {
	key := r.keys[k]
	if read {
		_, _, exists, err := s.Read(key)
		return exists, err
	}
	if !r.spec.durable {
		return s.Commit(mdcc.Commutative(key, map[string]int64{"stock": -1}))
	}
	v, ver, exists, err := s.Read(key)
	if err != nil {
		return false, err
	}
	if !exists {
		return false, fmt.Errorf("read %s: missing", key)
	}
	nv := mdcc.Value{Attrs: map[string]int64{"n": v.Attrs["n"] + 1}, Blob: r.blob(r.opSeq.Add(1))}
	return s.Commit(mdcc.Physical(key, ver, nv))
}

// record books a settled write against its key for the checks.
func (r *liveRun) record(k int, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case errors.Is(err, mdcc.ErrOverloaded):
	case err != nil:
		r.unknown[k]++
	case ok:
		r.acks[k]++
	}
}

// drive offers writeRate write tx/s (plus the spec's reads) open loop
// from start for dur. Latency counts from each arrival's scheduled
// time, so a stalled server or a lagging generator shows as latency
// rather than as thinner offered load. It returns once every arrival
// has settled.
func (r *liveRun) drive(writeRate float64, start time.Time, dur time.Duration) *window {
	re := r.spec.readEvery
	rate := writeRate * float64(re) / float64(re-1)
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur.Seconds() * rate)
	if now := time.Now(); start.Before(now) {
		start = now
	}
	w := &window{secs: dur.Seconds()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxInflight)
	var midInflight int64
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		if i == n/2 {
			midInflight = r.inflight.Load()
		}
		read := i%re == re-1
		k := r.rng.Intn(len(r.keys))
		if r.spec.durable && !read {
			k = r.nextWriteKey()
		}
		s := r.sess[i%len(r.sess)]
		sem <- struct{}{}
		if lag := time.Since(sched); lag > w.maxLag {
			w.maxLag = lag
		}
		r.inflight.Add(1)
		wg.Add(1)
		issued := time.Now()
		go func() {
			defer wg.Done()
			ok, err := r.do(s, read, k)
			rpc := float64(time.Since(issued)) / float64(time.Millisecond)
			ms := float64(time.Since(sched)) / float64(time.Millisecond)
			<-sem
			r.inflight.Add(-1)
			if !read {
				r.record(k, ok, err)
			}
			mu.Lock()
			defer mu.Unlock()
			if read {
				w.reads++
				if err != nil || !ok {
					w.readErrs++
				} else {
					w.readMs = append(w.readMs, ms)
				}
				return
			}
			switch {
			case errors.Is(err, mdcc.ErrOverloaded):
				w.sheds++
			case err != nil:
				w.errs++
			case ok:
				w.commits++
				w.writeMs = append(w.writeMs, ms)
				w.writeAt = append(w.writeAt, sched.Sub(start))
				w.rpcMs = append(w.rpcMs, rpc)
			default:
				w.aborts++
			}
		}()
	}
	// Backlog grows when the system falls behind: the in-flight count at
	// the end of the schedule exceeds mid-schedule by more than the
	// arrivals of one SLO period.
	w.backlog = r.inflight.Load() > midInflight+int64(rate*slo.P99Ms/1000)+8
	wg.Wait()
	return w
}

// quiesce waits until no arrival is in flight and visibility settles.
func (r *liveRun) quiesce() {
	for r.inflight.Load() > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
}

// checkpointTick waits until server i completes a checkpoint and
// returns when it was observed.
func (r *liveRun) checkpointTick(i int, timeout time.Duration) (time.Time, error) {
	count := func() (int64, error) {
		m, err := r.cl.scrape(i)
		if err != nil {
			return 0, err
		}
		var c int64
		for _, sh := range m.Shards {
			if sh.Durability != nil {
				c += sh.Durability.Checkpoints
			}
		}
		return c, nil
	}
	c0, err := count()
	if err != nil {
		return time.Time{}, err
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		c, err := count()
		if err != nil {
			return time.Time{}, err
		}
		if c > c0 {
			return time.Now(), nil
		}
	}
	return time.Time{}, fmt.Errorf("server %d took no checkpoint in %s", i, timeout)
}

// restart is the recovery phase: SIGKILL the victim server, start it
// again and time until a commit through its DC's gateway is
// acknowledged. The returned session is homed in the victim's DC.
func (r *liveRun) restart(round int) (time.Duration, *mdcc.RemoteSession, error) {
	killed := time.Now()
	r.cl.kill(victim)
	if err := r.cl.start(victim); err != nil {
		return 0, nil, err
	}
	if err := r.cl.waitReady(victim, time.Now().Add(60*time.Second)); err != nil {
		return 0, nil, err
	}
	dc := mdcc.AllDCs()[victim]
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		s, err := mdcc.DialGateway(r.cl.topo, dc, fmt.Sprintf("probe%d-%d", round, attempt), "127.0.0.1:0")
		if err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		ok, err := s.Commit(mdcc.Insert(mdcc.Key(fmt.Sprintf("probe/%d-%d", round, attempt)), mdcc.Value{Attrs: map[string]int64{"p": 1}}))
		if ok && err == nil {
			return time.Since(killed), s, nil
		}
		s.Close()
	}
	return 0, nil, fmt.Errorf("no commit through %s within 30s of its restart", dc)
}

// checkKeys reads every key through s with up-to-date quorum reads
// and compares it with the acknowledged writes; it returns the first
// violation.
func (r *liveRun) checkKeys(s *mdcc.RemoteSession) error {
	errc := make(chan error, 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(r.keys) {
					return
				}
				if err := r.checkKey(s, k); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

func (r *liveRun) checkKey(s *mdcc.RemoteSession, k int) error {
	key := r.keys[k]
	v, _, exists, err := s.ReadLatest(key)
	if err != nil {
		return fmt.Errorf("read %s: %v", key, err)
	}
	if !exists {
		return fmt.Errorf("%s: missing", key)
	}
	r.mu.Lock()
	acked, unknown := r.acks[k], r.unknown[k]
	r.mu.Unlock()
	var got int64
	if r.spec.durable {
		got = v.Attrs["n"]
		if len(v.Blob) != r.spec.blobBytes {
			return fmt.Errorf("%s: blob of %d bytes, want %d", key, len(v.Blob), r.spec.blobBytes)
		}
	} else {
		got = (1 << 40) - v.Attrs["stock"]
	}
	if got < acked || got > acked+unknown {
		return fmt.Errorf("%s: %d updates applied, %d acknowledged (+%d unknown)", key, got, acked, unknown)
	}
	return nil
}

// measured is one fixed-rate window and what the servers did in it.
type measured struct {
	fixed      *window
	cpuMs      float64         // server CPU over the window
	before     []serverMetrics // /metrics at the window's edges (untraced)
	after      []serverMetrics
	wchar      int64   // bytes the servers wrote (files and sockets) over the window
	steal      float64 // share of the machine's CPU time stolen during the window
	windowFrom time.Time
	windowTo   time.Time
}

// liveResult is everything a live run measured.
type liveResult struct {
	measured
	setup     []float64 // seconds, one per boot
	rssMiB    float64
	rungs     []Rung
	restarts  []float64     // seconds from SIGKILL to a commit through the restarted DC
	restarted serverMetrics // the victim's /metrics after its restart
	tail      int64         // the victim's WAL records past its checkpoint at the kill
	spanDir   string        // traced: where the servers write their spans
	attempted int64
	failed    int64
	checkErr  error
}

// window measures one fixed-rate window. A durable window opens half a
// checkpoint cycle after the first server's checkpoint and spans whole
// cycles, so every server checkpoints the same number of times inside
// it in every run. A traced window is the span recorders' window.
func (r *liveRun) window(dur time.Duration, traced bool) (*measured, error) {
	if !traced {
		waitQuiet()
	}
	m := &measured{}
	start := time.Now()
	if r.spec.cycle > 0 && !traced {
		tick, err := r.checkpointTick(0, 2*r.spec.cycle)
		if err != nil {
			return nil, err
		}
		start = tick.Add(r.spec.cycle / 2)
	}
	var err error
	if !traced {
		if m.before, err = r.cl.scrapeAll(); err != nil {
			return nil, err
		}
	}
	cpu0, err := r.cl.cpuTicks()
	if err != nil {
		return nil, err
	}
	io0, err := r.cl.writtenBytes()
	if err != nil {
		return nil, err
	}
	if traced {
		r.cl.signalAll(syscall.SIGUSR1)
	}
	// The machine's CPU times are read at the window's scheduled start,
	// after any wait for a checkpoint.
	if d := time.Until(start); d > 0 {
		time.Sleep(d)
	}
	mc0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	m.windowFrom = start
	m.fixed = r.drive(r.spec.writeRate, start, dur)
	m.windowTo = time.Now()
	mc1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	m.steal = stolen(mc0, mc1)
	if traced {
		r.cl.signalAll(syscall.SIGUSR2)
	}
	cpu1, err := r.cl.cpuTicks()
	if err != nil {
		return nil, err
	}
	io1, err := r.cl.writtenBytes()
	if err != nil {
		return nil, err
	}
	m.wchar = io1 - io0
	if !traced {
		if m.after, err = r.cl.scrapeAll(); err != nil {
			return nil, err
		}
	}
	m.cpuMs = float64(cpu1-cpu0) * 1000 / clockTick
	return m, nil
}

// waitQuiet waits, up to quietWait, for a second in which no more than
// maxSteal of the machine's CPU time was stolen: bursts of steal last
// tens of seconds, so a window opened inside one would likely be
// measured again.
func waitQuiet() {
	deadline := time.Now().Add(quietWait)
	for time.Now().Before(deadline) {
		c0, err0 := readCPUTimes()
		time.Sleep(time.Second)
		c1, err1 := readCPUTimes()
		if err0 != nil || err1 != nil || stolen(c0, c1) <= maxSteal {
			return
		}
	}
}

// runLive executes one live workload: boot (setupRepeats times when
// full, keeping the last deployment), warm up, the fixed-rate window,
// the slo ladder (when full), the correctness checks and the restart
// phase. Traced runs skip the restart and the checks that need
// /metrics.
func runLive(spec liveSpec, seed int64, seconds int, bin, work string, full, traced bool, extraFn func(dir string) []string) (*liveResult, error) {
	res := &liveResult{}
	dur := time.Duration(seconds) * time.Second
	var r *liveRun
	repeats := 1
	if full {
		repeats = spec.boots()
	}
	boot := func(i int, stagger time.Duration) error {
		if r != nil {
			r.close()
		}
		dir := filepath.Join(work, fmt.Sprintf("boot%d", i))
		var err error
		r, err = newLiveRun(spec, seed, bin, dir, extraFn(dir), stagger)
		return err
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if err := boot(i, 0); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	if spec.cycle > 0 {
		// Durable servers are measured booted a fifth of a checkpoint
		// cycle apart, as independent data centers would be, so their
		// checkpoints never coincide: one server's stall is then masked
		// by the fast quorum of the other four, as it would be in
		// production. The timed boots above start all five at once.
		if err := boot(repeats, spec.cycle/5); err != nil {
			return nil, err
		}
	}
	defer r.close()
	r.drive(spec.writeRate, time.Now(), warmup)

	// The fixed-rate window. It is measured once more when the
	// hypervisor ran other guests on this machine's CPUs for more than
	// maxSteal of the time, and the window with less steal is reported.
	var kept *measured
	for attempt := 0; ; attempt++ {
		m, err := r.window(dur, traced)
		if err != nil {
			return nil, err
		}
		res.attempted += m.fixed.attempted() + m.fixed.reads
		res.failed += m.fixed.errs + m.fixed.readErrs
		if attempt == 0 {
			// Peak memory is read after the first window: a second one,
			// or the ladder's overloaded top rung, would otherwise set it.
			if res.rssMiB, err = r.cl.hwmMiB(); err != nil {
				return nil, err
			}
		}
		if kept == nil || m.steal < kept.steal {
			kept = m
		}
		if traced || m.steal <= maxSteal || attempt == windowRetries {
			break
		}
		fmt.Fprintf(os.Stderr, "window: %.1f %% of the CPU stolen, measuring again\n", 100*m.steal)
	}
	res.measured = *kept
	if traced {
		res.spanDir = r.cl.dir
	}

	if full {
		r.ladder(res)
	}
	r.quiesce()
	if traced {
		return res, nil
	}
	if !spec.durable {
		// The hot keys' stock drop must equal the acknowledged
		// decrements before anything is restarted.
		res.checkErr = r.checkKeys(r.sess[0])
	}
	// Let the ladder's overloaded top rung drain out of the servers
	// (queues, garbage, feeds) before timing restarts.
	time.Sleep(settle)
	probe, err := r.restarts(res)
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	if spec.durable {
		// Every acknowledged write must read back through the restarted
		// DC, with no lost update on any key.
		res.checkErr = r.checkKeys(probe)
	}
	return res, nil
}

// ladder climbs the spec's offered write rates until one misses the
// SLO.
func (r *liveRun) ladder(res *liveResult) {
	for _, rate := range r.spec.ladder {
		var rung Rung
		// A rung that fails while more than maxSteal of the CPU was
		// stolen is climbed again.
		for attempt := 0; ; attempt++ {
			c0, err0 := readCPUTimes()
			w := r.drive(rate, time.Now(), r.spec.rung)
			c1, err1 := readCPUTimes()
			steal := 0.0
			if err0 == nil && err1 == nil {
				steal = stolen(c0, c1)
			}
			res.attempted += w.attempted() + w.reads
			res.failed += w.errs + w.readErrs
			t, ok := percentile(sortedCopy(w.writeMs), 0.99)
			rung = Rung{Rate: rate, Committed: float64(w.commits) / w.secs, P99Ms: t.Value, P99OK: ok,
				Backlog: w.backlog, GenLate: w.maxLag > lagBound}
			fmt.Fprintf(os.Stderr, "ladder %6.0f tx/s: committed %7.1f/s p99 %7.2f ms (n=%d q=%.4f) backlog=%v lag=%s steal=%.1f%%\n",
				rate, rung.Committed, t.Value, t.N, t.Q, w.backlog, w.maxLag.Round(time.Microsecond), 100*steal)
			if slo.passes(rung) || steal <= maxSteal || attempt == rungRetries {
				break
			}
		}
		res.rungs = append(res.rungs, rung)
		if !slo.passes(rung) {
			return
		}
	}
}

// boots is how many times set-up is repeated for its median.
func (s liveSpec) boots() int {
	if s.durable {
		return 9
	}
	return 11
}

// restartRounds is how many times the restart is repeated for its
// median: an in-memory restart takes tens of milliseconds, a durable
// one first waits for the victim's next checkpoint.
func (s liveSpec) restartRounds() int {
	if s.durable {
		return 3
	}
	return 11
}

// restarts runs the recovery phase and returns a session homed in the
// victim's DC. Before each durable kill it waits for the victim's next
// checkpoint and commits a fixed number of writes, so the replayed
// tail has the same length every run.
func (r *liveRun) restarts(res *liveResult) (*mdcc.RemoteSession, error) {
	var probe *mdcc.RemoteSession
	for i := 0; i < r.spec.restartRounds(); i++ {
		if probe != nil {
			probe.Close()
		}
		if r.spec.durable {
			if _, err := r.checkpointTick(victim, 2*r.spec.cycle); err != nil {
				return nil, err
			}
			r.tailWrites(r.spec.tailN)
			m, err := r.cl.scrape(victim)
			if err != nil {
				return nil, err
			}
			res.tail = 0
			for _, sh := range m.Shards {
				if sh.Durability != nil {
					res.tail += sh.Durability.AppendsSinceCheckpoint
				}
			}
		}
		d, s, err := r.restart(i)
		if err != nil {
			return nil, err
		}
		probe = s
		res.restarts = append(res.restarts, d.Seconds())
	}
	var err error
	res.restarted, err = r.cl.scrape(victim)
	if err != nil {
		probe.Close()
		return nil, err
	}
	return probe, nil
}

// tailWrites commits n read-modify-writes on distinct keys, eight at a
// time, and books them like any other write.
func (r *liveRun) tailWrites(n int) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, k := range r.rng.Perm(len(r.keys))[:n] {
		sem <- struct{}{}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ok, err := r.do(r.sess[k%len(r.sess)], false, k)
			r.record(k, ok, err)
			<-sem
		}(k)
	}
	wg.Wait()
}
