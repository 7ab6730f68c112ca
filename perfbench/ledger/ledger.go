// Package ledger is the benchmark's per-layer cost ledger. A Net wraps
// a transport.Network and turns every Send, every delivered message
// and every timer callback into a span; a span's self time is its
// duration minus the Send spans nested in it. Installed as the TCP
// transport's WireTracer, a Recorder also stamps each outgoing
// envelope's TraceClk with the id of the Send span that carried it, so
// the handler span that receives it names its cause across processes.
//
// Spans stay in memory while recording is on and are written out as a
// Dump; Analyze folds the dumps of every process into per-layer costs.
package ledger

import (
	"bytes"
	"encoding/gob"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdcc/internal/clock"
	"mdcc/internal/transport"
)

// Span kinds.
const (
	KindHandler uint8 = iota + 1 // a delivered message, on its node
	KindSend                     // one Network.Send call
	KindTimer                    // an After callback, on its node
)

// Span is one timed call into a layer.
type Span struct {
	ID uint64
	// Parent is, for a handler span, the Send span that carried its
	// message (possibly in another process; 0 when unknown), and for a
	// Send span the handler or timer span it was issued from (0 when
	// issued outside any).
	Parent uint64
	Kind   uint8
	Node   uint16 // index into Dump.Nodes
	Type   uint16 // index into Dump.Types: the message type
	Start  int64  // unix nanoseconds
	Dur    int64  // nanoseconds
}

// Node classes, by transport id.
const (
	ClassAcceptor    = "acceptor"
	ClassGateway     = "gateway"
	ClassCoordinator = "coordinator"
	ClassClient      = "client"
)

// Classify names the layer a transport node belongs to: "<dc>/storeN"
// storage nodes, the "gw/<dc>" gateway, its "gw/<dc>/cN" pooled
// coordinators, "client/…" thin clients; anything else (the simulated
// world's client nodes) embeds a coordinator.
func Classify(id string) string {
	switch {
	case strings.HasPrefix(id, "gw/") && strings.Count(id, "/") == 1:
		return ClassGateway
	case strings.HasPrefix(id, "gw/"):
		return ClassCoordinator
	case strings.Contains(id, "/store"):
		return ClassAcceptor
	case strings.HasPrefix(id, "client/"):
		return ClassClient
	}
	return ClassCoordinator
}

// Recorder holds one process's spans and pairings.
type Recorder struct {
	proc   uint64
	next   atomic.Uint64
	on     atomic.Bool
	single bool // one goroutine runs every handler (the simulator)
	now    func() time.Time
	limit  int

	mu        sync.Mutex
	spans     []Span
	dropped   int64
	nodeIdx   map[transport.NodeID]uint16
	nodes     []string
	typeIdx   map[string]uint16
	types     []string
	sendCount map[uint16]int64
	samples   map[uint16][]transport.Envelope
	pairs     *Pairs

	cur     uint64   // single: the open handler/timer span
	curByG  sync.Map // goroutine id -> open handler/timer span
	sending sync.Map // goroutine id -> Send span being sent
}

// NewRecorder makes a recorder for process proc (unique across the
// processes whose dumps are analyzed together). clockNow times the
// pairings (virtual time in the simulator); spans use wall time.
// single declares that all handlers run on one goroutine.
func NewRecorder(proc uint64, clockNow func() time.Time, single bool) *Recorder {
	r := &Recorder{
		proc: proc, single: single, now: clockNow, limit: 4 << 20,
		nodeIdx: map[transport.NodeID]uint16{}, typeIdx: map[string]uint16{},
		sendCount: map[uint16]int64{}, samples: map[uint16][]transport.Envelope{},
		pairs: newPairs(),
	}
	r.types = append(r.types, "") // index 0: no message (timers)
	return r
}

// Start and Stop bracket the recorded window.
func (r *Recorder) Start() { r.on.Store(true) }
func (r *Recorder) Stop()  { r.on.Store(false) }

func (r *Recorder) newID() uint64 { return r.proc<<48 | r.next.Add(1) }

func (r *Recorder) node(id transport.NodeID) uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.nodeIdx[id]
	if !ok {
		i = uint16(len(r.nodes))
		r.nodeIdx[id] = i
		r.nodes = append(r.nodes, string(id))
	}
	return i
}

func (r *Recorder) typeOfLocked(msg transport.Message) uint16 {
	name := TypeName(msg)
	i, ok := r.typeIdx[name]
	if !ok {
		i = uint16(len(r.types))
		r.typeIdx[name] = i
		r.types = append(r.types, name)
	}
	return i
}

// TypeName is a message's type without its package. A batch is named
// after its first item too ("Batch.MsgProposeFast"), since batches
// carry most of the gateway's traffic.
func TypeName(msg transport.Message) string {
	if msg == nil {
		return ""
	}
	if b, ok := msg.(transport.Batch); ok && len(b.Items) > 0 {
		return "Batch." + TypeName(b.Items[0].Msg)
	}
	return reflect.TypeOf(msg).Name()
}

// gid is the calling goroutine's id, parsed from its stack header.
func gid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// enter opens a handler or timer span on the calling goroutine and
// returns the function that closes it.
func (r *Recorder) enter(kind uint8, node uint16, msg transport.Message, parent uint64) func() {
	id := r.newID()
	var g uint64
	var prev uint64
	if r.single {
		prev, r.cur = r.cur, id
	} else {
		g = gid()
		if v, ok := r.curByG.Load(g); ok {
			prev = v.(uint64)
		}
		r.curByG.Store(g, id)
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		if r.single {
			r.cur = prev
		} else if prev != 0 {
			r.curByG.Store(g, prev)
		} else {
			r.curByG.Delete(g)
		}
		r.mu.Lock()
		var t uint16
		if msg != nil {
			t = r.typeOfLocked(msg)
		}
		r.appendLocked(Span{ID: id, Parent: parent, Kind: kind, Node: node, Type: t, Start: start.UnixNano(), Dur: int64(d)})
		r.mu.Unlock()
	}
}

func (r *Recorder) appendLocked(s Span) {
	if len(r.spans) >= r.limit {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// current is the open handler/timer span of the calling goroutine.
func (r *Recorder) current() (uint64, uint64) {
	if r.single {
		return r.cur, 0
	}
	g := gid()
	if v, ok := r.curByG.Load(g); ok {
		return v.(uint64), g
	}
	return 0, g
}

// send times one Send through do.
func (r *Recorder) send(from transport.NodeID, e transport.Envelope, do func()) {
	if !r.on.Load() {
		do()
		return
	}
	parent, g := r.current()
	id := r.newID()
	if !r.single {
		r.sending.Store(g, id)
	}
	r.pairs.sent(e, r.now())
	start := time.Now()
	do()
	d := time.Since(start)
	if !r.single {
		r.sending.Delete(g)
	}
	node := r.node(from)
	r.mu.Lock()
	t := r.typeOfLocked(e.Msg)
	r.sendCount[t]++
	if len(r.samples[t]) < codecSamples {
		r.samples[t] = append(r.samples[t], e)
	}
	r.appendLocked(Span{ID: id, Parent: parent, Kind: KindSend, Node: node, Type: t, Start: start.UnixNano(), Dur: int64(d)})
	r.mu.Unlock()
}

// StampSend implements transport.WireTracer: the envelope being sent
// on this goroutine carries the id of its Send span.
func (r *Recorder) StampSend() uint64 {
	if r.single || !r.on.Load() {
		return 0
	}
	if v, ok := r.sending.Load(gid()); ok {
		return v.(uint64)
	}
	return 0
}

// ObserveRecv implements transport.WireTracer; handler spans read the
// stamp from the envelope itself.
func (r *Recorder) ObserveRecv(uint64) {}

// Net is a transport.Network that records spans into a Recorder.
type Net struct {
	inner transport.Network
	rec   *Recorder
}

// NewNet wraps inner.
func NewNet(inner transport.Network, rec *Recorder) *Net { return &Net{inner: inner, rec: rec} }

// Register wraps the handler so every delivery is a span.
func (n *Net) Register(id transport.NodeID, h transport.Handler) {
	node := n.rec.node(id)
	n.inner.Register(id, func(env transport.Envelope) {
		if !n.rec.on.Load() {
			h(env)
			return
		}
		n.rec.pairs.delivered(env, n.rec.now())
		done := n.rec.enter(KindHandler, node, env.Msg, env.TraceClk)
		h(env)
		done()
	})
}

// Send times the inner Send.
func (n *Net) Send(from, to transport.NodeID, msg transport.Message) {
	n.rec.send(from, transport.Envelope{From: from, To: to, Msg: msg}, func() { n.inner.Send(from, to, msg) })
}

// After wraps the callback so it is a span on its node.
func (n *Net) After(on transport.NodeID, d time.Duration, f func()) clock.Timer {
	node := n.rec.node(on)
	return n.inner.After(on, d, func() {
		if !n.rec.on.Load() {
			f()
			return
		}
		done := n.rec.enter(KindTimer, node, nil, 0)
		f()
		done()
	})
}

// Now passes through.
func (n *Net) Now() time.Time { return n.inner.Now() }

// Dump is everything one process recorded.
type Dump struct {
	Proc    uint64
	Nodes   []string
	Types   []string
	Spans   []Span
	Dropped int64
	Pairs   PairSamples
	Codec   CodecCost
}

// Dump snapshots the recorder, timing the codec over the envelopes it
// sampled.
func (r *Recorder) Dump() *Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Dump{
		Proc: r.proc, Nodes: append([]string(nil), r.nodes...), Types: append([]string(nil), r.types...),
		Spans: r.spans, Dropped: r.dropped, Pairs: r.pairs.snapshot(),
		Codec: timeCodec(r.samples, r.sendCount),
	}
}

// WriteFile writes a dump.
func (d *Dump) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadDump reads a dump written by WriteFile.
func ReadDump(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d Dump
	err = gob.NewDecoder(f).Decode(&d)
	return &d, err
}
