package ledger

import (
	"sync"
	"testing"
	"time"

	"mdcc/internal/clock"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/transport"
)

func TestSelfTimeSubtractsNestedSends(t *testing.T) {
	spans := []Span{
		{ID: 1, Kind: KindHandler, Dur: 100},
		{ID: 2, Parent: 1, Kind: KindSend, Dur: 30},
		{ID: 3, Parent: 1, Kind: KindSend, Dur: 20},
		{ID: 4, Kind: KindTimer, Dur: 50},
		{ID: 5, Parent: 4, Kind: KindSend, Dur: 50},
		{ID: 6, Kind: KindSend, Dur: 7},                // outside any handler
		{ID: 7, Parent: 99, Kind: KindHandler, Dur: 9}, // cause in another process
	}
	self := SelfTimes(spans)
	want := map[uint64]int64{1: 50, 4: 0, 7: 9}
	if len(self) != len(want) {
		t.Fatalf("self times for %d spans, want %d: %v", len(self), len(want), self)
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestAnalyzeLinksCausesAcrossProcesses(t *testing.T) {
	// Process 1's coordinator sends to process 2's acceptor, whose
	// handler names that send as its cause.
	send := uint64(1)<<48 | 5
	p1 := &Dump{Proc: 1, Nodes: []string{"gw/us-west/c0"}, Types: []string{"", "MsgProposeFast"}, Spans: []Span{
		{ID: 1<<48 | 4, Kind: KindHandler, Node: 0, Type: 1, Dur: 40},
		{ID: send, Parent: 1<<48 | 4, Kind: KindSend, Node: 0, Type: 1, Dur: 10},
	}}
	p2 := &Dump{Proc: 2, Nodes: []string{"us-east/store0"}, Types: []string{"", "MsgProposeFast"}, Spans: []Span{
		{ID: 2<<48 | 1, Parent: send, Kind: KindHandler, Node: 0, Type: 1, Dur: 25},
		{ID: 2<<48 | 2, Parent: 2<<48 | 1, Kind: KindSend, Node: 0, Type: 1, Dur: 5},
		{ID: 2<<48 | 3, Parent: 7<<48 | 1, Kind: KindHandler, Node: 0, Type: 1, Dur: 3}, // cause never recorded
	}}
	l := Analyze([]*Dump{p1, p2})
	if l.Parented != 2 || l.Linked != 1 {
		t.Fatalf("parented %d linked %d, want 2 and 1", l.Parented, l.Linked)
	}
	if l.SelfNs[ClassCoordinator] != 30 || l.SelfNs[ClassAcceptor] != 23 {
		t.Fatalf("self times %v", l.SelfNs)
	}
	if l.TypeSelfNs["MsgProposeFast"] != 23 || l.TypeHandled["MsgProposeFast"] != 2 {
		t.Fatalf("per-type %v %v", l.TypeSelfNs, l.TypeHandled)
	}
	if l.Sends != 2 || l.SendNs != 15 {
		t.Fatalf("sends %d %d", l.Sends, l.SendNs)
	}
}

// loopback is a synchronous transport: Send runs the destination's
// handler on a fresh goroutine and waits for it, like a remote
// process answering, and stamps TraceClk through the tracer.
type loopback struct {
	mu     sync.Mutex
	h      map[transport.NodeID]transport.Handler
	tracer transport.WireTracer
}

func (l *loopback) Register(id transport.NodeID, h transport.Handler) {
	l.mu.Lock()
	l.h[id] = h
	l.mu.Unlock()
}

func (l *loopback) Send(from, to transport.NodeID, msg transport.Message) {
	e := transport.Envelope{From: from, To: to, Msg: msg, TraceClk: l.tracer.StampSend()}
	l.mu.Lock()
	h := l.h[to]
	l.mu.Unlock()
	done := make(chan struct{})
	go func() { h(e); close(done) }()
	<-done
}

func (l *loopback) After(transport.NodeID, time.Duration, func()) clock.Timer { return nil }
func (l *loopback) Now() time.Time                                            { return time.Now() }

func TestNetRecordsNestingAndCauses(t *testing.T) {
	lb := &loopback{h: map[transport.NodeID]transport.Handler{}}
	rec := NewRecorder(3, time.Now, false)
	lb.tracer = rec
	n := NewNet(lb, rec)
	n.Register("us-west/store0", func(e transport.Envelope) {
		time.Sleep(time.Millisecond)
		n.Send("us-west/store0", "gw/us-west/c0", core.MsgVote{})
	})
	n.Register("gw/us-west/c0", func(transport.Envelope) {})
	n.Send("client/x", "us-west/store0", core.MsgProposeFast{}) // before Start: not recorded
	rec.Start()
	n.Send("client/x", "us-west/store0", core.MsgProposeFast{})
	rec.Stop()
	d := rec.Dump()
	byID := map[uint64]Span{}
	for _, s := range d.Spans {
		byID[s.ID] = s
	}
	if len(d.Spans) != 4 {
		t.Fatalf("%d spans, want 4 (two sends, two handlers): %+v", len(d.Spans), d.Spans)
	}
	for _, s := range d.Spans {
		switch {
		case s.Kind == KindHandler && d.Nodes[s.Node] == "us-west/store0":
			cause := byID[s.Parent]
			if cause.Kind != KindSend || d.Types[cause.Type] != "MsgProposeFast" {
				t.Fatalf("acceptor handler's cause is %+v", cause)
			}
		case s.Kind == KindSend && d.Types[s.Type] == "MsgVote":
			parent := byID[s.Parent]
			if parent.Kind != KindHandler || d.Nodes[parent.Node] != "us-west/store0" {
				t.Fatalf("the vote send is not nested in the acceptor handler: %+v", parent)
			}
		}
	}
	self := SelfTimes(d.Spans)
	for _, s := range d.Spans {
		if s.Kind == KindHandler && d.Nodes[s.Node] == "us-west/store0" {
			if self[s.ID] < int64(time.Millisecond) || self[s.ID] >= s.Dur {
				t.Fatalf("acceptor self time %d of span %d", self[s.ID], s.Dur)
			}
		}
	}
}

func TestPairsResidencyAndFastQuorum(t *testing.T) {
	p := newPairs()
	t0 := time.Unix(100, 0)
	p.delivered(transport.Envelope{From: "client/a", Msg: gateway.MsgTx{ReqID: 7}}, t0)
	p.sent(transport.Envelope{To: "client/a", Msg: gateway.MsgTxReply{ReqID: 7}}, t0.Add(3*time.Millisecond))
	p.sent(transport.Envelope{To: "client/b", Msg: gateway.MsgTxReply{ReqID: 7}}, t0) // unmatched
	opt := core.Option{Tx: "t1"}
	for i := 0; i < 5; i++ { // the same proposal to five acceptors
		p.sent(transport.Envelope{Msg: transport.Batch{Items: []transport.Envelope{{Msg: core.MsgProposeFast{Opt: opt}}}}}, t0.Add(time.Duration(i)*time.Millisecond))
	}
	for i := 1; i <= 5; i++ {
		p.delivered(transport.Envelope{Msg: core.MsgVoteBatch{Votes: []core.MsgVote{{OptID: opt.ID()}}}}, t0.Add(time.Duration(10*i)*time.Millisecond))
	}
	s := p.snapshot()
	if len(s.Residency) != 1 || s.Residency[0] != 3 {
		t.Fatalf("residency %v", s.Residency)
	}
	if len(s.FastQuorum) != 1 || s.FastQuorum[0] != 40 {
		t.Fatalf("fast quorum %v (want the 4th vote, 40ms after the first proposal)", s.FastQuorum)
	}
}
