package ledger

import (
	"sync"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/paxos"
	"mdcc/internal/transport"
)

// PairSamples are latencies measured between two events of one
// process, in milliseconds of the recorder's clock.
type PairSamples struct {
	// Residency: gateway MsgTx delivered → its MsgTxReply sent, paired
	// by client and ReqID. ReadResidency: the same for gateway reads.
	Residency, ReadResidency []float64
	// FastQuorum: an option's first fast proposal sent → the fast
	// quorum's last vote delivered to its coordinator, by OptionID.
	FastQuorum []float64
}

type reqKey struct {
	client transport.NodeID
	req    uint64
}

type proposal struct {
	at    time.Time
	votes int
}

// Pairs matches request/response events as messages pass the Net.
type Pairs struct {
	mu    sync.Mutex
	fast  int
	tx    map[reqKey]time.Time
	rd    map[reqKey]time.Time
	props map[core.OptionID]*proposal
	out   PairSamples
}

func newPairs() *Pairs {
	return &Pairs{
		fast: paxos.NewQuorum(5).Fast,
		tx:   map[reqKey]time.Time{}, rd: map[reqKey]time.Time{},
		props: map[core.OptionID]*proposal{},
	}
}

// maxOpen bounds each table of unmatched starts; past it, entries
// older than staleAfter are swept (lost replies never match).
const (
	maxOpen    = 1 << 16
	staleAfter = 10 * time.Second
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// delivered notes a message handed to a node's handler.
func (p *Pairs) delivered(e transport.Envelope, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deliveredLocked(e, now)
}

func (p *Pairs) deliveredLocked(e transport.Envelope, now time.Time) {
	switch m := e.Msg.(type) {
	case transport.Batch:
		for _, it := range m.Items {
			p.deliveredLocked(it, now)
		}
	case gateway.MsgTx:
		p.tx[reqKey{e.From, m.ReqID}] = now
		sweep(p.tx, now)
	case gateway.MsgRead:
		p.rd[reqKey{e.From, m.ReqID}] = now
		sweep(p.rd, now)
	case core.MsgVote:
		p.vote(m, now)
	case core.MsgVoteBatch:
		for _, v := range m.Votes {
			p.vote(v, now)
		}
	}
}

func (p *Pairs) vote(v core.MsgVote, now time.Time) {
	if v.Forwarded || v.WrongGroup {
		return
	}
	pr, ok := p.props[v.OptID]
	if !ok {
		return
	}
	pr.votes++
	if pr.votes == p.fast {
		p.out.FastQuorum = append(p.out.FastQuorum, ms(now.Sub(pr.at)))
		delete(p.props, v.OptID)
	}
}

// sent notes a message handed to Send.
func (p *Pairs) sent(e transport.Envelope, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sentLocked(e, now)
}

func (p *Pairs) sentLocked(e transport.Envelope, now time.Time) {
	switch m := e.Msg.(type) {
	case transport.Batch:
		for _, it := range m.Items {
			p.sentLocked(it, now)
		}
	case gateway.MsgTxReply:
		k := reqKey{e.To, m.ReqID}
		if at, ok := p.tx[k]; ok {
			p.out.Residency = append(p.out.Residency, ms(now.Sub(at)))
			delete(p.tx, k)
		}
	case gateway.MsgReadReply:
		k := reqKey{e.To, m.ReqID}
		if at, ok := p.rd[k]; ok {
			p.out.ReadResidency = append(p.out.ReadResidency, ms(now.Sub(at)))
			delete(p.rd, k)
		}
	case core.MsgProposeFast:
		p.propose(m.Opt.ID(), now)
	case core.MsgProposeBatch:
		for _, o := range m.Opts {
			p.propose(o.ID(), now)
		}
	}
}

func (p *Pairs) propose(id core.OptionID, now time.Time) {
	if _, ok := p.props[id]; ok {
		return // the same proposal to the next acceptor
	}
	if len(p.props) >= maxOpen {
		for k, pr := range p.props {
			if now.Sub(pr.at) > staleAfter {
				delete(p.props, k)
			}
		}
	}
	p.props[id] = &proposal{at: now}
}

func sweep(m map[reqKey]time.Time, now time.Time) {
	if len(m) < maxOpen {
		return
	}
	for k, at := range m {
		if now.Sub(at) > staleAfter {
			delete(m, k)
		}
	}
}

func (p *Pairs) snapshot() PairSamples {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PairSamples{
		Residency:     append([]float64(nil), p.out.Residency...),
		ReadResidency: append([]float64(nil), p.out.ReadResidency...),
		FastQuorum:    append([]float64(nil), p.out.FastQuorum...),
	}
}
