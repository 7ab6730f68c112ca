package ledger

import (
	"time"

	"mdcc/internal/transport"
)

// codecSamples is how many envelopes per message type the recorder
// keeps for the codec timing.
const codecSamples = 16

// CodecCost is the binary codec's cost per message, averaged over the
// sampled envelopes of each type and weighted by how often each type
// was sent.
type CodecCost struct {
	EncodeUs, DecodeUs, Bytes float64
	Msgs                      int64 // sends the weights cover
}

// timeCodec times transport.AppendEnvelope and transport.DecodeFrame
// over each type's samples.
func timeCodec(samples map[uint16][]transport.Envelope, counts map[uint16]int64) CodecCost {
	const reps = 200
	var c CodecCost
	for t, envs := range samples {
		var enc, dec time.Duration
		var bytes, n int
		for _, e := range envs {
			payload, err := transport.AppendEnvelope(nil, e)
			if err != nil {
				continue
			}
			buf := make([]byte, 0, len(payload))
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				buf, _ = transport.AppendEnvelope(buf[:0], e)
			}
			enc += time.Since(t0)
			t0 = time.Now()
			for i := 0; i < reps; i++ {
				_, _ = transport.DecodeFrame(payload)
			}
			dec += time.Since(t0)
			bytes += len(payload)
			n++
		}
		if n == 0 {
			continue
		}
		w := counts[t]
		per := float64(n * reps)
		c.EncodeUs += float64(w) * float64(enc.Microseconds()) / per
		c.DecodeUs += float64(w) * float64(dec.Microseconds()) / per
		c.Bytes += float64(w) * float64(bytes) / float64(n)
		c.Msgs += w
	}
	if c.Msgs > 0 {
		c.EncodeUs /= float64(c.Msgs)
		c.DecodeUs /= float64(c.Msgs)
		c.Bytes /= float64(c.Msgs)
	}
	return c
}

// SelfTimes returns, for every handler and timer span, its duration
// minus the Send spans issued from inside it.
func SelfTimes(spans []Span) map[uint64]int64 {
	self := make(map[uint64]int64, len(spans)/2)
	for _, s := range spans {
		if s.Kind != KindSend {
			self[s.ID] += s.Dur
		}
	}
	for _, s := range spans {
		if s.Kind == KindSend && s.Parent != 0 {
			if _, ok := self[s.Parent]; ok {
				self[s.Parent] -= s.Dur
			}
		}
	}
	return self
}

// Ledger is the per-layer fold of every process's spans.
type Ledger struct {
	// SelfNs and Handled are per node class: self time of handler and
	// timer spans, and the handler spans counted.
	SelfNs, Handled map[string]int64
	// TypeSelfNs and TypeHandled split acceptor handler spans by message type.
	TypeSelfNs, TypeHandled map[string]int64
	// TopNs is the summed duration of handler and timer spans (the
	// time the transport or engine spent inside node code).
	TopNs int64
	// SendNs and Sends cover every Send span.
	SendNs, Sends int64
	// Parented counts handler spans whose envelope named a cause, and
	// Linked those whose cause was found among all processes' spans.
	Parented, Linked int64
	Dropped          int64
	Pairs            PairSamples
	Codec            CodecCost
}

// Analyze folds the dumps of every process of one deployment.
func Analyze(dumps []*Dump) *Ledger {
	l := &Ledger{SelfNs: map[string]int64{}, Handled: map[string]int64{},
		TypeSelfNs: map[string]int64{}, TypeHandled: map[string]int64{}}
	sends := map[uint64]bool{}
	for _, d := range dumps {
		for _, s := range d.Spans {
			if s.Kind == KindSend {
				sends[s.ID] = true
			}
		}
	}
	var msgs int64
	for _, d := range dumps {
		self := SelfTimes(d.Spans)
		for _, s := range d.Spans {
			if s.Kind == KindSend {
				l.SendNs += s.Dur
				l.Sends++
				continue
			}
			class := Classify(d.Nodes[s.Node])
			l.SelfNs[class] += self[s.ID]
			l.TopNs += s.Dur
			if s.Kind != KindHandler {
				continue
			}
			l.Handled[class]++
			if class == ClassAcceptor {
				l.TypeSelfNs[d.Types[s.Type]] += self[s.ID]
				l.TypeHandled[d.Types[s.Type]]++
			}
			if s.Parent != 0 {
				l.Parented++
				if sends[s.Parent] {
					l.Linked++
				}
			}
		}
		l.Dropped += d.Dropped
		l.Pairs.Residency = append(l.Pairs.Residency, d.Pairs.Residency...)
		l.Pairs.ReadResidency = append(l.Pairs.ReadResidency, d.Pairs.ReadResidency...)
		l.Pairs.FastQuorum = append(l.Pairs.FastQuorum, d.Pairs.FastQuorum...)
		c := d.Codec
		w := float64(c.Msgs)
		l.Codec.EncodeUs += w * c.EncodeUs
		l.Codec.DecodeUs += w * c.DecodeUs
		l.Codec.Bytes += w * c.Bytes
		msgs += c.Msgs
	}
	if msgs > 0 {
		l.Codec.EncodeUs /= float64(msgs)
		l.Codec.DecodeUs /= float64(msgs)
		l.Codec.Bytes /= float64(msgs)
		l.Codec.Msgs = msgs
	}
	return l
}
