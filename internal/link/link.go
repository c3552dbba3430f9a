// Package link is a node's reliable channels to its peers under a chaos
// plan: sequence numbers, acks, backoff retransmission, in-order
// exactly-once release — the forwarding-address protocol's loop freedom
// (§4.3) rests on it — and heartbeat suspicion. It is state only: no
// clock, timer, network or I/O. Each input is given the time and returns
// what to do; the kernel (internal/kernel/rlink.go) does it.
package link

import (
	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Heartbeat is the frame a tick sends an idle peer: constant, marshalled once.
var Heartbeat = wire.LinkFrame{Kind: wire.LRaw}.Marshal()

// Frame is one unacked data frame.
type Frame struct {
	Dst int
	Seq uint32
	// stalled parks the frame until Revive, never abandoning it (its seq
	// would leave a gap); in Seq's padding, it keeps a Frame 80 bytes.
	stalled  bool
	Wire     []byte        // the marshalled LinkFrame, resent verbatim
	Kind     string        // the payload's kind, for the retransmit event
	Attempts int           // times put on the wire, this one included
	RTO      netsim.Micros // RTOMin, doubled per attempt up to RTOCap
	Timer    func()        // the sender's retransmit timer, bound once and kept on reuse; never called here
}

// Verdict is what a retransmit timeout asks of the sender.
type Verdict int

const (
	Done   Verdict = iota // acked, or stalled already
	Resend                // resend Wire and re-arm Timer after RTO
	Stall                 // parked until Revive
)

// Arrival is what a received frame asks of the receiver. Ack and Release
// are valid until the next Recv.
type Arrival struct {
	Recovered bool     // the sender was suspected; heard from, it may Revive
	Ack       []byte   // a data frame's ack, to send back (every copy is acked)
	Dup       bool     // the data frame was released before
	Release   [][]byte // payloads released in order: its own, then those held behind it
}

// Link is a node's channel state toward each peer, indexed by peer id.
type Link struct {
	plan    *chaos.Plan
	peers   []peer
	ackBuf  []byte   // netsim.Send copies a frame, so one buffer serves every ack
	release [][]byte // Arrival.Release's backing array
	revived []*Frame // Revive's result, valid until the next Revive
	free    []*Frame // frames retired by Timeout, for Send to reuse
}

type peer struct {
	out  uint32            // the last sequence number sent to the peer
	in   uint32            // the last one released from it
	hold map[uint32][]byte // its out-of-order payloads, until the gap fills
	// unacked are the frames out-len+1 … out in sequence order, nil once
	// acked; the acked prefix is cut off.
	unacked []*Frame
	// lastHeard is when a valid frame last came from the peer, lastSent
	// when one last went to it: heartbeats go to idle links only.
	lastHeard, lastSent netsim.Micros
	suspect             bool   // heartbeat silence: the peer looks down
	downs               uint32 // how many times it has been suspected
}

var noPlan chaos.Plan // what times a link given no plan: the defaults

// New returns the link state of a node in a cluster of peers nodes, timed
// by plan (its defaults when nil).
func New(peers int, plan *chaos.Plan) Link {
	if plan == nil {
		plan = &noPlan
	}
	return Link{plan: plan, peers: make([]peer, peers)}
}

// Suspected reports whether heartbeat silence has peer p suspected down.
func (l *Link) Suspected(p int) bool { return p >= 0 && p < len(l.peers) && l.peers[p].suspect }

// Downs is how many times peer p has been suspected.
func (l *Link) Downs(p int) uint32 { return l.peers[p].downs }

// LastSeq is the sequence number of the last frame sent to dst.
func (l *Link) LastSeq(dst int) uint32 { return l.peers[dst].out }

// Send wraps inner in the next data frame to dst (one Timeout retired, if
// any) and returns it, its first attempt counted, to put on the wire.
func (l *Link) Send(dst int, inner []byte, kind string, now netsim.Micros) *Frame {
	p := &l.peers[dst]
	p.out++
	var f *Frame
	if k := len(l.free) - 1; k >= 0 {
		f, l.free = l.free[k], l.free[:k]
	} else {
		f = &Frame{}
	}
	f.Dst, f.Seq, f.Kind, f.Attempts = dst, p.out, kind, 0
	f.Wire = wire.LinkFrame{Kind: wire.LData, Seq: p.out, Inner: inner}.AppendTo(f.Wire[:0])
	p.unacked = append(p.unacked, f)
	l.attempt(f, now)
	return f
}

// attempt counts f going on the wire once more, now.
func (l *Link) attempt(f *Frame, now netsim.Micros) {
	f.Attempts++
	f.RTO = l.plan.RTOMin()
	for i := 1; i < f.Attempts; i++ {
		f.RTO = min(2*f.RTO, l.plan.RTOCap())
	}
	l.peers[f.Dst].lastSent = now
}

// slot is frame seq's index in unacked: negative once it is acked and
// cut off, past the end if it was never sent.
func (p *peer) slot(seq uint32) int { return int(seq) - int(p.out) + len(p.unacked) - 1 }

// Acked reports whether frame seq to dst has been acknowledged.
func (l *Link) Acked(dst int, seq uint32) bool {
	i := l.peers[dst].slot(seq)
	return i < 0 || l.peers[dst].unacked[i] == nil
}

// Replace swaps the payload of frame seq to dst for inner, of the given
// kind, unless the frame is acked.
func (l *Link) Replace(dst int, seq uint32, inner []byte, kind string) {
	if !l.Acked(dst, seq) {
		f := l.peers[dst].unacked[l.peers[dst].slot(seq)]
		f.Wire, f.Kind = wire.LinkFrame{Kind: wire.LData, Seq: seq, Inner: inner}.AppendTo(f.Wire[:0]), kind
	}
}

// Timeout is f's retransmit timer firing; up is whether this node runs. An
// acked frame, which nothing else holds now, is retired for Send to reuse.
func (l *Link) Timeout(f *Frame, up bool, now netsim.Micros) Verdict {
	switch {
	case f.stalled:
		return Done
	case l.Acked(f.Dst, f.Seq):
		l.free = append(l.free, f)
		return Done
	case !up || f.Attempts >= l.plan.Retries() && l.peers[f.Dst].suspect:
		f.stalled = true
		return Stall
	}
	l.attempt(f, now)
	return Resend
}

// Revive unparks every stalled frame to a peer not suspected and returns
// them in (dst, seq) order, each attempt counted, to put on the wire
// again. A frame stalls only while this node is down, which Restart ends,
// or against a suspected peer, which only Recv clears: so on a running
// node Revive finds the frames to the peer just heard from again.
func (l *Link) Revive(now netsim.Micros) []*Frame {
	out := l.revived[:0]
	for dst := range l.peers {
		for _, f := range l.peers[dst].unacked {
			if f != nil && f.stalled && !l.peers[dst].suspect {
				f.stalled = false
				l.attempt(f, now)
				out = append(out, f)
			}
		}
	}
	l.revived = out
	return out
}

// Restart is this node back from an outage: each peer gets a fresh
// suspicion grace period, lest all be suspected at once; frames Revive.
func (l *Link) Restart(now netsim.Micros) []*Frame {
	for i := range l.peers {
		l.peers[i].lastHeard = now
	}
	return l.Revive(now)
}

// Tick is the heartbeat tick's look at peer p: beat is that nothing went
// to p for a period, so Heartbeat goes now; suspect, that p is silent past
// the suspicion timeout and newly suspected.
func (l *Link) Tick(p int, now netsim.Micros) (beat, suspect bool) {
	q := &l.peers[p]
	if beat = now-q.lastSent >= l.plan.HeartbeatPeriod(); beat {
		q.lastSent = now
	}
	if suspect = !q.suspect && now-q.lastHeard > l.plan.SuspectTimeout(); suspect {
		q.suspect, q.downs = true, q.downs+1
	}
	return beat, suspect
}

// Recv takes a frame from src. One that fails its checks is the error and
// changes nothing; any other is liveness evidence, whatever its kind. An
// ack retires its frame, and a data frame is acked and released in order.
func (l *Link) Recv(src int, buf []byte, now netsim.Micros) (Arrival, error) {
	lf, err := wire.ParseLinkFrame(buf)
	if err != nil {
		return Arrival{}, err
	}
	p := &l.peers[src]
	a := Arrival{Recovered: p.suspect}
	p.lastHeard, p.suspect = now, false
	switch lf.Kind {
	case wire.LAck: // retire the frame and cut off the acked prefix
		if i := p.slot(lf.Seq); i >= 0 && i < len(p.unacked) {
			p.unacked[i] = nil
		}
		k := 0
		for k < len(p.unacked) && p.unacked[k] == nil {
			k++
		}
		clear(p.unacked[copy(p.unacked, p.unacked[k:]):])
		p.unacked = p.unacked[:len(p.unacked)-k]
		fallthrough
	case wire.LRaw:
		return a, nil
	}
	l.ackBuf = wire.LinkFrame{Kind: wire.LAck, Seq: lf.Seq}.AppendTo(l.ackBuf[:0])
	a.Ack, p.lastSent = l.ackBuf, now
	switch next := p.in + 1; {
	case lf.Seq < next:
		a.Dup = true
	case lf.Seq > next && p.hold[lf.Seq] == nil:
		if p.hold == nil {
			p.hold = map[uint32][]byte{}
		}
		p.hold[lf.Seq] = append([]byte{}, lf.Inner...) // not nil, even empty: release stops at nil
	case lf.Seq == next:
		a.Release = append(l.release[:0], lf.Inner)
		for p.in = next; p.hold[p.in+1] != nil; p.in++ {
			a.Release = append(a.Release, p.hold[p.in+1])
			delete(p.hold, p.in+1)
		}
		l.release = a.Release
	}
	return a, nil
}
