// Reliable link layer and crash handling, active only under a chaos plan
// (Config.Chaos). Every protocol message travels as a CRC'd, sequence-
// numbered LData frame that the receiver acknowledges and the sender
// retransmits on an exponential-backoff timer until acked. Per-source
// in-order release (node.go deliver) makes delivery exactly-once and FIFO
// per channel, which the forwarding-address protocol's loop-freedom relies
// on. Nodes crash fail-stop with durable kernel and link state: a crashed
// node is simply unresponsive, and on restart its stalled frames and timers
// re-arm. Heartbeats drive crash suspicion, which fails in-flight remote
// invocations with the typed ErrNodeDown.

package kernel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/wire"
)

// ErrNodeDown types faults caused by a crashed (or suspected-crashed) peer;
// test and callers match it with errors.Is.
var ErrNodeDown = errors.New("node down")

// pendingFrame is one unacked reliable frame.
type pendingFrame struct {
	dst      int
	seq      uint32
	frame    []byte // marshalled LinkFrame, retransmitted verbatim
	kind     string // payload kind, for the retransmit event
	attempts int
	acked    bool
	// stalled parks the frame: retries exhausted against a suspected peer,
	// or the retransmit timer fired while this node was down. Parked frames
	// re-arm when the peer recovers or this node restarts — the channel
	// sequence must stay contiguous, so frames are never abandoned.
	stalled bool
	// timer is the frame's retransmission check, bound once: every arming
	// schedules this same func.
	timer func()
}

// heartbeatFrame is the one heartbeat a node sends a peer on a tick that
// finds their link idle: an empty LRaw frame, constant, so it is marshalled
// once.
var heartbeatFrame = wire.LinkFrame{Kind: wire.LRaw}.Marshal()

func linkKey(dst int, seq uint32) uint64 { return uint64(uint32(dst))<<32 | uint64(seq) }

// sendReliable wraps inner in an LData frame, registers it for
// retransmission and puts it on the wire.
func (n *Node) sendReliable(dst int, inner []byte, kind string) {
	n.peers[dst].outSeq++
	seq := n.peers[dst].outSeq
	lf := wire.LinkFrame{Kind: wire.LData, Seq: seq, Inner: inner}
	pf := &pendingFrame{dst: dst, seq: seq, frame: lf.Marshal(), kind: kind}
	pf.timer = func() { n.retransmitCheck(pf) }
	n.unacked[linkKey(dst, seq)] = pf
	n.lastFrame = pf
	n.transmit(pf)
}

// transmit puts one attempt of pf on the medium and arms the next
// retransmission timer.
func (n *Node) transmit(pf *pendingFrame) {
	pf.attempts++
	if pf.attempts > 1 {
		// A retransmission resends the already-marshalled frame from the
		// kernel's buffer: it costs a timer pop and a copy, not the full
		// per-message protocol-stack charge the first send paid (charging
		// SendCycles here would snowball the CPU queue under loss and
		// collapse the link).
		n.charge(uint64(n.cluster.Costs.SyscallCycles) +
			uint64(n.cluster.Costs.PerByteCycles)*uint64(len(pf.frame)))
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvRetransmit,
			A: uint64(pf.seq), B: uint64(pf.dst), Str: pf.kind, Span: uint32(pf.attempts)})
		n.count(&n.ctr.retransmits, "retransmits", n.labels, 1)
	}
	n.netSend(pf.dst, pf.frame)
	n.armRetransmit(pf)
}

// armRetransmit schedules the retransmission check for pf's current attempt
// with exponential backoff. The timer is strong (it keeps the simulation
// alive) because an unacked frame is unfinished protocol work.
func (n *Node) armRetransmit(pf *pendingFrame) {
	plan := n.cluster.Chaos
	rto := plan.RTOMin()
	for i := 1; i < pf.attempts; i++ {
		rto *= 2
		if rto >= plan.RTOCap() {
			rto = plan.RTOCap()
			break
		}
	}
	// The frame reaches the wire only after the CPU drains the marshalling
	// work already queued (netSend passes CPU.FreeAt as the earliest start);
	// count the timeout from there, or a long marshal alone triggers a
	// spurious retransmission.
	if wait := n.CPU.FreeAt - n.now(); wait > 0 {
		rto += wait
	}
	n.sched.At(rto, pf.timer)
}

// retransmitCheck is pf's timer body: resend unless the frame was acked or
// must park.
func (n *Node) retransmitCheck(pf *pendingFrame) {
	if pf.acked || pf.stalled {
		return
	}
	if !n.Up {
		// Fired while crashed: park; restart re-arms.
		pf.stalled = true
		return
	}
	if pf.attempts >= n.cluster.Chaos.Retries() && n.suspected(pf.dst) {
		// The peer looks dead: park until it is heard from again.
		pf.stalled = true
		return
	}
	n.transmit(pf)
}

// sendLinkAck acknowledges one LData sequence number (fire-and-forget; a
// lost ack is recovered by the sender's retransmission, which is re-acked).
func (n *Node) sendLinkAck(dst int, seq uint32) {
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	n.ackBuf = wire.LinkFrame{Kind: wire.LAck, Seq: seq}.AppendTo(n.ackBuf[:0])
	n.netSend(dst, n.ackBuf)
}

// recvAck retires an unacked frame (a move in transit reads its acked flag).
func (n *Node) recvAck(src int, seq uint32) {
	pf, ok := n.unacked[linkKey(src, seq)]
	if !ok {
		return // duplicate ack
	}
	pf.acked = true
	delete(n.unacked, linkKey(src, seq))
}

// heard notes liveness evidence from src, clearing suspicion and reviving
// any frames parked against it.
func (n *Node) heard(src int) {
	p := &n.peers[src]
	p.lastHeard = n.now()
	if p.suspect {
		p.suspect = false
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvNodeRecover, B: uint64(src)})
		n.reviveStalled(func(pf *pendingFrame) bool { return pf.dst == src })
	}
}

// reviveStalled re-arms parked frames matching the filter, in (dst, seq)
// order for determinism.
func (n *Node) reviveStalled(match func(*pendingFrame) bool) {
	keys := make([]uint64, 0, len(n.unacked))
	for k, pf := range n.unacked {
		if pf.stalled && match(pf) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		pf := n.unacked[k]
		pf.stalled = false
		n.transmit(pf)
	}
}

// heartbeatTick is the per-node liveness beacon and suspicion sweep, run
// every heartbeat period. It keeps ticking (without sending) while the node
// is down so the cadence survives a restart. Only idle links beat: every
// valid link frame — data, ack, retransmission — is liveness evidence at the
// receiver (deliver calls heard before it looks at the kind), so a peer
// this node sent anything to within the last period needs no beacon. A
// live peer is therefore heard from at least every two periods, loss aside.
func (n *Node) heartbeatTick() {
	plan := n.cluster.Chaos
	if !n.Up {
		return
	}
	now := n.now()
	for id := range n.peers {
		if id == n.ID {
			continue
		}
		if now-n.peers[id].lastSent >= plan.HeartbeatPeriod() {
			n.charge(uint64(n.cluster.Costs.SyscallCycles))
			n.netSend(id, heartbeatFrame)
			n.count(&n.ctr.heartbeats, "heartbeats", n.labels, 1)
		}
		if p := &n.peers[id]; !p.suspect && now-p.lastHeard > plan.SuspectTimeout() {
			p.suspect = true
			n.cluster.Rec.Emit(obs.Event{At: int64(now), Node: int32(n.ID),
				Kind: obs.EvNodeSuspect, B: uint64(id)})
			n.cluster.Rec.Metrics().Add("node_suspects", n.labels, 1)
			// Every location learned at the peer so far is now stale
			// (locStale): its forwarding addresses may dangle.
			p.downs++
			n.failWaitersOn(id)
			n.dropLeasesAt(id)
		}
	}
}

// awaitsDown reports whether a call blocked here awaits a custodian that
// is down and not yet suspected. The heartbeat tick is strong while one
// does, so the suspicion that fails the call comes before the run can end.
func (n *Node) awaitsDown() bool {
	if !n.Up || !slices.ContainsFunc(n.cluster.Nodes, n.downUnsuspected) {
		return false // the common case, without a look at the fragments
	}
	for _, f := range n.frags {
		if f.Status == FragStateBlockedCall && f.waitNode >= 0 && n.downUnsuspected(n.cluster.Nodes[f.waitNode]) {
			return true
		}
	}
	return false
}

// downUnsuspected reports whether node m is down and n does not suspect it.
func (n *Node) downUnsuspected(m *Node) bool { return !m.Up && !n.suspected(m.ID) }

// failWaitersOn faults every fragment blocked on a Return that the newly
// suspected peer may hold: its call's custodian is the peer, or the
// object's learned home is. The second catches a call whose custody
// reports crossed on two links, left waiting at a forwarder that has
// passed it on (DESIGN.md §10, "Custody of a call").
func (n *Node) failWaitersOn(peer int) {
	ids := make([]uint32, 0, len(n.frags))
	for id, f := range n.frags {
		o := n.objects[f.waitObj]
		home := f.waitNode >= 0 && o != nil && !o.Resident && o.LastKnown == peer
		if f.Status == FragStateBlockedCall && (f.waitNode == int32(peer) || home) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		if f := n.frags[id]; f.held {
			// Ask again once the move resolves: by then the call may have
			// left, or been answered.
			n.parkOn(id, func() { n.failWaitersOn(peer) })
		} else {
			n.faultErr(f, ErrNodeDown, fmt.Sprintf("remote invocation lost: node %d is down", peer))
		}
	}
}

// recvUpdateLoc takes a forwarder's custody report: src passed on a
// request about p.Target, made here, to p.Node. The calls this node
// awaits from src on that object now await p.Node, and the proxy learns
// the location. Only the node that holds a call moves it: a call still
// queued at a slower forwarder stays where it is.
func (n *Node) recvUpdateLoc(src int, p *wire.UpdateLoc) {
	for _, f := range n.frags {
		if f.Status == FragStateBlockedCall && f.waitNode == int32(src) && f.waitObj == p.Target {
			f.waitNode = p.Node
		}
	}
	if o := n.objects[p.Target]; o != nil {
		n.learnLoc(o, int(p.Node), p.Epoch)
	}
}

// learnLoc records that o was at node at epoch: a custody report, a
// directory record, or the proxy's own knowledge confirmed. Apart from a
// move's commit and install it is the only writer of a proxy's location.
// It ignores resident objects and objects in transit, nodes outside the
// cluster and this node, and moves a proxy only forward in epoch: a tie
// is learned, which renews the location, for one (oid, epoch) has one
// home. A learned location is not stale. When node is already suspected,
// the calls blocked on o fail, as its suspicion failed the others.
func (n *Node) learnLoc(o *Obj, node int, epoch uint32) {
	if !o.Resident && o.transit == nil && node >= 0 && node < len(n.peers) && node != n.ID && epoch >= o.Epoch {
		o.LastKnown, o.Epoch, o.locDowns = node, epoch, n.peers[node].downs
	}
	if n.suspected(node) {
		n.failWaitersOn(node)
	}
}

// locStale reports whether o's proxy names a node that has been suspected
// since the proxy learned it: the location may be a dangling forwarding
// address.
func (n *Node) locStale(o *Obj) bool { return n.peers[o.LastKnown].downs != o.locDowns }

// crash takes the node down fail-stop: it stops running and receiving, but
// its memory, object table and link state are durable across the outage.
func (n *Node) crash() {
	if !n.Up {
		return
	}
	n.Up = false
	n.cluster.Net.SetNodeUp(n.ID, false)
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvNodeCrash})
	n.cluster.Rec.Metrics().Add("node_crashes", n.labels, 1)
	for _, m := range n.cluster.Nodes {
		if m.awaitsDown() {
			// Hold the run to m's next tick, which re-arms strong: the
			// crash came after the last tick that looked, and nothing
			// else may be left to keep the run going.
			m.sched.At(n.cluster.Chaos.HeartbeatPeriod(), func() {})
		}
	}
}

// restart brings a crashed node back: parked frames and stalled timers
// re-arm, peers get a fresh suspicion grace period, and the scheduler
// resumes.
func (n *Node) restart() {
	if n.Up {
		return
	}
	n.Up = true
	n.cluster.Net.SetNodeUp(n.ID, true)
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvNodeRestart})
	// Do not instantly suspect everyone after a long outage.
	for id := range n.peers {
		if id != n.ID {
			n.peers[id].lastHeard = n.now()
		}
	}
	n.reviveStalled(func(pf *pendingFrame) bool { return !n.suspected(pf.dst) })
	// Re-arm the timers that fired while down, by class and then key, each
	// once (several move-retry timers ask for one pass).
	slices.SortFunc(n.stalled, func(a, b stalledTimer) int {
		return cmp.Or(cmp.Compare(a.class, b.class), cmp.Compare(a.key, b.key))
	})
	for i, st := range n.stalled {
		if i == 0 || st.class != n.stalled[i-1].class || st.key != n.stalled[i-1].key {
			st.rearm()
		}
	}
	n.stalled = n.stalled[:0]
	n.schedule()
}

// The classes of protocol timer that can fire while their node is down,
// in the order restart re-arms them.
const (
	stallCommit    = iota // a move's commit window, keyed by span
	stallMoveRetry        // the move-retry pass
	stallDecree           // a decree round, keyed by first slot
	stallLookup           // a directory lookup's timeout, keyed by token
)

// stalledTimer is a protocol timer that fired while its node was down.
type stalledTimer struct {
	class int
	key   uint64
	rearm func()
}

// stall notes a timer that fired while n was down; restart re-arms it.
func (n *Node) stall(class int, key uint64, rearm func()) {
	n.stalled = append(n.stalled, stalledTimer{class, key, rearm})
}
