// Reliable link layer and crash handling, active only under a chaos plan
// (Config.Chaos). The link's protocol state is internal/link's; this file
// does what it asks: puts its frames on the wire with their CPU charges,
// arms its retransmit timers, emits its events and counts its metrics.
// Nodes crash fail-stop with durable kernel and link state: a crashed
// node is simply unresponsive, and on restart its stalled frames and
// timers re-arm. Heartbeats drive crash suspicion, which fails in-flight
// remote invocations with the typed ErrNodeDown.

package kernel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ErrNodeDown types faults caused by a crashed (or suspected-crashed) peer;
// test and callers match it with errors.Is.
var ErrNodeDown = errors.New("node down")

// sendReliable sends inner to dst as the link's next data frame. A frame
// the link reuses keeps its timer: the func names the frame, not its seq.
func (n *Node) sendReliable(dst int, inner []byte, kind string) {
	f := n.link.Send(dst, inner, kind, n.now())
	if f.Timer == nil {
		f.Timer = func() {
			if n.link.Timeout(f, n.Up, n.now()) == link.Resend {
				n.transmit(f)
			}
		}
	}
	n.transmit(f)
}

// transmit puts the attempt of f the link counted on the medium and arms
// its retransmission timer.
func (n *Node) transmit(f *link.Frame) {
	if f.Attempts > 1 {
		// A retransmission resends the already-marshalled frame from the
		// kernel's buffer: it costs a timer pop and a copy, not the full
		// per-message protocol-stack charge the first send paid (charging
		// SendCycles here would snowball the CPU queue under loss and
		// collapse the link).
		n.charge(uint64(n.cluster.Costs.SyscallCycles) +
			uint64(n.cluster.Costs.PerByteCycles)*uint64(len(f.Wire)))
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvRetransmit,
			A: uint64(f.Seq), B: uint64(f.Dst), Str: f.Kind, Span: uint32(f.Attempts)})
		n.count(&n.ctr.retransmits, "retransmits", n.labels, 1)
	}
	n.netSend(f.Dst, f.Wire)
	// The frame reaches the wire only after the CPU drains the marshalling
	// work already queued (netSend passes CPU.FreeAt as the earliest start);
	// count the timeout from there, or a long marshal alone triggers a
	// spurious retransmission. The timer is strong (it keeps the simulation
	// alive) because an unacked frame is unfinished protocol work.
	n.sched.At(f.RTO+max(n.CPU.FreeAt-n.now(), 0), f.Timer)
}

// heartbeatTick is the per-node liveness beacon and suspicion sweep, run
// every heartbeat period. It keeps ticking (without sending) while the node
// is down so the cadence survives a restart. Only idle links beat: every
// valid link frame — data, ack, retransmission — is liveness evidence at the
// receiver, so a peer this node sent anything to within the last period
// needs no beacon. A live peer is therefore heard from at least every two
// periods, loss aside.
func (n *Node) heartbeatTick() {
	if !n.Up {
		return
	}
	now := n.now()
	for id := range n.cluster.Nodes {
		if id == n.ID {
			continue
		}
		beat, suspect := n.link.Tick(id, now)
		if beat {
			n.charge(uint64(n.cluster.Costs.SyscallCycles))
			n.netSend(id, link.Heartbeat)
			n.count(&n.ctr.heartbeats, "heartbeats", n.labels, 1)
		}
		if suspect {
			n.cluster.Rec.Emit(obs.Event{At: int64(now), Node: int32(n.ID),
				Kind: obs.EvNodeSuspect, B: uint64(id)})
			n.cluster.Rec.Metrics().Add("node_suspects", n.labels, 1)
			// Every location learned at the peer so far is now stale
			// (locStale): its forwarding addresses may dangle.
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
func (n *Node) downUnsuspected(m *Node) bool { return !m.Up && !n.link.Suspected(m.ID) }

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
			n.moves.Park(id, func() { n.failWaitersOn(peer) })
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
	if !o.Resident && o.transit == nil && node >= 0 && node < len(n.cluster.Nodes) && node != n.ID && epoch >= o.Epoch {
		o.LastKnown, o.Epoch, o.locDowns = node, epoch, n.link.Downs(node)
	}
	if n.link.Suspected(node) {
		n.failWaitersOn(node)
	}
}

// locStale reports whether o's proxy names a node that has been suspected
// since the proxy learned it: the location may be a dangling forwarding
// address.
func (n *Node) locStale(o *Obj) bool { return n.link.Downs(o.LastKnown) != o.locDowns }

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
	for _, f := range n.link.Restart(n.now()) {
		n.transmit(f)
	}
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
