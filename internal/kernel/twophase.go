// Two-phase commit for object moves, active only under a chaos plan: the
// protocol's state is internal/commit's, and this file carries out what it
// decides. A move is prepared without destroying anything: its stack-split
// steps are stored as data, and the object and the fragments it ships are
// held until the destination acks the install. Commit takes the steps,
// retires each fragment whose top left and makes the object a proxy;
// abort undoes nothing. Chaos-off each step applies where it is made.

package kernel

import (
	"fmt"
	"slices"

	"repro/internal/commit"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/wire"
)

// moveData is the kernel's side of a move; a live one stores its steps.
type moveData struct {
	obj   *Obj
	fix   bool
	steps []splitStep
}

type liveMove = commit.Move[moveData]

// splitStep is one step splitting frag's stack, as data: adopt a remainder
// piece (frames, its walked records) under id, link remainder id to the
// piece below, or, with id 0, cut frag's top remainder below its oldest
// record by writing word at retDesc.
type splitStep struct {
	frag          *Frag
	id            uint32
	frames        []frameInfo
	link          Link
	retDesc, word uint32
}

// split takes st now, chaos-off, or stores it for mv's commit.
func (n *Node) split(mv *liveMove, st splitStep) {
	switch {
	case !n.chaosOn():
		n.takeStep(&st)
		return
	case st.frames != nil:
		st.frames = slices.Clone(st.frames)
		mv.Pieces = append(mv.Pieces, st.id)
	}
	mv.Data.steps = append(mv.Data.steps, st)
}

func (n *Node) takeStep(st *splitStep) {
	switch {
	case st.frames != nil:
		n.adoptRemainder(st.frames, st.id)
	case st.id != 0:
		n.frags[st.id].Link = st.link
	default:
		st.frag.Link = st.link
		n.st32(st.retDesc, st.word)
	}
}

// becomeProxy makes o, moved to dest, a proxy (byAddr still resolves it).
func (n *Node) becomeProxy(o *Obj, dest int) {
	o.Resident = false
	o.LastKnown, o.locDowns = dest, n.link.Downs(dest)
	o.Mon = nil
	n.Migrations++
}

// decide carries out d: its proposal, then its verdict.
func (n *Node) decide(d commit.Decision[moveData], reason string) {
	n.dirPropose(d.Propose)
	switch mv := d.Move; d.Verdict {
	case commit.Commit:
		n.commitMove(mv)
	case commit.Abort:
		n.abortMove(mv, reason)
	case commit.Rearm:
		n.armCommitTimer(mv)
	case commit.Stall:
		n.stall(stallCommit, uint64(mv.Span), func() { n.armCommitTimer(mv) })
	}
}

func (n *Node) armCommitTimer(mv *liveMove) {
	n.sched.At(n.cluster.Chaos.CommitWindow(), func() {
		n.decide(n.moves.Window(mv, n.Up, n.link.Acked(mv.Dest, mv.Seq), n.link.Suspected(mv.Dest)), "timeout")
	})
}

func (n *Node) recvMoveAck(src int, p *wire.MoveAck) {
	d, reason := n.moves.Ack(p.SpanID, p.Ok), ""
	if d.Verdict == commit.Violation {
		n.violate(invResidency, p.Object, 0, "node %d installed aborted move span %d", src, p.SpanID)
	} else if !p.Ok {
		reason = "refused: " + p.Err
	}
	n.decide(d, reason)
}

// commitMove takes the move's steps fragment by fragment, retiring each
// fragment whose top left (no step cut it), and makes the object a proxy.
func (n *Node) commitMove(mv *liveMove) {
	steps := mv.Data.steps
	for _, id := range mv.Held {
		f, left := n.frags[id], true
		for ; len(steps) > 0 && steps[0].frag == f; steps = steps[1:] {
			left = left && steps[0].id != 0
			n.takeStep(&steps[0])
		}
		if left { // late returns to the fragment forward
			n.movedFrags[id] = mv.Dest
			n.killFrag(f)
		}
	}
	n.becomeProxy(mv.Data.obj, mv.Dest)
	n.settle(mv, obs.EvMoveCommit, "move_commits", "")
}

// abortMove rolls a move back: the object stays resident, and the move
// requeues for a later retry.
func (n *Node) abortMove(mv *liveMove, reason string) {
	o := mv.Data.obj
	if !n.link.Acked(mv.Dest, mv.Seq) {
		// The Move must not install at the destination, but its link
		// sequence number must still be delivered — in-order release would
		// otherwise stall on the gap forever. Swap the payload for a
		// harmless same-sequence filler: a negative MoveAck for this very
		// span, which the destination ignores.
		noop := &wire.Msg{Src: int32(n.ID), Dst: int32(mv.Dest), Seq: n.nextSeq(),
			Payload: &wire.MoveAck{Object: o.OID, SpanID: mv.Span, Epoch: o.Epoch, Err: "aborted"}}
		n.link.Replace(mv.Dest, mv.Seq, noop.Marshal(), "moveack")
	}
	o.Epoch--
	n.settle(mv, obs.EvMoveAbort, "move_aborts", reason)
	n.pendingMoves = append(n.pendingMoves, pendingMove{o.OID, mv.Dest, mv.Data.fix})
	n.armMoveRetry()
}

// settle ends a committed or aborted move: the object leaves transit, the
// held fragments resume in the order the move took them (one whose top
// left is dead), and what parked on the move replays.
func (n *Node) settle(mv *liveMove, kind obs.Kind, metric, reason string) {
	o := mv.Data.obj
	o.transit = nil
	for _, id := range mv.Held {
		if f := n.frags[id]; f != nil {
			if f.held = false; f.Status == FragStateReady {
				n.enqueue(f)
			}
		}
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: kind,
		Span: mv.Span, Obj: uint32(o.OID), B: uint64(mv.Dest), Str: reason})
	n.cluster.Rec.Metrics().Add(metric, n.labels, 1)
	for _, op := range n.moves.Close(mv) {
		op()
	}
}

// armMoveRetry schedules a retryPendingMoves pass (chaos only). The timer
// is strong: a requeued move is unfinished work.
func (n *Node) armMoveRetry() {
	n.sched.At(n.cluster.Chaos.RetryMoveAfter(), func() {
		if !n.Up {
			n.stall(stallMoveRetry, 0, func() { n.sched.At(0, n.retryPendingMoves) })
			return
		}
		n.retryPendingMoves()
	})
}

// validateMove structurally validates an inbound Move against this node's
// templates before anything is installed: fragment piece indices, bus
// stops, value counts, stack fit, monitor references and location hints.
// Under chaos a malformed Move is refused with a protocol error the
// source's abort path handles; it must never panic the destination.
func (n *Node) validateMove(p *wire.Move) error {
	for _, h := range p.Hints {
		if int(h.Node) < 0 || int(h.Node) >= len(n.cluster.Nodes) {
			return fmt.Errorf("hint for %v names node %d; cluster has %d nodes",
				h.OID, h.Node, len(n.cluster.Nodes))
		}
	}
	if p.IsArray {
		if len(p.Frags) > 0 || p.MonLocked || len(p.EntryQueue) > 0 || len(p.CondQueues) > 0 {
			return fmt.Errorf("array move carries thread or monitor state")
		}
		if ir.VK(p.ArrayElemKind) > ir.VKPtr {
			return fmt.Errorf("bad array element kind %d", p.ArrayElemKind)
		}
		if len(p.Data) > 1<<20 {
			return fmt.Errorf("array length %d too large", len(p.Data))
		}
		return nil
	}
	lc, err := n.loadCode(p.CodeOID)
	if err != nil {
		return fmt.Errorf("code %v: %v", p.CodeOID, err)
	}
	tmpl := lc.oc.Template
	if len(p.Data) != len(tmpl.Slots) {
		return fmt.Errorf("object has %d data slots; template %s declares %d",
			len(p.Data), lc.oc.Name, len(tmpl.Slots))
	}
	fragIDs := map[uint32]bool{}
	for i := range p.Frags {
		wf := &p.Frags[i]
		if fragIDs[wf.FragID] {
			return fmt.Errorf("duplicate fragment id %08x", wf.FragID)
		}
		fragIDs[wf.FragID] = true
		if wf.Status > wire.FragBlockedEntry {
			return fmt.Errorf("fragment %08x: bad status %d", wf.FragID, wf.Status)
		}
		if wf.Custody && (wf.Status != wire.FragBlockedCall || !wf.Executing ||
			wf.WaitNode < 0 || int(wf.WaitNode) >= len(n.cluster.Nodes)) {
			return fmt.Errorf("fragment %08x: custody at node %d of a %v piece", wf.FragID, wf.WaitNode, wf.Status)
		}
		if wf.Status == wire.FragWaitCond && int(wf.CondIndex) >= tmpl.NumConds {
			return fmt.Errorf("fragment %08x: condition index %d out of range (%d conditions)",
				wf.FragID, wf.CondIndex, tmpl.NumConds)
		}
		if len(wf.Acts) == 0 {
			return fmt.Errorf("fragment %08x has no activations", wf.FragID)
		}
		var total uint32
		for ai := range wf.Acts {
			a := &wf.Acts[ai]
			alc, err := n.loadCode(a.CodeOID)
			if err != nil {
				return fmt.Errorf("fragment %08x activation %d: %v", wf.FragID, ai, err)
			}
			if int(a.FuncIndex) >= len(alc.funcs) {
				return fmt.Errorf("fragment %08x activation %d: function index %d out of range (%d functions)",
					wf.FragID, ai, a.FuncIndex, len(alc.funcs))
			}
			lf := alc.funcs[a.FuncIndex]
			t := lf.fc.Template
			if len(a.Vars) > len(t.Vars) {
				return fmt.Errorf("fragment %08x activation %d (%s): %d vars; template declares %d",
					wf.FragID, ai, lf.name(), len(a.Vars), len(t.Vars))
			}
			if a.Stop == wire.EntryStop {
				if len(a.Temps) > 0 {
					return fmt.Errorf("fragment %08x activation %d (%s): entry stop with %d temporaries",
						wf.FragID, ai, lf.name(), len(a.Temps))
				}
			} else {
				stop, err := lf.fc.Stops.ByStop(int(a.Stop))
				if err != nil {
					return fmt.Errorf("fragment %08x activation %d (%s): %v",
						wf.FragID, ai, lf.name(), err)
				}
				if len(a.Temps) > stop.TempDepth+1 {
					return fmt.Errorf("fragment %08x activation %d (%s): %d temporaries at stop %d (depth %d)",
						wf.FragID, ai, lf.name(), len(a.Temps), a.Stop, stop.TempDepth)
				}
			}
			total += uint32(t.Size)
		}
		if total > stackSize {
			return fmt.Errorf("fragment %08x needs %d stack bytes; region is %d",
				wf.FragID, total, stackSize)
		}
	}
	if p.MonLocked && !fragIDs[p.MonHolder] {
		return fmt.Errorf("monitor holder %08x not among migrated fragments", p.MonHolder)
	}
	for _, id := range p.EntryQueue {
		if !fragIDs[id] {
			return fmt.Errorf("monitor entrant %08x not among migrated fragments", id)
		}
	}
	if len(p.CondQueues) > tmpl.NumConds {
		return fmt.Errorf("%d condition queues; template %s declares %d conditions",
			len(p.CondQueues), lc.oc.Name, tmpl.NumConds)
	}
	for k, q := range p.CondQueues {
		for _, id := range q {
			if !fragIDs[id] {
				return fmt.Errorf("condition %d waiter %08x not among migrated fragments", k, id)
			}
		}
	}
	return nil
}
