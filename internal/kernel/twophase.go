// Two-phase commit for object moves, active only under a chaos plan. The
// source node prepares a move without destroying anything: marshalling is
// read-only, and every destructive completion (stack restructuring,
// fragment retirement, residency flip) is collected as a deferred commit
// operation. The object stays resident until the destination acknowledges
// the install with a MoveAck; only then do the deferred operations run. On
// a negative ack, or when the Move was never delivered and the destination
// is suspected down, the move aborts: held fragments resume, parked
// operations replay locally, and the move is requeued for retry (degrading
// to remote invocation if the destination stays suspect). Chaos-off, the
// deferred operations execute inline at their historical program points, so
// behavior and the event stream are byte-identical to previous releases.

package kernel

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/wire"
)

// moveTxn is one in-flight move of one object.
type moveTxn struct {
	obj  *Obj
	dest int
	span uint32
	seq  uint32 // the link sequence number of the frame carrying the Move to dest
	fix  bool
	// live: chaos is on, so destructive operations defer until commit.
	live bool
	// dirPending: the transaction has been handed to the directory; a
	// duplicate positive MoveAck (the destination re-acks replayed Moves)
	// must not open a second decree for the same slot.
	dirPending bool
	// commitOps are the deferred destructive completions, in program order.
	commitOps []func()
	// held are the fragments the move ships, which wait for its outcome.
	held []*Frag
	// parked operations arrived for the object mid-transit; they replay in
	// arrival order once the move resolves (remotely after commit, locally
	// after abort).
	parked []func()
	// pieces are the ids minted for the local remainder pieces commit
	// creates: a Return to one that arrives first parks here.
	pieces []uint32
	// dirBatch groups this transaction with the rest of its MoveGroup
	// cohort so the directory commits the whole cohort in shared decree
	// rounds (nil for solo moves or when group decrees are disabled).
	dirBatch *dirGroupBatch
}

func (n *Node) newMoveTxn(o *Obj, dest int, fix bool) *moveTxn {
	return &moveTxn{obj: o, dest: dest, fix: fix, live: n.chaosOn()}
}

// do runs f immediately when the transaction is not live (chaos off) —
// preserving the historical execution order exactly — and defers it to
// commit otherwise.
func (tx *moveTxn) do(f func()) {
	if tx.live {
		tx.commitOps = append(tx.commitOps, f)
		return
	}
	f()
}

// release lets go of the fragments the move holds, in the order it took
// them, and requeues the ready ones (a commit operation retired the ones
// that left: they are dead).
func (n *Node) release(tx *moveTxn) {
	for _, f := range tx.held {
		f.held = false
		if f.Status == FragStateReady {
			n.enqueue(f)
		}
	}
	tx.held = nil
}

// parkOn defers op to the outcome of the live move that holds fragment id,
// or creates it at commit as a remainder piece, and reports whether one does.
func (n *Node) parkOn(id uint32, op func()) bool {
	for _, tx := range n.pendingCommits {
		if slices.Contains(tx.pieces, id) || slices.ContainsFunc(tx.held, func(f *Frag) bool { return f.ID == id }) {
			tx.parked = append(tx.parked, op)
			return true
		}
	}
	return false
}

// replayParked replays operations that arrived mid-transit, in order.
func (n *Node) replayParked(tx *moveTxn) {
	parked := tx.parked
	tx.parked = nil
	for _, op := range parked {
		op()
	}
}

// beginTransit registers a live transaction: the object is pinned for the
// collector, incoming operations park, and the commit timer arms.
func (n *Node) beginTransit(tx *moveTxn, span uint32) {
	tx.span = span
	tx.seq = n.link.LastSeq(tx.dest)
	tx.obj.transit = tx
	n.exported[tx.obj.OID] = true
	n.pendingCommits[span] = tx
	n.armCommitTimer(tx)
}

// armCommitTimer watches one commit window. If the window closes with the
// Move still undelivered and the destination suspected down, the move
// aborts; an undelivered Move to a healthy-looking destination just gets
// another window (retransmission is still working on it). Once the Move is
// delivered the timer retires: the destination's MoveAck travels on the
// reliable link and will arrive whenever the destination is up.
func (n *Node) armCommitTimer(tx *moveTxn) {
	n.sched.At(n.cluster.Chaos.CommitWindow(), func() {
		if _, live := n.pendingCommits[tx.span]; !live {
			return
		}
		if !n.Up {
			n.stall(stallCommit, uint64(tx.span), func() { n.armCommitTimer(tx) })
			return
		}
		if n.link.Acked(tx.dest, tx.seq) {
			return
		}
		if !n.link.Suspected(tx.dest) {
			n.armCommitTimer(tx)
			return
		}
		n.abortMove(tx, "timeout")
	})
}

// recvMoveAck resolves a pending move transaction.
func (n *Node) recvMoveAck(src int, p *wire.MoveAck) {
	tx, ok := n.pendingCommits[p.SpanID]
	if !ok {
		if n.abortedSpans[p.SpanID] && p.Ok {
			// The destination installed a Move whose transaction this node
			// had already aborted (the original frame outlived the abort):
			// both copies now exist.
			n.violate(invResidency, p.Object, 0, "node %d installed aborted move span %d", src, p.SpanID)
		}
		return
	}
	if p.Ok {
		if n.cluster.dirOn {
			// Third commit participant: record the new home in the
			// replicated directory before releasing the object, so a
			// post-crash locate is one shard query. Degraded decrees
			// still commit — the forwarding chase covers staleness.
			if tx.dirPending {
				return // duplicate ack; a decree is already in flight
			}
			tx.dirPending = true
			if tx.dirBatch != nil {
				n.dirBatchAcked(tx)
				return
			}
			n.dirPropose([]*moveTxn{tx})
			return
		}
		n.commitMove(tx)
		return
	}
	n.abortMove(tx, "refused: "+p.Err)
}

// commitMove runs the deferred destructive completions and releases the
// object: it is now resident at the destination.
func (n *Node) commitMove(tx *moveTxn) {
	delete(n.pendingCommits, tx.span)
	ops := tx.commitOps
	tx.commitOps = nil
	for _, op := range ops {
		op()
	}
	n.release(tx)
	tx.obj.transit = nil
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvMoveCommit,
		Span: tx.span, Obj: uint32(tx.obj.OID), B: uint64(tx.dest)})
	n.cluster.Rec.Metrics().Add("move_commits", n.labels, 1)
	n.replayParked(tx)
}

// abortMove rolls a move back: nothing destructive has happened, so the
// object simply stays resident. Held fragments resume, parked
// operations replay locally, and the move requeues for a later retry.
func (n *Node) abortMove(tx *moveTxn, reason string) {
	n.dirBatchDrop(tx)
	delete(n.pendingCommits, tx.span)
	n.abortedSpans[tx.span] = true
	if !n.link.Acked(tx.dest, tx.seq) {
		// The Move must not install at the destination, but its link
		// sequence number must still be delivered — in-order release would
		// otherwise stall on the gap forever. Swap the payload for a
		// harmless same-sequence filler: a negative MoveAck for this very
		// span, which the destination ignores.
		noop := &wire.Msg{Src: int32(n.ID), Dst: int32(tx.dest), Seq: n.nextSeq(),
			Payload: &wire.MoveAck{Object: tx.obj.OID, SpanID: tx.span, Epoch: tx.obj.Epoch,
				Ok: false, Err: "aborted"}}
		n.link.Replace(tx.dest, tx.seq, noop.Marshal(), "moveack")
	}
	tx.obj.Epoch--
	tx.obj.transit = nil
	tx.commitOps = nil
	n.release(tx)
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvMoveAbort,
		Span: tx.span, Obj: uint32(tx.obj.OID), B: uint64(tx.dest), Str: reason})
	n.cluster.Rec.Metrics().Add("move_aborts", n.labels, 1)
	n.replayParked(tx)
	n.pendingMoves = append(n.pendingMoves, pendingMove{tx.obj.OID, tx.dest, tx.fix})
	n.armMoveRetry()
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
