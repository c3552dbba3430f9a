// Every move is a cohort: moveGroup prepares each member exactly like a
// single move, and one send tail puts the whole cohort on the wire. A
// cohort of one leaves as a bare Move; a larger one rides one MoveGroup
// frame, amortizing the per-frame wire and protocol cost. The destination
// installs each inner Move by the single-object path, so deduplication,
// validation, MoveAcks and the two-phase commit hold member by member.

package kernel

import (
	"repro/internal/obs"
	"repro/internal/wire"
)

// moveCollector is the node's scratch for the cohort being moved: the
// prepared members' wire messages (dead once marshalled) and moves, and
// the send tail's list of the messages. Like moveScratch it is truncated
// and refilled cohort after cohort, so a steady stream of moves allocates
// none of it.
type moveCollector struct {
	msgs  []wire.Move
	moves []*liveMove
	inner []*wire.Move
}

// moveGroup migrates a cohort of resident objects — a lone move is a
// cohort of one — to dest in one transfer. Members that cannot join right
// now (fixed, deferred on a creation chain, degraded, immutable — those
// duplicate via their own message) simply stay out of the batch.
func (n *Node) moveGroup(objs []*Obj, dest int, fix bool) {
	if dest < 0 || dest >= len(n.cluster.Nodes) {
		return
	}
	n.mv.frags, n.mv.acts, n.mv.vals = reset(n.mv.frags), reset(n.mv.acts), reset(n.mv.vals)
	for _, o := range objs {
		n.joinCohort(o, dest, fix)
	}
	if len(n.col.moves) > 0 {
		n.sendCohort(dest)
	}
}

// joinCohort adds o (and the thread fragments inside it) to the cohort
// bound for dest, by one path per object kind: plain objects and arrays
// join through movePlain, immutable objects duplicate through
// moveImmutable, and strings (copied on every transfer) never move on
// request. A move to this node fixes o in place; fixed objects refuse to
// move.
func (n *Node) joinCohort(o *Obj, dest int, fix bool) {
	if dest == n.ID {
		if fix {
			o.Fixed = true
		}
		return
	}
	if o.Fixed {
		n.tracef("node%d: move of fixed %v refused", n.ID, o.OID)
		return
	}
	if n.chaosOn() {
		if o.transit != nil {
			// Mid-transit: park and replay once the current move resolves.
			// The replay must re-check residency: if the move committed,
			// the object lives elsewhere now and shipping this node's
			// stale copy would fork it — forward the request instead,
			// exactly as a parked remote MoveReq would replay.
			o.transit.Park(func() {
				if !o.Resident {
					n.sendMsg(o.LastKnown, &wire.MoveReq{Target: o.OID, Dest: int32(dest), Fix: fix})
					return
				}
				n.moveGroup([]*Obj{o}, dest, fix)
			})
			return
		}
		if n.link.Suspected(dest) {
			// The destination looks dead: degrade gracefully — the object
			// stays resident here and callers keep reaching it by remote
			// invocation.
			n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
				Kind: obs.EvMoveAbort, Obj: uint32(o.OID), B: uint64(dest), Str: "degraded"})
			n.cluster.Rec.Metrics().Add("move_degraded", n.labels, 1)
			return
		}
	}
	switch {
	case o.Kind == ObjString: // an explicit move is a no-op
	case o.Kind == ObjPlain && o.Code.oc.Template.Immutable:
		n.moveImmutable(o, dest)
	default:
		n.movePlain(o, dest, fix)
	}
}

// sendCohort is the one send tail of every object move: the (chaos-aware)
// send, span accounting, each member's object becoming a proxy (chaos-off)
// or its move going live, and the directory decrees.
func (n *Node) sendCohort(dest int) {
	col := &n.col
	rec := n.cluster.Rec
	if len(col.msgs) == 1 {
		bytes, sendAt := n.sendMsg(dest, &col.msgs[0])
		rec.SpanSent(col.moves[0].Span, bytes, int64(sendAt))
	} else {
		for i := range col.msgs {
			col.inner = append(col.inner, &col.msgs[i])
		}
		frameBytes, sendAt := n.sendMsg(dest, &wire.MoveGroup{Inner: col.inner})
		// Per-member span accounting: each member's span carries its own
		// payload size; the gap between the batch frame and the member sum
		// — plus the n-1 saved frame overheads — is what the batch
		// amortizes.
		memberBytes := 0
		for i, msg := range col.inner {
			pb := wire.PayloadSize(msg)
			memberBytes += pb
			rec.SpanSent(col.moves[i].Span, pb, int64(sendAt))
		}
		first := col.moves[0]
		rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvMoveGroupOut, Span: first.Span, Obj: uint32(first.Data.obj.OID),
			A: uint64(len(col.moves)), B: uint64(dest)})
		m := rec.Metrics()
		lbl := n.labels
		m.Add("group_moves", lbl, 1)
		m.Add("group_move_objs", lbl, uint64(len(col.moves)))
		m.Add("group_move_frame_bytes", lbl, uint64(frameBytes))
		m.Add("group_move_member_bytes", lbl, uint64(memberBytes))
	}
	// Under chaos every member's move pins to the cohort's one frame (an
	// abort's filler swap is idempotent), and its object is pinned for the
	// collector, operations on it parking until the move resolves.
	live := n.chaosOn()
	for _, mv := range col.moves {
		if !live {
			n.becomeProxy(mv.Data.obj, dest)
			continue
		}
		mv.Seq, mv.Data.obj.transit = n.link.LastSeq(dest), mv
		n.exported[mv.Data.obj.OID] = true
		n.armCommitTimer(mv)
	}
	switch {
	case live:
		n.moves.Begin(col.moves, n.cluster.dirOn, !n.cluster.Config.DirNoGroupDecrees)
	case n.cluster.dirOn:
		// Chaos-off delivery is certain, so the decrees are fire-and-forget.
		n.dirPropose(col.moves)
	}
	col.msgs, col.moves, col.inner = reset(col.msgs), reset(col.moves), reset(col.inner)
}

// recvMoveGroup installs a batched cohort: each inner Move runs the exact
// single-object install path — per-span dedup, structural validation, and a
// per-member MoveAck — so exactly-once installs hold member by member.
func (n *Node) recvMoveGroup(src int, p *wire.MoveGroup) {
	firstSpan := uint32(0)
	if len(p.Inner) > 0 {
		firstSpan = p.Inner[0].SpanID
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvMoveGroupIn, Span: firstSpan,
		A: uint64(len(p.Inner)), B: uint64(src)})
	n.cluster.Rec.Metrics().Add("group_moves_in", n.labels, 1)
	for _, inner := range p.Inner {
		n.recvMove(src, inner)
	}
}
