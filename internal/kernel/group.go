// Every move is a cohort: moveGroup prepares each member exactly like a
// single move — stack walk, conversion, two-phase transaction — and one
// send tail puts the whole cohort on the wire. A cohort of one leaves as a
// bare Move; a larger one rides one MoveGroup frame to the destination,
// amortizing the per-frame wire overhead and per-message protocol cost
// across the cohort. The group is a purely link-level batching: at the
// destination each inner Move runs the unchanged single-object install
// path, so per-span deduplication, structural validation, per-member
// MoveAcks and the two-phase commit all hold member by member even when the
// whole batch retransmits or partially fails.

package kernel

import (
	"repro/internal/obs"
	"repro/internal/wire"
)

// moveCollector is the node's scratch for the cohort being moved: the
// prepared members, and the lists the send tail builds from them. Like
// moveScratch it is truncated and refilled cohort after cohort, so a
// steady stream of moves allocates none of it.
type moveCollector struct {
	items []groupItem
	inner []*wire.Move
	txs   []*moveTxn
}

// groupItem is one prepared member move: its wire message (dead once
// marshalled), transaction, span, and deferred residency-flip commit.
type groupItem struct {
	msg    wire.Move
	tx     *moveTxn
	sp     *obs.Span
	commit func()
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
	if len(n.col.items) > 0 {
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
			tx := o.transit
			tx.parked = append(tx.parked, func() {
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
// send, span accounting, each member's residency-flip commit, the
// directory decrees and transit registration.
func (n *Node) sendCohort(dest int) {
	col := &n.col
	items := col.items
	rec := n.cluster.Rec
	if len(items) == 1 {
		bytes, sendAt := n.sendMsg(dest, &items[0].msg)
		rec.SpanSent(items[0].sp.ID, bytes, int64(sendAt))
	} else {
		for i := range items {
			col.inner = append(col.inner, &items[i].msg)
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
			rec.SpanSent(items[i].sp.ID, pb, int64(sendAt))
		}
		first := &items[0]
		rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvMoveGroupOut, Span: first.sp.ID, Obj: uint32(first.tx.obj.OID),
			A: uint64(len(items)), B: uint64(dest)})
		m := rec.Metrics()
		lbl := n.labels
		m.Add("group_moves", lbl, 1)
		m.Add("group_move_objs", lbl, uint64(len(items)))
		m.Add("group_move_frame_bytes", lbl, uint64(frameBytes))
		m.Add("group_move_member_bytes", lbl, uint64(memberBytes))
	}
	for _, it := range items {
		it.tx.do(it.commit)
		col.txs = append(col.txs, it.tx)
	}
	switch {
	case items[0].tx.live:
		// Under chaos every member transaction pins to the cohort's single
		// frame, the last sent to dest: per-member MoveAcks resolve the
		// transactions independently, and an abort's filler swap is
		// idempotent across members sharing the frame. With group
		// decrees on, the members of a larger cohort also share one
		// dirGroupBatch: their decrees wait for the last member's MoveAck
		// and then go out together; otherwise each member proposes alone
		// on its own MoveAck.
		var batch *dirGroupBatch
		if n.cluster.dirOn && !n.cluster.Config.DirNoGroupDecrees && len(items) > 1 {
			batch = &dirGroupBatch{outstanding: len(items)}
		}
		for _, it := range items {
			it.tx.dirBatch = batch
			n.beginTransit(it.tx, it.sp.ID)
		}
	case n.cluster.dirOn:
		// Chaos-off the commits just ran inline and delivery is certain,
		// so the decrees are fire-and-forget.
		n.dirPropose(col.txs)
	}
	col.items, col.inner, col.txs = reset(col.items), reset(col.inner), reset(col.txs)
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
