// Batched group migration: a whole cohort of objects (each prepared exactly
// like a single move — stack walk, conversion, two-phase transaction) rides
// one MoveGroup frame to the destination, amortizing the per-frame wire
// overhead and per-message protocol cost across the cohort. The group is a
// purely link-level batching: at the destination each inner Move runs the
// unchanged single-object install path, so per-span deduplication, structural
// validation, per-member MoveAcks and the two-phase commit all hold member by
// member even when the whole batch retransmits or partially fails.

package kernel

import (
	"repro/internal/obs"
	"repro/internal/wire"
)

// moveCollector accumulates prepared Moves bound for one destination so
// they can leave in one batched MoveGroup frame.
type moveCollector struct {
	dest  int
	items []groupItem
}

// groupItem is one prepared member move: its wire message, transaction,
// span, and deferred residency-flip commit operation.
type groupItem struct {
	msg    *wire.Move
	tx     *moveTxn
	sp     *obs.Span
	commit func()
}

// dispatchMove finishes a prepared object move: the (chaos-aware) send, span
// accounting, the residency-flip commit, and transit registration. While a
// group collector is open for the same destination the prepared move joins
// the batch instead and moveGroup sends it; the uncollected path is the
// historical per-object tail, byte for byte.
func (n *Node) dispatchMove(dest int, msg *wire.Move, tx *moveTxn, sp *obs.Span, commit func()) {
	if n.collect != nil && n.collect.dest == dest {
		n.collect.items = append(n.collect.items,
			groupItem{msg: msg, tx: tx, sp: sp, commit: commit})
		return
	}
	bytes, sendAt := n.sendMsgAck(dest, msg, func() { tx.delivered = true })
	n.cluster.Rec.SpanSent(sp.ID, bytes, int64(sendAt))
	tx.do(commit)
	if n.cluster.dirOn && !tx.live {
		// Chaos-off the commit just ran inline and delivery is certain, so
		// the directory decree is fire-and-forget; chaos-on it waits for
		// the destination's positive MoveAck (recvMoveAck).
		n.dirPropose([]*moveTxn{tx})
	}
	if tx.live {
		n.beginTransit(tx, sp.ID)
	}
}

// moveGroup migrates a cohort of resident objects to dest in one batched
// transfer. Members that cannot join right now (fixed, deferred on a
// creation chain, degraded, immutable — those duplicate via their own
// message) simply stay out of the batch; a batch of one degenerates to the
// plain single-object send.
func (n *Node) moveGroup(objs []*Obj, dest int, fix bool) {
	if len(objs) == 0 || dest == n.ID || dest < 0 || dest >= len(n.cluster.Nodes) {
		return
	}
	if len(objs) == 1 {
		n.moveObject(objs[0], dest, fix)
		return
	}
	col := &moveCollector{dest: dest}
	n.collect = col
	for _, o := range objs {
		n.moveObject(o, dest, fix)
	}
	n.collect = nil
	items := col.items
	if len(items) == 0 {
		return
	}
	if len(items) == 1 {
		it := items[0]
		n.dispatchMove(dest, it.msg, it.tx, it.sp, it.commit)
		return
	}
	inner := make([]*wire.Move, len(items))
	for i, it := range items {
		inner[i] = it.msg
	}
	frameBytes, sendAt := n.sendMsgAck(dest, &wire.MoveGroup{Inner: inner}, func() {
		for _, it := range items {
			it.tx.delivered = true
		}
	})
	// Per-member span accounting: each member's span carries its own payload
	// size; the gap between the batch frame and the member sum — plus the
	// n-1 saved frame overheads — is what the batch amortizes.
	memberBytes := 0
	for _, it := range items {
		pb := wire.PayloadSize(it.msg)
		memberBytes += pb
		n.cluster.Rec.SpanSent(it.sp.ID, pb, int64(sendAt))
	}
	first := items[0]
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvMoveGroupOut, Span: first.sp.ID, Obj: uint32(first.tx.obj.OID),
		A: uint64(len(items)), B: uint64(dest)})
	m := n.cluster.Rec.Metrics()
	lbl := n.labels
	m.Add("group_moves", lbl, 1)
	m.Add("group_move_objs", lbl, uint64(len(items)))
	m.Add("group_move_frame_bytes", lbl, uint64(frameBytes))
	m.Add("group_move_member_bytes", lbl, uint64(memberBytes))
	batching := n.cluster.dirOn && !n.cluster.Config.DirNoGroupDecrees
	var cohort []*moveTxn
	for _, it := range items {
		it.tx.do(it.commit)
		if n.cluster.dirOn && !it.tx.live {
			if batching {
				// Chaos-off the whole cohort's decrees fire after the loop,
				// so members sharing a shard replica set ride one round.
				cohort = append(cohort, it.tx)
				continue
			}
			// Same chaos-off fire-and-forget decree as dispatchMove.
			n.dirPropose([]*moveTxn{it.tx})
		}
	}
	n.dirProposeCohort(cohort)
	// Under chaos every member transaction pins to the batch's single frame
	// (lastFrame after the one send above): per-member MoveAcks resolve the
	// transactions independently, and an abort's filler swap is idempotent
	// across members sharing the frame. With group decrees on, the live
	// members also share one dirGroupBatch: their decrees wait for the last
	// member's MoveAck and then go out as a cohort, one per replica set;
	// off, each member proposes alone on its own MoveAck.
	var batch *dirGroupBatch
	if batching {
		batch = &dirGroupBatch{}
	}
	for _, it := range items {
		if it.tx.live {
			if batch != nil {
				it.tx.dirBatch = batch
				batch.outstanding++
			}
			n.beginTransit(it.tx, it.sp.ID)
		}
	}
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
