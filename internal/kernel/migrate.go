// Object and native-code thread migration (§3.5) — the paper's core.
//
// Moving an object moves, with it, every activation record of every thread
// that is executing an operation of the object. On the source node the
// kernel walks each thread's stack through the activation templates,
// reconstructing per-frame register contents by unwinding the callee-save
// areas, and converts each affected activation to the machine-independent
// format: all variables in canonical slot order, program points as bus-stop
// numbers, live temporaries as described by the per-stop tables. On the
// destination the records are re-specialized to that machine's templates —
// register homes refilled, activation records laid out per the local ISA,
// bus stops converted back to PCs — including the relocation pass the paper
// describes (records are converted youngest first, then placed).
// Plain objects and arrays share one path (an array carries no
// activations), immutable objects are duplicated, and every record laid
// out from values goes through placeFrame (thread.go).
package kernel

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/busstop"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

// beginMoveSpan opens an observability span for one outbound hop. The span
// starts when the node can begin the conversion work (its CPU timeline, not
// the event instant: everything below happens inside one simulated event).
func (n *Node) beginMoveSpan(o *Obj, dest int, kind string) *obs.Span {
	start := n.CPU.FreeAt
	if now := n.now(); now > start {
		start = now
	}
	return n.cluster.Rec.BeginSpan(int64(start), int32(n.ID), int32(dest),
		uint32(o.OID), kind)
}

// finishMoveOut closes the source side of a hop: records the MD→MI phase
// from the converter-stat delta, emits the migrate-out and conversion
// events, and bumps the per-arch-pair migration counter.
func (n *Node) finishMoveOut(sp *obs.Span, o *Obj, dest int, conv *wire.Converter, prev wire.Stats) {
	cur := conv.Stats()
	sp.ConvOutCalls = cur.Calls - prev.Calls
	sp.ConvOutBytes = cur.Bytes - prev.Bytes
	sp.ConvOutEnd = int64(n.CPU.FreeAt)
	rec := n.cluster.Rec
	rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvConvOut,
		Span: sp.ID, Obj: uint32(o.OID), A: sp.ConvOutCalls, B: sp.ConvOutBytes})
	rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvMigrateOut,
		Span: sp.ID, Obj: uint32(o.OID), A: uint64(sp.Frags), B: uint64(dest), Str: sp.ObjKind})
	rec.Metrics().Add("migrations_pair", pairLabels[n.Spec.ID][n.cluster.Nodes[dest].Spec.ID], 1)
}

// convFrame is one activation converted to this node's machine words on
// its way in (installFragment), before placement.
type convFrame struct {
	lf    *loadedFunc
	vars  []uint32
	temps []uint32
	stop  busstop.Info
	entry bool
}

// frameInfo is one activation during a stack walk (youngest first).
type frameInfo struct {
	lf    *loadedFunc
	fp    uint32
	self  *Obj
	stop  busstop.Info
	entry bool // blocked at operation entry: not yet started
	// tempDepth is the actual evaluation-stack depth: for the thread's top
	// activation this can be stop.TempDepth+1 when the kernel has already
	// pushed a resume value (e.g. a delivered remote result) but the thread
	// has not run yet; the extra slot's kind is the stop's ResultKind.
	tempDepth int
	regs      [16]uint32
	kont      bool // this frame returns into a kernel continuation
	pinned    bool // unmovable: part of an active creation chain
}

// tempKindAt returns the kind of evaluation-stack slot j at a stop,
// accounting for an already-pushed resume value.
func tempKindAt(stop busstop.Info, j int) ir.VK {
	if j < len(stop.TempKinds) {
		return stop.TempKinds[j]
	}
	return stop.ResultKind
}

// walkFrames walks f's activation records through templates, reconstructing
// each frame's register view by unwinding the callee-save areas. It returns
// buf extended by f's frames, youngest first (a nil buf allocates; movePlain
// passes its scratch).
func (n *Node) walkFrames(f *Frag, buf []frameInfo) ([]frameInfo, error) {
	frames, start := buf, len(buf)
	regs := f.CPU.Regs
	lf, fp, pc := f.fn, f.CPU.FP, f.CPU.PC
	for first := true; ; first = false {
		t := lf.fc.Template
		fi := frameInfo{lf: lf, fp: fp, regs: regs}
		selfAddr := n.ld32(fp + uint32(t.SelfOff))
		self, err := n.objAt(selfAddr)
		if err != nil {
			return nil, fmt.Errorf("walk %s: %v", lf.name(), err)
		}
		fi.self = self
		if first && pc == 0 {
			// Operation entry: the activation exists (created at the call
			// bus stop) but has not executed an instruction — either
			// blocked at monitor entry or freshly scheduled. PC 0 is never
			// a bus stop (stops are post-instruction addresses).
			fi.entry = true
		} else {
			// ByPCAny: a migrated-in thread may be parked at an exit-only
			// stop installed by a number-to-PC conversion.
			stop, err := lf.fc.Stops.ByPCAny(pc)
			if err != nil {
				return nil, fmt.Errorf("walk %s: %v", lf.name(), err)
			}
			fi.stop = stop
			fi.tempDepth = stop.TempDepth
			if first {
				fi.tempDepth = int(f.CPU.TempDepth)
				if fi.tempDepth < stop.TempDepth || fi.tempDepth > stop.TempDepth+1 {
					return nil, fmt.Errorf("walk %s: temp depth %d vs stop depth %d",
						lf.name(), fi.tempDepth, stop.TempDepth)
				}
			}
		}
		callerFP, desc, retPC, kont := n.unwind(fp, t, &regs)
		fi.kont = kont
		frames = append(frames, fi)
		if desc == descNone {
			break
		}
		if lf, err = n.funcByDesc(desc); err != nil {
			return nil, err
		}
		fp, pc = callerFP, retPC
	}
	// Pinned: kernel-continuation frames and their callers cannot migrate
	// (the continuation is node-local state).
	for i := start; i < len(frames); i++ {
		if frames[i].kont || (i > start && frames[i-1].kont) {
			frames[i].pinned = true
		}
	}
	return frames, nil
}

// pendingMove is a deferred migration (the object had a pinned activation).
type pendingMove struct {
	obj  oid.OID
	dest int
	fix  bool
}

// retryPendingMoves re-attempts deferred migrations.
func (n *Node) retryPendingMoves() {
	if len(n.pendingMoves) == 0 {
		return
	}
	pend := n.pendingMoves
	n.pendingMoves = nil
	for _, pm := range pend {
		o, ok := n.objects[pm.obj]
		if !ok || !o.Resident {
			continue
		}
		n.moveObject(o, pm.dest, pm.fix)
	}
}

// moveObject migrates a resident object (and the thread fragments inside
// it) to dest, by one path per object kind: plain objects and arrays move
// through movePlain, immutable objects duplicate through moveImmutable, and
// strings (copied on every transfer) never move on request. Fixed objects
// refuse to move.
func (n *Node) moveObject(o *Obj, dest int, fix bool) {
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
				n.moveObject(o, dest, fix)
			})
			return
		}
		if n.suspects[dest] {
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

// wireSlots converts o's data slots (a plain object's template slots or an
// array's elements) for transmission.
func (n *Node) wireSlots(conv *wire.Converter, o *Obj) []wire.Value {
	data := make([]wire.Value, o.numSlots())
	for i := range data {
		v, err := n.wireTempValue(conv, o.slotKind(i), n.ld32(o.slotAddr(i)))
		if err != nil {
			panic(fmt.Sprintf("kernel: move: %v", err))
		}
		data[i] = v
	}
	return data
}

// moveImmutable duplicates an immutable object: the destination gets a
// resident copy under the same OID while the source keeps its own (§3.2:
// "immutable objects ... can be moved to another processor by duplication").
// Duplication needs no transaction and no residency flip, and the object's
// threads stay behind.
func (n *Node) moveImmutable(o *Obj, dest int) {
	sp := n.beginMoveSpan(o, dest, "immutable")
	n.charge(uint64(n.cluster.Costs.MigrateCycles))
	conv := n.converterFor(dest)
	prev := conv.Stats()
	data := n.wireSlots(conv, o)
	n.chargeConv(conv, prev)
	n.finishMoveOut(sp, o, dest, conv, prev)
	bytes, sendAt := n.sendMsg(dest, &wire.Move{
		Object: o.OID, CodeOID: o.Code.oc.CodeOID, Data: data,
		Hints: n.collectHints(data), SpanID: sp.ID,
	})
	n.cluster.Rec.SpanSent(sp.ID, bytes, int64(sendAt))
	n.Migrations++
}

// moveScratch is the node's working storage for building and installing
// moves. Nothing in it outlives the move that filled it — what must (a
// deferred commit operation's view of a stack, under a chaos plan) is copied
// out — so each slice is truncated and refilled move after move and a
// steady stream of moves allocates none of them. It grows on demand;
// nothing is pre-sized.
type moveScratch struct {
	fragIDs []uint32
	frames  []frameInfo // the walked stacks of every fragment that moves, back to back
	runs    [][2]int    // their runs of frames inside the object, back to back
	plans   []fragPlan
	segs    []moveSeg
	ids     []uint32
	refs    []wire.Value // every shipped value, for hint collection
	// frags and acts back the outgoing Move's Frags and their Acts. The Move
	// is marshalled before movePlain returns, except inside a moveGroup,
	// whose members are marshalled together when the collector closes: a
	// cohort's moves share the two arenas until then (see movePlain).
	frags []wire.Fragment
	acts  []wire.MIActivation
	// Install side (installFragment): converted frames, and one arena for
	// their variable and temporary words.
	cfs   []convFrame
	words []uint32
}

// reset empties a scratch slice for refilling, dropping what it referenced.
func reset[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// fragPlan is one fragment with frames inside the moving object: its walked
// stack and the maximal runs [i, j] of consecutive frames that move.
type fragPlan struct {
	frag   *Frag
	frames []frameInfo
	runs   [][2]int
}

// moveSeg is one piece of a fragment's stack [a, b] (youngest first): the
// stack splits into alternating pieces that move and pieces that stay.
type moveSeg struct {
	moved bool
	a, b  int
}

// movePlain implements full object + thread migration; an array moves the
// same way, as an object no activation has as its receiver. Under a chaos plan
// it runs as the prepare phase of a two-phase commit: marshalling is
// read-only and every destructive completion is deferred onto the move
// transaction (see twophase.go); chaos-off the deferred operations execute
// inline at exactly their historical program points.
func (n *Node) movePlain(o *Obj, dest int, fix bool) {
	tx := n.newMoveTxn(o, dest, fix)
	n.charge(uint64(n.cluster.Costs.MigrateCycles))
	conv := n.converterFor(dest)
	prev := conv.Stats()

	mv := &n.mv
	mv.frames, mv.runs, mv.plans = reset(mv.frames), mv.runs[:0], reset(mv.plans)
	mv.refs = reset(mv.refs)
	if n.collect == nil {
		mv.frags, mv.acts = reset(mv.frags), reset(mv.acts)
	}

	// Deterministic fragment order.
	mv.fragIDs = mv.fragIDs[:0]
	for id := range n.frags {
		mv.fragIDs = append(mv.fragIDs, id)
	}
	slices.Sort(mv.fragIDs)

	for _, id := range mv.fragIDs {
		fr := n.frags[id]
		if fr.fn == nil {
			continue
		}
		walked, err := n.walkFrames(fr, mv.frames)
		if err != nil {
			panic(fmt.Sprintf("kernel: node %d: %v", n.ID, err))
		}
		frames := walked[len(mv.frames):]
		runStart := len(mv.runs)
		i := 0
		for i < len(frames) {
			if frames[i].self != o {
				i++
				continue
			}
			j := i
			for j+1 < len(frames) && frames[j+1].self == o {
				j++
			}
			for k := i; k <= j; k++ {
				if frames[k].pinned {
					// Defer the whole move until the creation chain ends.
					n.pendingMoves = append(n.pendingMoves, pendingMove{o.OID, dest, fix})
					return
				}
			}
			mv.runs = append(mv.runs, [2]int{i, j})
			i = j + 1
		}
		// The walk stays in the arena only if the fragment moves (either
		// way the arena keeps any capacity the walk grew it to).
		mv.frames = walked[:len(mv.frames)]
		if runs := mv.runs[runStart:]; len(runs) > 0 {
			if fr.Status == FragStateInTransit {
				// Another object's in-flight move holds deferred stack
				// restructuring over this fragment; retry once it resolves.
				n.pendingMoves = append(n.pendingMoves, pendingMove{o.OID, dest, fix})
				n.armMoveRetry()
				return
			}
			mv.frames = walked
			mv.plans = append(mv.plans, fragPlan{frag: fr, frames: frames, runs: runs})
		}
	}

	// The move will happen: open its observability span (deferred moves
	// above never reach here, so no abandoned spans).
	kind := "plain"
	if o.Kind == ObjArray {
		kind = "array"
	}
	sp := n.beginMoveSpan(o, dest, kind)

	// Build wire fragments and restructure local stacks. Commit operations
	// may run long after this move's scratch has been refilled (a live
	// transaction defers them to the destination's ack), so they capture
	// values and copies, never the scratch slices.
	fragStart := len(mv.frags)
	pieceIDOf := map[*Frag]uint32{} // original fragment -> wire id of its top piece
	for _, plan := range mv.plans {
		fr, frames := plan.frag, plan.frames
		m := len(frames)
		// Partition [0..m) into alternating segments, youngest first.
		segs := mv.segs[:0]
		cursor := 0
		for _, r := range plan.runs {
			if r[0] > cursor {
				segs = append(segs, moveSeg{false, cursor, r[0] - 1})
			}
			segs = append(segs, moveSeg{true, r[0], r[1]})
			cursor = r[1] + 1
		}
		if cursor < m {
			segs = append(segs, moveSeg{false, cursor, m - 1})
		}
		mv.segs = segs
		// Name a fragment for each segment. The topmost segment keeps fr's
		// identity; others get fresh IDs. Local remainder pieces are stack
		// surgery, so they materialize as (possibly deferred) commit
		// operations; the ids are minted eagerly for the wire links.
		ids := mv.ids[:0]
		for si, seg := range segs {
			if si == 0 {
				ids = append(ids, fr.ID)
				continue
			}
			id := n.mintFragID()
			ids = append(ids, id)
			if !seg.moved {
				piece := slices.Clone(frames[seg.a : seg.b+1])
				tx.do(func() { n.adoptRemainder(piece, id) })
			}
		}
		mv.ids = ids
		// Links: each segment links to the one below; the bottom segment
		// inherits fr's original Link — captured before any segment mutates
		// fr.Link (the topmost unmoved segment reassigns it below).
		origLink := fr.Link
		linkOf := func(si int) Link {
			switch {
			case si == len(segs)-1:
				return origLink
			case segs[si+1].moved:
				return Link{Node: int32(dest), Frag: ids[si+1]}
			}
			return Link{Node: int32(n.ID), Frag: ids[si+1]}
		}
		for si, seg := range segs {
			lk := linkOf(si)
			if seg.moved {
				wf := wire.Fragment{FragID: ids[si], LinkNode: lk.Node, LinkFrag: lk.Frag}
				if si == 0 {
					wf.Executing = true
					wf.Status, wf.CondIndex = wireStatus(fr)
					pieceIDOf[fr] = ids[si]
				} else {
					wf.Status = wire.FragBlockedCall
				}
				actStart := len(mv.acts)
				for k := seg.a; k <= seg.b; k++ {
					act, vs := n.marshalFrame(conv, frames[k])
					n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
						Kind: obs.EvThreadStop, Span: sp.ID, Frag: fr.ID,
						Obj: uint32(o.OID), A: uint64(act.Stop), Str: frames[k].lf.name()})
					mv.acts = append(mv.acts, act)
					mv.refs = append(mv.refs, vs...)
					sp.Acts++
				}
				wf.Acts = mv.acts[actStart:len(mv.acts):len(mv.acts)]
				mv.frags = append(mv.frags, wf)
			} else if si > 0 {
				// Interior/lower remainder: waits for the piece above to
				// return into it. Its records are relocated and its bottom
				// cut by the adoptRemainder commit op above, which also
				// entered it in n.frags under its minted id.
				id := ids[si]
				tx.do(func() {
					lfr := n.frags[id]
					lfr.Link = lk
					lfr.Status = FragStateBlockedCall
				})
			} else {
				// Top remainder piece: records stay in place; cut the
				// oldest frame's caller — it now returns via Link.
				bot := &frames[seg.b]
				retDesc, word := bot.fp+uint32(bot.lf.fc.Template.RetDescOff), uint32(descNone)
				if bot.kont {
					word |= kontFlag
				}
				tx.do(func() {
					fr.Link = lk
					n.st32(retDesc, word)
				})
			}
		}
		if segs[0].moved {
			// The thread's active top leaves this node: forward late
			// returns, and drop the local fragment.
			tx.do(func() {
				n.movedFrags[fr.ID] = dest
				n.killFrag(fr)
			})
		}
		if tx.live {
			// Freeze the fragment until the destination acknowledges the
			// install (its wire status was captured above).
			tx.suspend(fr)
		}
	}
	wireFrags := mv.frags[fragStart:len(mv.frags):len(mv.frags)]

	data := n.wireSlots(conv, o)
	mv.refs = append(mv.refs, data...)

	o.Epoch++
	sp.Frags = len(wireFrags)
	msg := &wire.Move{
		Object: o.OID, Epoch: o.Epoch, Fixed: fix,
		Data: data, Frags: wireFrags, SpanID: sp.ID,
	}
	// The layout: an array's element kind, or a plain object's code.
	if o.Kind == ObjArray {
		msg.IsArray, msg.ArrayElemKind = true, byte(o.ElemKind)
	} else {
		msg.CodeOID = o.Code.oc.CodeOID
	}
	// Monitor state: map holder/queues to shipped piece IDs.
	if o.Mon != nil {
		if o.Mon.Holder != nil {
			msg.MonLocked = true
			msg.MonHolder = mustPiece(pieceIDOf, o.Mon.Holder, "monitor holder")
		}
		for _, e := range o.Mon.Entry {
			msg.EntryQueue = append(msg.EntryQueue, mustPiece(pieceIDOf, e, "monitor entrant"))
		}
		for _, q := range o.Mon.Conds {
			var wq []uint32
			for _, w := range q {
				wq = append(wq, mustPiece(pieceIDOf, w, "condition waiter"))
			}
			msg.CondQueues = append(msg.CondQueues, wq)
		}
	}
	msg.Hints = n.collectHints(mv.refs)
	n.chargeConv(conv, prev)
	n.finishMoveOut(sp, o, dest, conv, prev)

	// The object becomes a remote proxy here; stale machine addresses keep
	// resolving to it through byAddr. Under chaos this is the final commit
	// operation: the object stays resident until the destination acks.
	n.dispatchMove(dest, msg, tx, sp, func() {
		o.Resident = false
		o.LastKnown = dest
		o.LocStale = false
		o.chained = false
		o.Mon = nil
		n.Migrations++
	})
}

func mustPiece(m map[*Frag]uint32, f *Frag, what string) uint32 {
	id, ok := m[f]
	if !ok {
		panic(fmt.Sprintf("kernel: %s did not migrate with its object", what))
	}
	return id
}

// wireStatus maps a fragment state to its wire form.
func wireStatus(f *Frag) (wire.FragStatus, uint16) {
	switch f.Status {
	case FragStateBlockedCall:
		return wire.FragBlockedCall, 0
	case FragStateBlockedEntry:
		return wire.FragBlockedEntry, 0
	case FragStateWaitCond:
		return wire.FragWaitCond, f.condIndex
	default:
		return wire.FragRunnable, 0
	}
}

// adoptRemainder creates a fragment for a local remainder piece of a walked
// stack (frames, youngest first), relocating its records into a fresh stack
// region (the records above and below belonged to other pieces). It copies
// the records rather than placing them from values: placement would need
// each frame's caller register view.
func (n *Node) adoptRemainder(frames []frameInfo, id uint32) {
	nf := n.addFrag(id, FragStateBlockedCall, Link{Node: -1})
	base := nf.stackBase
	// Relocate oldest-first so SavedFP links point downward correctly.
	place := base
	oldest := len(frames) - 1
	newFPs := make([]uint32, len(frames))
	for k := oldest; k >= 0; k-- {
		fi := &frames[k]
		t := fi.lf.fc.Template
		copy(n.Mem[place:place+uint32(t.Size)], n.Mem[fi.fp:fi.fp+uint32(t.Size)])
		newFPs[k] = place
		// Fix the saved-FP word: oldest points at base (unused), others at
		// the record below.
		if k == oldest {
			n.st32(place+uint32(t.SavedFPOff), base)
			// Cut the caller: the piece below this remainder is reached
			// through the fragment Link, not a local record.
			kf := uint32(0)
			if fi.kont {
				kf = kontFlag
			}
			n.st32(place+uint32(t.RetDescOff), descNone|kf)
		} else {
			n.st32(place+uint32(t.SavedFPOff), newFPs[k+1])
		}
		n.st32(place+uint32(t.TempBaseOff), place+uint32(t.TempOff))
		place += uint32(t.Size)
		nf.nframes++
	}
	nf.stackHi = place
	// Top of the remainder: reconstruct CPU state from the walk.
	top := &frames[0]
	nf.CPU.Regs = top.regs
	n.enter(nf, top.lf, newFPs[0], top.stop.PC, int32(top.stop.TempDepth))
}

// ---------------------------------------------------------------- receive

// finishMoveIn closes the destination side of a hop's span (MI→MD
// respecialization, measured on this node's CPU timeline) and emits the
// conversion and migrate-in events.
func (n *Node) finishMoveIn(src int, p *wire.Move, conv *wire.Converter, prev wire.Stats, respecStart int64) {
	cur := conv.Stats()
	calls := cur.Calls - prev.Calls
	rec := n.cluster.Rec
	rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvConvIn,
		Span: p.SpanID, Obj: uint32(p.Object), A: calls, B: cur.Bytes - prev.Bytes})
	rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvMigrateIn,
		Span: p.SpanID, Obj: uint32(p.Object), B: uint64(src)})
	rec.SpanRespec(p.SpanID, respecStart, int64(n.CPU.FreeAt), calls)
}

// recvMove installs a migrated object and its thread fragments. Under a
// chaos plan it is the participant side of the two-phase commit: duplicate
// spans are suppressed (the object is never installed twice), the payload
// is structurally validated before anything is touched, and the source gets
// a MoveAck either way.
func (n *Node) recvMove(src int, p *wire.Move) {
	if n.chaosOn() {
		if n.seenSpans[p.SpanID] {
			// Retransmitted or duplicated Move: already installed. Re-ack —
			// the earlier ack may have raced a crash window.
			n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
				Kind: obs.EvMoveDupDrop, Span: p.SpanID, Obj: uint32(p.Object), B: uint64(src)})
			n.cluster.Rec.Metrics().Add("move_dup_drops", n.labels, 1)
			n.ackMove(src, p)
			return
		}
		if err := n.validateMove(p); err != nil {
			// Protocol error: refuse the install; the source's abort path
			// restores the object there and retries or degrades.
			n.tracef("refusing move of %v from node%d: %v", p.Object, src, err)
			n.cluster.Rec.Metrics().Add("move_rejects", n.labels, 1)
			n.sendMsg(src, &wire.MoveAck{Object: p.Object, SpanID: p.SpanID, Epoch: p.Epoch,
				Ok: false, Err: err.Error()})
			return
		}
		n.seenSpans[p.SpanID] = true
	}
	respecStart := int64(n.CPU.FreeAt)
	if now := int64(n.now()); now > respecStart {
		respecStart = now
	}
	n.charge(uint64(n.cluster.Costs.MigrateCycles))
	conv := n.converterFor(src)
	prev := conv.Stats()
	hints := map[oid.OID]int{}
	for _, h := range p.Hints {
		hints[h.OID] = int(h.Node)
	}

	// The layout comes from the message: an array's element kind and
	// length, or a plain object's template.
	var lc *loadedCode
	size := arch.ArrDataOff + 4*uint32(len(p.Data))
	if !p.IsArray {
		var err error
		if lc, err = n.loadCode(p.CodeOID); err != nil {
			panic(fmt.Sprintf("kernel: node %d: %v", n.ID, err))
		}
		size = arch.ObjDataOff + uint32(lc.oc.Template.DataSize())
	}
	// Upgrade an existing proxy or create a fresh entry; the source node
	// knows the OID, so the object is pinned for the local collector.
	n.exported[p.Object] = true
	o := n.proxyFor(p.Object, src)
	if o.Resident {
		if lc != nil && lc.oc.Template.Immutable {
			// A duplicate of an immutable object that already has a copy
			// here: install nothing, but close the span.
			n.finishMoveIn(src, p, conv, prev, respecStart)
			n.ackMove(src, p)
			return
		}
		if n.chaosOn() {
			// A distinct span delivered an object that already lives here —
			// the residual double-move corner. Ack (the copy here is
			// authoritative) and flag it; the conflict metric makes the
			// disagreement visible instead of crashing the node.
			n.tracef("CONFLICT: %v arrived from node%d (span %d) but is already resident",
				p.Object, src, p.SpanID)
			n.cluster.Rec.Metrics().Add("move_conflicts", n.labels, 1)
			n.ackMove(src, p)
			return
		}
		panic(fmt.Sprintf("kernel: node %d: %v arrived but is already resident", n.ID, p.Object))
	}
	o.Epoch = p.Epoch
	addr, err := n.alloc(size)
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
	o.Resident, o.LocStale, o.chained, o.Addr, o.Fixed = true, false, false, addr, p.Fixed
	if lc == nil {
		o.Kind, o.ElemKind, o.Len = ObjArray, ir.VK(p.ArrayElemKind), uint32(len(p.Data))
		n.st32(addr+arch.LenOff, o.Len)
	} else {
		o.Kind, o.Code, o.Mon = ObjPlain, lc, newMonitor(lc.oc.Template.NumConds)
	}
	n.byAddr[addr] = o
	n.st32(addr, o.TableIdx)
	for i := range o.numSlots() {
		w, err := n.unwireValue(conv, o.slotKind(i), p.Data[i], hints, src)
		if err != nil {
			panic(fmt.Sprintf("kernel: node %d: unmarshal slot %d: %v", n.ID, i, err))
		}
		n.st32(o.slotAddr(i), w)
	}

	// Rebuild fragments.
	byID := map[uint32]*Frag{}
	for i := range p.Frags {
		f := n.installFragment(src, &p.Frags[i], o, conv, hints)
		byID[p.Frags[i].FragID] = f
	}
	// Monitor state.
	if p.MonLocked {
		o.Mon.Holder = byID[p.MonHolder]
	}
	for _, id := range p.EntryQueue {
		o.Mon.Entry = append(o.Mon.Entry, byID[id])
	}
	for k, q := range p.CondQueues {
		for _, id := range q {
			o.Mon.Conds[k] = append(o.Mon.Conds[k], byID[id])
		}
	}
	n.chargeConv(conv, prev)
	n.finishMoveIn(src, p, conv, prev, respecStart)
	n.ackMove(src, p)
}

// ackMove votes yes on a Move: under a chaos plan the source holds its
// transaction open until this ack arrives; chaos-off there is no vote.
func (n *Node) ackMove(src int, p *wire.Move) {
	if n.chaosOn() {
		n.sendMsg(src, &wire.MoveAck{Object: p.Object, SpanID: p.SpanID, Epoch: p.Epoch, Ok: true})
	}
}

// installFragment re-specializes one migrated thread fragment to this
// architecture: machine-independent activations are converted youngest
// first (as the templates require), then placed oldest-first in a fresh
// stack region — the paper's relocation pass (§3.5) — while register homes
// are refilled per this ISA's templates and callee-save areas are
// reconstructed.
func (n *Node) installFragment(src int, wf *wire.Fragment, obj *Obj,
	conv *wire.Converter, hints map[oid.OID]int) *Frag {
	f := n.addFrag(wf.FragID, FragStateReady, Link{Node: wf.LinkNode, Frag: wf.LinkFrag})
	base := f.stackBase

	// Convert youngest first (wire order), through the cached plan for
	// (function, stop) — see plan.go. The converted words live in the
	// node's scratch: they are in node memory by the time this returns.
	mv := &n.mv
	need := 0
	for i := range wf.Acts {
		need += len(wf.Acts[i].Vars) + len(wf.Acts[i].Temps)
	}
	words := slices.Grow(mv.words[:0], need)
	carve := func(k int) []uint32 {
		words = words[:len(words)+k]
		return words[len(words)-k:]
	}
	cfs := reset(mv.cfs)
	for i := range wf.Acts {
		a := &wf.Acts[i]
		lc, err := n.loadCode(a.CodeOID)
		if err != nil {
			panic(fmt.Sprintf("kernel: node %d: %v", n.ID, err))
		}
		lf := lc.funcs[a.FuncIndex]
		pl := n.planFor(lf, a.Stop)
		cf := convFrame{lf: lf, stop: pl.stop, entry: pl.entry}
		if len(a.Vars) > 0 {
			cf.vars = carve(len(a.Vars))
		}
		for vi, v := range a.Vars {
			w, err := n.unwireValue(conv, pl.vars[vi].kind, v, hints, src)
			if err != nil {
				panic(fmt.Sprintf("kernel: unmarshal var: %v", err))
			}
			cf.vars[vi] = w
		}
		if len(a.Temps) > 0 {
			cf.temps = carve(len(a.Temps))
		}
		for ti, v := range a.Temps {
			w, err := n.unwireValue(conv, tempKindAt(pl.stop, ti), v, hints, src)
			if err != nil {
				panic(fmt.Sprintf("kernel: unmarshal temp: %v", err))
			}
			cf.temps[ti] = w
		}
		cfs = append(cfs, cf)
	}
	mv.cfs = cfs

	// Relocation/placement pass: lay records out oldest first, simulating
	// the register file to rebuild callee-save areas, exactly inverse to
	// the source-side unwinding. The oldest record's caller is the fragment
	// Link.
	mv.words = words
	objAddr, err := n.ensureAddressable(obj)
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
	var regs [16]uint32
	fp, place := base, base
	retDesc, retPC := uint32(descNone), uint32(0)
	for i := len(cfs) - 1; i >= 0; i-- {
		cf := &cfs[i]
		t := cf.lf.fc.Template
		if place+uint32(t.Size) > f.stackLimit {
			panic("kernel: migrated stack exceeds stack region")
		}
		savedFP := fp
		fp = place
		place += uint32(t.Size)
		n.placeFrame(fp, t, savedFP, retDesc, retPC, objAddr, &regs, cf.vars)
		// Live temporaries.
		for ti, w := range cf.temps {
			n.st32(fp+uint32(t.TempOff)+uint32(4*ti), w)
		}
		// The next record returns here: bus stop -> this machine's PC (works
		// for exit-only stops: number-to-PC conversion is exactly what they
		// permit).
		retDesc, retPC = cf.lf.desc, cf.stop.PC
		f.nframes++
	}
	f.stackHi = place

	// Thread state of the top activation.
	top := &cfs[0]
	f.CPU.Regs = regs
	if top.entry {
		n.enter(f, top.lf, fp, 0, 0)
	} else {
		n.enter(f, top.lf, fp, top.stop.PC, int32(len(top.temps)))
	}

	// Scheduling state.
	switch wf.Status {
	case wire.FragRunnable:
		if wf.Executing {
			n.enqueue(f)
		} else {
			f.Status = FragStateBlockedCall
		}
	case wire.FragBlockedCall:
		f.Status = FragStateBlockedCall
	case wire.FragBlockedEntry:
		f.Status = FragStateBlockedEntry
	case wire.FragWaitCond:
		f.Status = FragStateWaitCond
		f.condIndex = wf.CondIndex
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvThreadResume, Frag: f.ID, Obj: uint32(obj.OID),
		A: uint64(len(wf.Acts))})
	return f
}
