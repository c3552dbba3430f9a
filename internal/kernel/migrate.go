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
	return n.cluster.Rec.BeginSpan(int64(max(n.CPU.FreeAt, n.now())), int32(n.ID), int32(dest),
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
		n.moveGroup([]*Obj{o}, pm.dest, pm.fix)
	}
}

// wireSlots converts o's data slots (a plain object's template slots or an
// array's elements) for transmission, into the node's scratch arena: the
// Move is marshalled within the same moveGroup.
func (n *Node) wireSlots(conv *wire.Converter, o *Obj) []wire.Value {
	at := len(n.mv.vals)
	n.mv.vals = slices.Grow(n.mv.vals, o.numSlots())[:at+o.numSlots()]
	data := n.mv.vals[at:len(n.mv.vals):len(n.mv.vals)]
	for i := range data {
		v, err := n.wireTempValue(conv, o.slotKind(i), n.ld32(o.slotAddr(i)))
		if err != nil {
			n.violate(invMigration, o.OID, 0, "marshal slot %d: %v", i, err)
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
// stored split step's walk of a stack, under a chaos plan) is copied out —
// so each slice is truncated and refilled move after move and a
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
	// frags, acts and vals back the outgoing Moves' Frags, Acts, the Acts'
	// values and Data: a cohort's members share them until moveGroup's send
	// tail marshals them, and moveGroup empties them for the next cohort.
	frags []wire.Fragment
	acts  []wire.MIActivation
	vals  []wire.Value
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

// movePlain prepares full object + thread migration and adds the prepared
// move to the node's cohort collector, which moveGroup's send tail sends;
// an array moves the same way, as an object no activation has as its
// receiver. Under a chaos plan it runs as the prepare phase of a two-phase
// commit: marshalling is read-only, the stack-split steps are stored on
// the move and its fragments are held (see twophase.go); chaos-off each
// step applies where it is made.
func (n *Node) movePlain(o *Obj, dest int, fix bool) {
	move, live := &liveMove{Dest: dest, Data: moveData{obj: o, fix: fix}}, n.chaosOn()
	n.charge(uint64(n.cluster.Costs.MigrateCycles))
	conv := n.converterFor(dest)
	prev := conv.Stats()

	mv := &n.mv
	mv.frames, mv.runs, mv.plans = reset(mv.frames), mv.runs[:0], reset(mv.plans)
	mv.refs = reset(mv.refs)

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
			n.violate(invMigration, o.OID, fr.ID, "%v", err)
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
			if fr.held || live && runs[0][0] == 0 && fr.Status == FragStateBlockedCall && fr.waitNode < 0 {
				// Another object's in-flight move holds deferred stack
				// restructuring over this fragment, or its top would move
				// while blocked on a local continuation (a parked
				// operation or a directory query), which cannot follow
				// it; retry once that resolves.
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

	// Build wire fragments and restructure local stacks.
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
		// surgery, so they materialize as split steps; the ids are minted
		// eagerly for the wire links.
		ids := mv.ids[:0]
		for si, seg := range segs {
			if si == 0 {
				ids = append(ids, fr.ID)
				continue
			}
			id := n.mintFragID()
			ids = append(ids, id)
			if !seg.moved {
				n.split(move, splitStep{frag: fr, id: id, frames: frames[seg.a : seg.b+1]})
			}
		}
		mv.ids = ids
		// Links: each segment links to the one below; the bottom segment
		// inherits fr's original Link — captured before any segment mutates
		// fr.Link (the topmost unmoved segment reassigns it below).
		origLink := fr.Link
		for si, seg := range segs {
			lk := origLink
			if si < len(segs)-1 {
				lk = Link{Node: int32(n.ID), Frag: ids[si+1]}
				if segs[si+1].moved {
					lk.Node = int32(dest)
				}
			}
			if seg.moved {
				wf := wire.Fragment{FragID: ids[si], LinkNode: lk.Node, LinkFrag: lk.Frag}
				if si == 0 {
					wf.Executing = true
					wf.Status, wf.CondIndex = wireStatus(fr)
					if live && fr.Status == FragStateBlockedCall {
						// The call's custodian follows it: suspecting
						// that node fails the call at its new node.
						wf.Custody, wf.WaitNode, wf.WaitObj = true, fr.waitNode, fr.waitObj
					}
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
				// cut by the adoptRemainder step above, which also entered
				// it in n.frags, blocked, under its minted id.
				n.split(move, splitStep{frag: fr, id: ids[si], link: lk})
			} else {
				// Top remainder piece: records stay in place; cut the
				// oldest frame's caller — it now returns via Link.
				bot := &frames[seg.b]
				retDesc, word := bot.fp+uint32(bot.lf.fc.Template.RetDescOff), uint32(descNone)
				if bot.kont {
					word |= kontFlag
				}
				n.split(move, splitStep{frag: fr, link: lk, retDesc: retDesc, word: word})
			}
		}
		if live {
			// Hold the fragment until the destination acknowledges the
			// install (its wire status was captured above).
			fr.held = true
			move.Held = append(move.Held, fr.ID)
		} else if segs[0].moved {
			// The thread's active top leaves this node: forward late
			// returns, and drop the local fragment.
			n.movedFrags[fr.ID] = dest
			n.killFrag(fr)
		}
	}
	wireFrags := mv.frags[fragStart:len(mv.frags):len(mv.frags)]

	data := n.wireSlots(conv, o)
	mv.refs = append(mv.refs, data...)

	o.Epoch++
	move.Span, sp.Frags = sp.ID, len(wireFrags)
	msg := wire.Move{
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
			msg.MonHolder = n.mustPiece(pieceIDOf, o, o.Mon.Holder, "monitor holder")
		}
		for _, e := range o.Mon.Entry {
			msg.EntryQueue = append(msg.EntryQueue, n.mustPiece(pieceIDOf, o, e, "monitor entrant"))
		}
		for _, q := range o.Mon.Conds {
			var wq []uint32
			for _, w := range q {
				wq = append(wq, n.mustPiece(pieceIDOf, o, w, "condition waiter"))
			}
			msg.CondQueues = append(msg.CondQueues, wq)
		}
	}
	msg.Hints = n.collectHints(mv.refs)
	n.chargeConv(conv, prev)
	n.finishMoveOut(sp, o, dest, conv, prev)
	n.col.msgs, n.col.moves = append(n.col.msgs, msg), append(n.col.moves, move)
}

func (n *Node) mustPiece(m map[*Frag]uint32, o *Obj, f *Frag, what string) uint32 {
	id, ok := m[f]
	if !ok {
		n.violate(invMigration, o.OID, f.ID, "%s did not migrate with its object", what)
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
	nf := n.addFrag(id, Link{Node: -1})
	n.setStatus(nf, FragStateBlockedCall)
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
		if o := n.objects[p.Object]; o != nil && o.transit != nil {
			// This node's own move of the object awaits its commit (the
			// directory holds it for a decree round) while the destination,
			// already running the moved threads, sends the object back:
			// deliver it again once that move commits. A retransmission
			// parks too, and its replay finds the span seen.
			q := keepPayload(p).(*wire.Move)
			o.transit.Park(func() { n.recvMove(src, q) })
			return
		}
		n.seenSpans[p.SpanID] = true
	}
	respecStart := int64(max(n.CPU.FreeAt, n.now()))
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
			n.violate(invMigration, p.Object, 0, "%v", err)
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
		n.violate(invResidency, p.Object, 0, "span %d from node %d arrived, but the object is already resident", p.SpanID, src)
	}
	o.Epoch = p.Epoch
	addr, err := n.alloc(size)
	if err != nil {
		n.violate(invMemory, p.Object, 0, "%v", err)
	}
	o.Resident, o.Addr, o.Fixed = true, addr, p.Fixed
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
			n.violate(invMigration, p.Object, 0, "unmarshal slot %d: %v", i, err)
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
	for i := range p.Frags {
		if wf := &p.Frags[i]; wf.Custody && n.link.Suspected(int(wf.WaitNode)) {
			// This node suspected the call's custodian before the call came.
			n.failWaitersOn(int(wf.WaitNode))
		}
	}
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
	f := n.addFrag(wf.FragID, Link{Node: wf.LinkNode, Frag: wf.LinkFrag})
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
			n.violate(invMigration, obj.OID, f.ID, "%v", err)
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
				n.violate(invMigration, obj.OID, f.ID, "unmarshal var %d: %v", vi, err)
			}
			cf.vars[vi] = w
		}
		if len(a.Temps) > 0 {
			cf.temps = carve(len(a.Temps))
		}
		for ti, v := range a.Temps {
			w, err := n.unwireValue(conv, tempKindAt(pl.stop, ti), v, hints, src)
			if err != nil {
				n.violate(invMigration, obj.OID, f.ID, "unmarshal temp %d: %v", ti, err)
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
		n.violate(invMemory, obj.OID, f.ID, "%v", err)
	}
	var regs [16]uint32
	fp, place := base, base
	retDesc, retPC := uint32(descNone), uint32(0)
	for i := len(cfs) - 1; i >= 0; i-- {
		cf := &cfs[i]
		t := cf.lf.fc.Template
		if place+uint32(t.Size) > f.stackLimit {
			n.violate(invMigration, obj.OID, f.ID, "migrated stack exceeds its stack region")
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
			n.setStatus(f, FragStateBlockedCall)
		}
	case wire.FragBlockedCall:
		if wf.Custody {
			n.blockCall(f, wf.WaitNode, wf.WaitObj)
		} else {
			n.blockCall(f, -1, 0)
		}
	case wire.FragBlockedEntry:
		n.setStatus(f, FragStateBlockedEntry)
	case wire.FragWaitCond:
		n.setStatus(f, FragStateWaitCond)
		f.condIndex = wf.CondIndex
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvThreadResume, Frag: f.ID, Obj: uint32(obj.OID),
		A: uint64(len(wf.Acts))})
	return f
}
