// Invocation: local calls, cross-architecture remote invocation, returns
// (local, remote, and kernel continuations), and the protocol message
// dispatcher.

package kernel

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

// handleCall services a TrapCall: resolve the receiver, then either push a
// local activation (acquiring the monitor for monitored operations) or
// perform a cross-node invocation.
func (n *Node) handleCall(f *Frag, tr *arch.Trap) {
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	opName := f.fn.fc.Strings[tr.A]
	argc := int(tr.B)
	// Arguments sit on the evaluation stack above the receiver.
	args := make([]uint32, argc)
	for i := argc - 1; i >= 0; i-- {
		args[i] = n.popTemp(f)
	}
	recvAddr := n.popTemp(f)
	if recvAddr == 0 {
		n.fault(f, "invocation of "+opName+" on nil")
		return
	}
	recv, err := n.objAt(recvAddr)
	if err != nil {
		n.fault(f, "invocation: "+err.Error())
		return
	}
	if recv.transit != nil {
		// The receiver is mid-move: block and replay the dispatch once the
		// move commits (remote path) or aborts (local path).
		f.Status = FragStateBlockedCall
		f.waitNode = -1
		recv.transit.parked = append(recv.transit.parked,
			func() { n.dispatchCall(f, recv, opName, args) })
		return
	}
	n.dispatchCall(f, recv, opName, args)
}

// dispatchCall routes a resolved call locally or remotely (re-entered when
// a parked call replays after a move resolves).
func (n *Node) dispatchCall(f *Frag, recv *Obj, opName string, args []uint32) {
	if recv.Resident {
		n.invokeLocal(f, recv, opName, args)
		return
	}
	n.invokeRemote(f, recv, opName, args)
}

// invokeLocal pushes the callee activation on the calling thread.
func (n *Node) invokeLocal(f *Frag, recv *Obj, opName string, args []uint32) {
	if recv.Kind != ObjPlain {
		n.fault(f, "invocation of "+opName+" on a non-object value")
		return
	}
	idx := recv.Code.oc.FuncIndex(opName)
	if idx < 0 {
		n.fault(f, recv.Code.oc.Name+" has no operation "+opName)
		return
	}
	lf := recv.Code.funcs[idx]
	if lf.fc.Template.NumParams != len(args) {
		n.fault(f, fmt.Sprintf("%s takes %d arguments, got %d",
			opName, lf.fc.Template.NumParams, len(args)))
		return
	}
	retDesc := f.fn.desc
	if err := n.pushFrame(f, lf, recv, args, retDesc, f.CPU.PC); err != nil {
		n.fault(f, err.Error())
		return
	}
	if lf.fc.Template.Monitored {
		if !n.monAcquire(f, recv) {
			return // blocked at monitor entry; resumed by monRelease
		}
	}
	n.enqueue(f)
}

// invokeRemote marshals the arguments and sends an Invoke; the calling
// fragment blocks until the Return arrives (possibly at another node, if
// the fragment migrates meanwhile).
func (n *Node) invokeRemote(f *Frag, recv *Obj, opName string, args []uint32) {
	if n.chaosOn() && (n.suspects[recv.LastKnown] || (n.cluster.dirOn && recv.LocStale)) {
		if n.cluster.dirOn {
			// The cached location is a suspected node (or was invalidated
			// when one fell): ask the directory for the decreed home before
			// giving up on the call.
			n.dirRerouteInvoke(f, recv, opName, args)
			return
		}
		// The last known host is suspected down: fail fast with the typed
		// cause instead of blocking on a Return that will not come.
		n.faultErr(f, ErrNodeDown, fmt.Sprintf("remote invocation of %s on %v: node %d is down",
			opName, recv.OID, recv.LastKnown))
		return
	}
	// Marshalling needs each argument's kind. The program database (every
	// node holds every interface, §3.4) supplies the callee signature.
	sig, ok := n.signatureOf(recv, opName, len(args))
	if !ok {
		n.fault(f, fmt.Sprintf("cannot determine remote signature of %s/%d", opName, len(args)))
		return
	}
	conv := n.converterFor(recv.LastKnown)
	prev := conv.Stats()
	wargs := make([]wire.Value, len(args))
	for i, a := range args {
		v, err := n.wireTempValue(conv, sig[i], a)
		if err != nil {
			n.fault(f, "marshal argument: "+err.Error())
			return
		}
		wargs[i] = v
	}
	n.chargeConv(conv, prev)
	f.Status = FragStateBlockedCall
	f.waitNode = int32(recv.LastKnown)
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvRemoteInvoke, Frag: f.ID, Obj: uint32(recv.OID),
		B: uint64(recv.LastKnown), Str: opName})
	n.cluster.Rec.Metrics().Add("remote_invokes", n.labels, 1)
	if n.cluster.autoOn {
		// Per-link and per-object traffic for the placement policies: which
		// (src,dst) pairs are chatty, and which objects the traffic is about.
		// Recorded only when a policy is armed so policy-disabled runs keep
		// byte-identical metric snapshots.
		n.cluster.Rec.Metrics().Add("invoke_link",
			fmt.Sprintf("src=%d,dst=%d", n.ID, recv.LastKnown), 1)
		n.cluster.Rec.Metrics().Add("invoke_obj",
			fmt.Sprintf("oid=%d,src=%d", uint32(recv.OID), n.ID), 1)
	}
	n.sendMsg(recv.LastKnown, &wire.Invoke{
		Target:     recv.OID,
		OpName:     opName,
		Origin:     int32(n.ID),
		CallerFrag: f.ID,
		Args:       wargs,
		Hints:      n.collectHints(wargs),
	})
}

// signatureOf returns the parameter kinds of opName on recv's class, using
// the program database (every node knows every interface; OIDs name
// semantic content consistently across the network, §3.4).
func (n *Node) signatureOf(recv *Obj, opName string, argc int) ([]ir.VK, bool) {
	var source *ir.Object
	if recv.Code != nil {
		source = recv.Code.oc.IR
	} else {
		// Proxy without class knowledge: search the program for a class
		// with this operation and arity (the program database; the static
		// type checker guarantees a consistent meaning at the call site).
		for _, oc := range n.cluster.Prog.Objects {
			if i := oc.FuncIndex(opName); i >= 0 && oc.IR.Funcs[i].NumParams == argc {
				source = oc.IR
				break
			}
		}
	}
	if source == nil {
		return nil, false
	}
	i := source.FuncIndex(opName)
	if i < 0 || source.Funcs[i].NumParams != argc {
		return nil, false
	}
	fn := source.Funcs[i]
	return fn.VarKinds[:fn.NumParams], true
}

// handleReturn services a TrapRet.
func (n *Node) handleReturn(f *Frag) {
	resultW := uint32(0)
	var resultK ir.VK
	hadResult := false
	if f.fn.fc.Template.NumResults > 0 {
		resultW = n.resultWord(f)
		resultK = resultKind(f.fn)
		hadResult = true
	}
	kont, hasCaller, err := n.popFrame(f)
	if err != nil {
		n.fault(f, err.Error())
		return
	}
	switch {
	case kont:
		k := f.konts[len(f.konts)-1]
		f.konts = f.konts[:len(f.konts)-1]
		k()
		n.retryPendingMoves()
	case hasCaller:
		// Calls always push exactly one value (0 for result-less ops).
		if !hadResult {
			resultW = 0
		}
		n.pushTemp(f, resultW)
		n.enqueue(f)
	case f.Link.Node >= 0:
		// Bottom of a fragment with a remote caller: ship the result.
		conv := n.converterFor(int(f.Link.Node))
		prev := conv.Stats()
		v := wire.IntV(0)
		if hadResult {
			var werr error
			v, werr = n.wireTempValue(conv, resultK, resultW)
			if werr != nil {
				n.fault(f, "marshal result: "+werr.Error())
				return
			}
		} else {
			v = conv.IntToWire(0)
		}
		n.chargeConv(conv, prev)
		n.sendMsg(int(f.Link.Node), &wire.Return{
			Origin: int32(n.ID), CallerFrag: f.Link.Frag, Ok: true, Result: v,
			Hints: n.collectHints([]wire.Value{v}),
		})
		n.killFrag(f)
	default:
		// Thread root finished.
		n.killFrag(f)
	}
}

// ---------------------------------------------------------------- messages

// handleMsg dispatches a received protocol message.
func (n *Node) handleMsg(src int, p wire.Payload) {
	switch p := p.(type) {
	case *wire.Invoke:
		n.recvInvoke(src, p)
	case *wire.Return:
		n.recvReturn(src, p)
	case *wire.MoveReq:
		n.recvMoveReq(src, p)
	case *wire.Move:
		n.recvMove(src, p)
	case *wire.MoveGroup:
		n.recvMoveGroup(src, p)
	case *wire.UnfixReq:
		n.recvUnfixReq(src, p)
	case *wire.MoveAck:
		n.recvMoveAck(src, p)
	case *wire.UpdateLoc:
		if o, ok := n.objects[p.Target]; ok && !o.Resident && p.Epoch > o.Epoch {
			o.LastKnown = int(p.Node)
			o.Epoch = p.Epoch
			o.LocStale = false
			o.chained = false
		}
	case *wire.Locate:
		n.recvLocate(src, p)
	case *wire.DirPrepare:
		n.recvDirPrepare(src, p)
	case *wire.DirPromise:
		n.recvDirPromise(src, p)
	case *wire.DirAccept:
		n.recvDirAccept(src, p)
	case *wire.DirAccepted:
		n.recvDirAccepted(src, p)
	case *wire.DirLearn:
		n.recvDirLearn(src, p)
	case *wire.DirLookup:
		n.recvDirLookup(src, p)
	case *wire.DirLookupReply:
		n.recvDirLookupReply(src, p)
	default:
		panic(fmt.Sprintf("kernel: node %d: unhandled message kind %v", n.ID, wire.KindOf(p)))
	}
}

// forwardIfMoved forwards a message about an object not resident here and
// tells the sender where it went. It reports whether forwarding happened.
func (n *Node) forwardIfMoved(src int, target *Obj, p wire.Payload) bool {
	if target.Resident {
		return false
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvProxyForward, Obj: uint32(target.OID),
		B: uint64(target.LastKnown), Str: wire.KindOf(p).String()})
	n.cluster.Rec.Metrics().Add("proxy_forwards", n.labels, 1)
	// This proxy just acted as a chain link: flag it so the directory
	// compactor rewrites it to the decreed home.
	target.chained = true
	n.sendMsg(target.LastKnown, p)
	n.sendMsg(src, &wire.UpdateLoc{Target: target.OID,
		Node: int32(target.LastKnown), Epoch: target.Epoch})
	return true
}

// recvInvoke runs an invocation on behalf of a remote caller: a fresh
// fragment whose Link addresses the caller.
func (n *Node) recvInvoke(src int, p *wire.Invoke) {
	origin := int(p.Origin)
	fail := func(msg string) {
		n.sendMsg(origin, &wire.Return{Origin: int32(n.ID),
			CallerFrag: p.CallerFrag, Ok: false, FaultMsg: msg})
	}
	target, ok := n.objects[p.Target]
	if !ok || !target.Resident {
		if ok && n.forwardIfMoved(src, target, p) {
			return
		}
		// Entirely unknown object: the sender's hint was wrong; bounce a
		// fault to the caller.
		fail(fmt.Sprintf("object %v not found at node %d", p.Target, n.ID))
		return
	}
	if target.transit != nil {
		// Mid-move: park a copy of the whole invocation (p itself dies with
		// this handler) and re-deliver it to ourselves once the move
		// resolves (forwarding if it committed).
		q := p.Clone()
		target.transit.parked = append(target.transit.parked,
			func() { n.recvInvoke(src, q) })
		return
	}
	if target.Kind == ObjArray {
		n.serveArrayOp(origin, p, target)
		return
	}
	idx := -1
	if target.Kind == ObjPlain {
		idx = target.Code.oc.FuncIndex(p.OpName)
	}
	if idx < 0 {
		fail("no operation " + p.OpName)
		return
	}
	lf := target.Code.funcs[idx]
	t := lf.fc.Template
	if t.NumParams != len(p.Args) {
		fail(fmt.Sprintf("%s takes %d arguments, got %d", p.OpName, t.NumParams, len(p.Args)))
		return
	}
	hints := map[oid.OID]int{}
	for _, h := range p.Hints {
		hints[h.OID] = int(h.Node)
	}
	// Values were produced by the origin machine.
	conv := n.converterFor(origin)
	prev := conv.Stats()
	args := make([]uint32, len(p.Args))
	for i, v := range p.Args {
		w, err := n.unwireValue(conv, t.Vars[i].Kind, v, hints, origin)
		if err != nil {
			fail("unmarshal: " + err.Error())
			return
		}
		args[i] = w
	}
	n.chargeConv(conv, prev)
	sf := n.newFrag()
	sf.Link = Link{Node: int32(origin), Frag: p.CallerFrag}
	if err := n.pushFrame(sf, lf, target, args, descNone, 0); err != nil {
		n.fault(sf, err.Error())
		return
	}
	if t.Monitored {
		if !n.monAcquire(sf, target) {
			return
		}
	}
	n.enqueue(sf)
}

// recvReturn resumes the caller fragment with the invocation result.
func (n *Node) recvReturn(src int, p *wire.Return) {
	f, ok := n.frags[p.CallerFrag]
	if !ok {
		// The caller migrated: forward along the thread-forwarding chain.
		if dest, moved := n.movedFrags[p.CallerFrag]; moved {
			n.sendMsg(dest, p)
			return
		}
		n.tracef("node%d: return for unknown frag %08x dropped", n.ID, p.CallerFrag)
		return
	}
	if !p.Ok {
		n.fault(f, "remote invocation failed: "+p.FaultMsg)
		return
	}
	// The caller is stopped at its call bus stop; the stop tells us whether
	// resumption pushes a value and of what kind.
	stop, err := n.currentStop(f)
	if err != nil {
		n.fault(f, "return: "+err.Error())
		return
	}
	f.waitNode = -1
	if stop.Pushes {
		hints := map[oid.OID]int{}
		for _, h := range p.Hints {
			hints[h.OID] = int(h.Node)
		}
		origin := int(p.Origin)
		conv := n.converterFor(origin)
		prev := conv.Stats()
		w, err := n.unwireValue(conv, stop.ResultKind, p.Result, hints, origin)
		if err != nil {
			n.fault(f, "return unmarshal: "+err.Error())
			return
		}
		n.chargeConv(conv, prev)
		n.pushTemp(f, w)
	}
	n.enqueue(f)
}

// maxLocateHops bounds the forwarding-address walk. A stale-but-live chain
// converges in at most nodes-1 hops; anything longer is a routing loop from
// crash-era hints, and the chase fails cleanly instead of ping-ponging.
const maxLocateHops = 16

// recvLocate answers or chases a location query (forwarding-address walk).
func (n *Node) recvLocate(src int, p *wire.Locate) {
	lbl := n.labels
	answer := func(node int32) {
		n.cluster.Rec.Metrics().Add("locate_chase_hops", lbl, uint64(p.Hops))
		conv := n.converterFor(int(p.Origin))
		n.sendMsg(int(p.Origin), &wire.Return{
			Origin:     int32(n.ID),
			CallerFrag: p.ReplyFrag, Ok: true, Result: conv.IntToWire(uint32(node)),
		})
	}
	o, ok := n.objects[p.Target]
	switch {
	case ok && o.Resident:
		answer(int32(n.ID))
	case ok && p.Hops < maxLocateHops:
		p.Hops++
		n.sendMsg(o.LastKnown, p)
	default:
		if ok {
			// The chase walked p.Hops forwards before exhausting its
			// budget; account them so hop totals cover failed chases too.
			n.cluster.Rec.Metrics().Add("locate_chase_hops", lbl, uint64(p.Hops))
			n.cluster.Rec.Metrics().Add("locate_chase_exhausted", lbl, 1)
		}
		n.sendMsg(int(p.Origin), &wire.Return{
			Origin:     int32(n.ID),
			CallerFrag: p.ReplyFrag, Ok: false,
			FaultMsg: fmt.Sprintf("cannot locate %v", p.Target),
		})
	}
}

// recvMoveReq moves a resident object (or forwards the request).
func (n *Node) recvMoveReq(src int, p *wire.MoveReq) {
	target, ok := n.objects[p.Target]
	if !ok {
		n.tracef("node%d: movereq for unknown %v dropped", n.ID, p.Target)
		return
	}
	if n.forwardIfMoved(src, target, p) {
		return
	}
	n.moveObject(target, int(p.Dest), p.Fix)
}

// recvUnfixReq unfixes a resident object (or forwards).
func (n *Node) recvUnfixReq(src int, p *wire.UnfixReq) {
	target, ok := n.objects[p.Target]
	if !ok {
		return
	}
	if n.forwardIfMoved(src, target, p) {
		return
	}
	if target.transit != nil {
		q := *p // p dies with this handler
		target.transit.parked = append(target.transit.parked,
			func() { n.recvUnfixReq(src, &q) })
		return
	}
	target.Fixed = false
	if p.Refix {
		n.moveObject(target, int(p.Dest), true)
	}
}

// handleMoveFamily services move/fix/refix traps.
func (n *Node) handleMoveFamily(f *Frag, tr *arch.Trap) {
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	destW := int(int32(n.popTemp(f)))
	addr := n.popTemp(f)
	if destW < 0 || destW >= len(n.cluster.Nodes) {
		n.fault(f, "move: bad destination node")
		return
	}
	o, err := n.objAt(addr)
	if err != nil {
		n.fault(f, "move: "+err.Error())
		return
	}
	fix := tr.Kind == arch.TrapFix || tr.Kind == arch.TrapRefix
	if tr.Kind == arch.TrapRefix {
		if o.Resident {
			o.Fixed = false
		} else {
			n.sendMsg(o.LastKnown, &wire.UnfixReq{Target: o.OID, Refix: true, Dest: int32(destW)})
			n.enqueue(f)
			return
		}
	}
	if !o.Resident {
		// Forward the request; the move is asynchronous from here.
		n.sendMsg(o.LastKnown, &wire.MoveReq{Target: o.OID, Dest: int32(destW), Fix: fix})
		n.enqueue(f)
		return
	}
	// Resume the requesting thread first: if its own frames migrate with
	// the object, moveObject takes it off the run queue again; otherwise it
	// continues here after the move.
	n.enqueue(f)
	n.moveObject(o, destW, fix)
}
