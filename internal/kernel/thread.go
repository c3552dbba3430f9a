// Threads: fragments of distributed call stacks, frame management through
// templates, and the kernel trap dispatcher (every trap site is a bus
// stop).

package kernel

import (
	"fmt"
	"strconv"

	"repro/internal/arch"
	"repro/internal/busstop"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/template"
	"repro/internal/wire"
)

// FragState is a fragment's scheduling state.
type FragState byte

// Fragment states.
const (
	FragStateReady FragState = iota
	FragStateRunning
	FragStateBlockedCall  // awaiting a Return from a remote callee
	FragStateBlockedEntry // queued on a monitor
	FragStateWaitCond     // waiting on a condition variable
	FragStateDead
)

func (s FragState) String() string {
	switch s {
	case FragStateReady:
		return "ready"
	case FragStateRunning:
		return "running"
	case FragStateBlockedCall:
		return "blocked-call"
	case FragStateBlockedEntry:
		return "blocked-entry"
	case FragStateWaitCond:
		return "wait-cond"
	case FragStateDead:
		return "dead"
	}
	return "?"
}

// Link addresses the stack piece below this fragment's oldest activation.
type Link struct {
	Node int32 // -1: none (thread root)
	Frag uint32
}

// Frag is the node-local piece of a (possibly distributed) thread: a
// contiguous run of activation records in a stack region, plus CPU state
// when it holds the thread's active top.
type Frag struct {
	ID     uint32
	Status FragState
	CPU    arch.CPU
	fn     *loadedFunc // function of the top activation
	Link   Link
	// Stack region, and the highest record end ever placed in it: the
	// region is all-zero in [stackHi, stackLimit), so retiring it (killFrag)
	// hands alloc only [stackBase, stackHi) to clear. Raised where records
	// are placed: pushFrame, installFragment, adoptRemainder.
	stackBase, stackLimit, stackHi uint32
	// konts are kernel continuations keyed from synthetic frames
	// (retDescKont): object-creation chains.
	konts []func()
	// condIndex records which condition a FragStateWaitCond fragment waits on.
	condIndex uint16
	// queued guards against double-enqueueing.
	queued bool
	// held: a live move ships the fragment's frames (liveMove.Held); it
	// does not run, and what is delivered to it awaits the move's outcome.
	held bool
	// waitNode is the node a FragStateBlockedCall fragment awaits a Return
	// from (-1: none), its call's custodian; crash suspicion fails such
	// waiters with ErrNodeDown. waitObj is the object its Invoke or Locate
	// is about: a forwarder's custody report about it moves waitNode along
	// (recvUpdateLoc).
	waitNode int32
	waitObj  oid.OID
}

func (f *Frag) topName() string {
	if f.fn == nil {
		return "<no frames>"
	}
	return f.fn.name()
}

// newFrag allocates a fresh thread root's fragment.
func (n *Node) newFrag() *Frag {
	return n.addFrag(n.mintFragID(), Link{Node: -1})
}

// mintFragID allocates a globally unique fragment id.
func (n *Node) mintFragID() uint32 {
	n.fragCtr++
	return uint32(n.ID)<<24 | n.fragCtr
}

// addFrag enters fragment id, ready and with no frames yet, on a fresh
// stack region.
func (n *Node) addFrag(id uint32, lk Link) *Frag {
	base, limit := n.allocStack(id)
	f := &Frag{ID: id, Link: lk,
		stackBase: base, stackLimit: limit, stackHi: base, waitNode: -1}
	f.CPU.FP = base // empty: first frame goes at base
	n.frags[id] = f
	return f
}

// ---------------------------------------------------------------- frames

// frameTop returns the first free byte above the current top frame.
func (n *Node) frameTop(f *Frag) uint32 {
	if f.fn == nil {
		return f.stackBase
	}
	return f.CPU.FP + uint32(f.fn.fc.Template.Size)
}

// placeFrame writes a fresh activation record of template t at fp, the one
// place a record is laid out from values: it clears the record (an earlier
// one may have left words there), writes its control words, saves the
// caller's values of the record's home registers from *regs, and puts vars
// in their homes, register homes in *regs. Variables past the end of vars
// are zero, so no stale caller value leaks into them.
func (n *Node) placeFrame(fp uint32, t *template.Activation, savedFP, retDesc, retPC, self uint32,
	regs *[16]uint32, vars []uint32) {
	clear(n.Mem[fp : fp+uint32(t.Size)])
	n.st32(fp+uint32(t.SavedFPOff), savedFP)
	n.st32(fp+uint32(t.RetDescOff), retDesc)
	n.st32(fp+uint32(t.RetPCOff), retPC)
	n.st32(fp+uint32(t.SelfOff), self)
	n.st32(fp+uint32(t.TempBaseOff), fp+uint32(t.TempOff))
	for i, r := range t.SavedRegs {
		n.st32(fp+uint32(t.SavedRegsOff)+uint32(4*i), regs[r&0xf])
	}
	for i, h := range t.Vars {
		w := uint32(0)
		if i < len(vars) {
			w = vars[i]
		}
		switch {
		case h.InReg:
			regs[h.Reg&0xf] = w
		case w != 0: // the record is clear already
			n.st32(fp+uint32(h.Off), w)
		}
	}
}

// unwind reads the record at fp, of template t, back into its caller's
// view: it restores the caller's values of the record's home registers in
// *regs and returns the caller's frame pointer, code descriptor and return
// PC, and whether the record returns into a kernel continuation.
func (n *Node) unwind(fp uint32, t *template.Activation, regs *[16]uint32) (callerFP, desc, retPC uint32, kont bool) {
	for i, r := range t.SavedRegs {
		regs[r&0xf] = n.ld32(fp + uint32(t.SavedRegsOff) + uint32(4*i))
	}
	raw := n.ld32(fp + uint32(t.RetDescOff))
	return n.ld32(fp + uint32(t.SavedFPOff)), raw &^ kontFlag, n.ld32(fp + uint32(t.RetPCOff)), raw&kontFlag != 0
}

// enter makes the record at fp, an activation of lf, f's top: execution
// resumes at pc with depth live temporaries.
func (n *Node) enter(f *Frag, lf *loadedFunc, fp, pc uint32, depth int32) {
	t := lf.fc.Template
	f.fn = lf
	f.CPU.FP = fp
	f.CPU.PC = pc
	f.CPU.Self = n.ld32(fp + uint32(t.SelfOff))
	f.CPU.TempBase = fp + uint32(t.TempOff)
	f.CPU.TempDepth = depth
	f.CPU.LitBase = lf.litBase
}

// pushFrame creates an activation of lf with the given receiver and
// arguments (machine words, one per parameter), saving the caller's state
// per the callee's template; the remaining variables start zero. retDesc/
// retPC address the caller; for kernel-continuation frames retDesc is
// retDescKont, for remote callers retDescRemote.
func (n *Node) pushFrame(f *Frag, lf *loadedFunc, self *Obj, args []uint32,
	retDesc, retPC uint32) error {
	t := lf.fc.Template
	fp := n.frameTop(f)
	end := fp + uint32(t.Size)
	if end > f.stackLimit {
		return fmt.Errorf("stack overflow in %s", lf.name())
	}
	n.charge(uint64(n.cluster.Costs.CallCycles) +
		uint64(n.cluster.Costs.PerArgCycles)*uint64(len(args)))
	selfAddr := uint32(0)
	if self != nil {
		var err error
		selfAddr, err = n.ensureAddressable(self)
		if err != nil {
			return err
		}
	}
	n.placeFrame(fp, t, f.CPU.FP, retDesc, retPC, selfAddr, &f.CPU.Regs, args)
	f.stackHi = max(f.stackHi, end)
	n.enter(f, lf, fp, 0, 0)
	return nil
}

// popFrame unwinds the top activation: restores saved registers and the
// caller's frame context (PC, self, temp state — re-established from the
// bus stop at the return address). It reports whether a kernel
// continuation must run and whether a local caller was restored.
func (n *Node) popFrame(f *Frag) (kont, hasCaller bool, err error) {
	n.charge(uint64(n.cluster.Costs.RetCycles))
	fp, desc, retPC, kont := n.unwind(f.CPU.FP, f.fn.fc.Template, &f.CPU.Regs)
	f.CPU.FP = fp
	if desc == descNone {
		f.fn = nil
		return kont, false, nil
	}
	caller, err := n.funcByDesc(desc)
	if err != nil {
		return kont, false, err
	}
	stop, err := caller.fc.Stops.ByPC(retPC)
	if err != nil {
		return kont, true, fmt.Errorf("return address %#x in %s is not a bus stop: %v",
			retPC, caller.name(), err)
	}
	n.enter(f, caller, fp, retPC, int32(stop.TempDepth))
	return kont, true, nil
}

// resultWord reads the first result variable of the (just returning) top
// frame of f.
func (n *Node) resultWord(f *Frag) uint32 {
	t := f.fn.fc.Template
	if t.NumResults == 0 {
		return 0
	}
	h := t.Vars[t.NumParams] // first result follows the parameters
	if h.InReg {
		return f.CPU.Regs[h.Reg&0xf]
	}
	return n.ld32(f.CPU.FP + uint32(h.Off))
}

// resultKind returns the first result's kind (int for result-less ops).
func resultKind(lf *loadedFunc) ir.VK {
	t := lf.fc.Template
	if t.NumResults == 0 {
		return ir.VKInt
	}
	return t.Vars[t.NumParams].Kind
}

// pushTemp pushes a machine word onto f's evaluation stack.
func (n *Node) pushTemp(f *Frag, v uint32) {
	n.st32(f.CPU.TempBase+uint32(4*f.CPU.TempDepth), v)
	f.CPU.TempDepth++
}

// popTemp pops a machine word.
func (n *Node) popTemp(f *Frag) uint32 {
	f.CPU.TempDepth--
	return n.ld32(f.CPU.TempBase + uint32(4*f.CPU.TempDepth))
}

// ---------------------------------------------------------------- traps

// handleTrap services a kernel trap from f. It returns true if f should
// continue executing in the same slice (atomic monitor exit only).
func (n *Node) handleTrap(f *Frag, tr *arch.Trap) bool {
	c := &n.cluster.Costs
	switch tr.Kind {
	case arch.TrapFault:
		n.fault(f, tr.Fault.String()+" in "+f.topName())
		return false
	case arch.TrapYield:
		n.charge(uint64(c.SyscallCycles))
		n.enqueue(f)
		return false
	case arch.TrapRet:
		n.handleReturn(f)
		return false
	case arch.TrapCall:
		n.handleCall(f, tr)
		return false
	case arch.TrapNew:
		n.handleNew(f, tr)
		return false
	case arch.TrapNewArray:
		n.charge(uint64(c.SyscallCycles))
		length := n.popTemp(f)
		if int32(length) < 0 {
			n.fault(f, "negative array length")
			return false
		}
		a, err := n.newArray(ir.VK(tr.B), length)
		if err != nil {
			n.fault(f, err.Error())
			return false
		}
		n.pushTemp(f, a.Addr)
		n.enqueue(f)
		return false
	case arch.TrapPrint:
		n.handlePrint(f, tr)
		n.enqueue(f)
		return false
	case arch.TrapNodes:
		n.charge(uint64(c.SyscallCycles))
		n.pushTemp(f, uint32(len(n.cluster.Nodes)))
		n.enqueue(f)
		return false
	case arch.TrapThisNode:
		n.charge(uint64(c.SyscallCycles))
		n.pushTemp(f, uint32(n.ID))
		n.enqueue(f)
		return false
	case arch.TrapNodeAt:
		n.charge(uint64(c.SyscallCycles))
		i := int32(n.popTemp(f))
		if i < 0 || int(i) >= len(n.cluster.Nodes) {
			n.fault(f, "node("+strconv.Itoa(int(i))+") out of range")
			return false
		}
		n.pushTemp(f, uint32(i))
		n.enqueue(f)
		return false
	case arch.TrapTimeMS:
		n.charge(uint64(c.SyscallCycles))
		// The node's virtual work clock: includes all CPU work charged so
		// far (event timestamps can lag the work accounted within a slice).
		n.pushTemp(f, uint32(n.CPU.FreeAt/1000))
		n.enqueue(f)
		return false
	case arch.TrapStrOf:
		n.handleStrOf(f, tr)
		return false
	case arch.TrapConcat:
		n.handleConcat(f)
		return false
	case arch.TrapLocate:
		n.charge(uint64(c.SyscallCycles))
		addr := n.popTemp(f)
		o, err := n.objAt(addr)
		if err != nil {
			n.fault(f, "locate: "+err.Error())
			return false
		}
		if !o.Resident && n.cluster.dirOn {
			// One shard query refreshes the proxy to the decreed home, so
			// the chase is ≤1 hop (or runs unchanged on a miss).
			n.dirAsk(f, o, (*Node).locate)
			return false
		}
		n.locate(f, o)
		return false
	case arch.TrapMove, arch.TrapFix, arch.TrapRefix:
		n.handleMoveFamily(f, tr)
		return false
	case arch.TrapUnfix:
		n.charge(uint64(c.SyscallCycles))
		addr := n.popTemp(f)
		o, err := n.objAt(addr)
		if err != nil {
			n.fault(f, "unfix: "+err.Error())
			return false
		}
		if o.Resident {
			o.Fixed = false
		} else {
			n.sendMsg(o.LastKnown, &wire.UnfixReq{Target: o.OID})
		}
		n.enqueue(f)
		return false
	case arch.TrapALoad, arch.TrapAStore, arch.TrapALen:
		n.handleArrayOp(f, tr)
		return false
	case arch.TrapWait:
		n.handleWait(f)
		return false
	case arch.TrapSignal:
		n.handleSignal(f)
		return false
	case arch.TrapMonExit:
		// System-call monitor exit (M68K, SPARC): a scheduling point.
		n.charge(uint64(c.SyscallCycles))
		n.monExit(f)
		n.enqueue(f)
		return false
	case arch.TrapMonExitA:
		// Atomic UNLINKQ (VAX): the unlink happens within one instruction;
		// the thread continues in the same slice — the runtime never treats
		// this PC as a scheduling point (its bus stop is exit-only).
		n.monExit(f)
		return true
	}
	n.fault(f, fmt.Sprintf("unknown trap %v", tr.Kind))
	return false
}

// currentStop looks up the bus stop at f's current PC.
func (n *Node) currentStop(f *Frag) (busstop.Info, error) {
	return f.fn.fc.Stops.ByPC(f.CPU.PC)
}

// selfObj resolves f's current receiver.
func (n *Node) selfObj(f *Frag) (*Obj, error) {
	return n.objAt(f.CPU.Self)
}

// ---------------------------------------------------------------- creation

// createObject runs the paper-faithful creation sequence on fragment f:
// allocate and zero, run $init (condition indices + variable initializers),
// store constructor arguments, run $initially if present, spawn the process
// thread if present, then invoke done(obj). All code runs natively on f via
// kernel continuation frames.
func (n *Node) createObject(f *Frag, code oid.OID, args []uint32, done func(*Obj)) {
	lc, err := n.loadCode(code)
	if err != nil {
		n.fault(f, err.Error())
		return
	}
	obj, err := n.newPlain(lc)
	if err != nil {
		n.fault(f, err.Error())
		return
	}
	irObj := lc.oc.IR
	initIdx := lc.oc.FuncIndex("$init")
	initiallyIdx := lc.oc.FuncIndex("$initially")

	// Synthetic creation frames return to f's current context and then run
	// a kernel continuation.
	kontDesc := func() (uint32, uint32) {
		if f.fn == nil {
			return descNone | kontFlag, 0
		}
		return f.fn.desc | kontFlag, f.CPU.PC
	}
	finish := func() {
		if irObj.HasProcess {
			n.spawnProcess(obj)
		}
		done(obj)
	}
	afterInit := func() {
		// Constructor arguments override the first k slots (stored after
		// the initializers ran, before `initially`).
		for i, v := range args {
			n.st32(obj.slotAddr(i), v)
		}
		if initiallyIdx >= 0 {
			f.konts = append(f.konts, finish)
			d, pc := kontDesc()
			if err := n.pushFrame(f, lc.funcs[initiallyIdx], obj, nil, d, pc); err != nil {
				n.fault(f, err.Error())
				return
			}
			n.enqueue(f)
			return
		}
		finish()
	}
	f.konts = append(f.konts, afterInit)
	d, pc := kontDesc()
	if err := n.pushFrame(f, lc.funcs[initIdx], obj, nil, d, pc); err != nil {
		n.fault(f, err.Error())
		return
	}
	n.enqueue(f)
}

// spawnProcess starts obj's process section on a fresh thread.
func (n *Node) spawnProcess(obj *Obj) {
	lc := obj.Code
	procIdx := lc.oc.FuncIndex("$process")
	pf := n.newFrag()
	if err := n.pushFrame(pf, lc.funcs[procIdx], obj, nil, descNone, 0); err != nil {
		n.fault(pf, err.Error())
		return
	}
	// A process root has no caller: Link stays {-1}.
	n.enqueue(pf)
}

// handleNew services a TrapNew: creation happens on the calling thread.
func (n *Node) handleNew(f *Frag, tr *arch.Trap) {
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	name := f.fn.fc.Strings[tr.A]
	oc := n.cluster.Prog.Object(name)
	if oc == nil {
		n.fault(f, "new: unknown object "+name)
		return
	}
	argc := int(tr.B)
	args := make([]uint32, argc)
	for i := argc - 1; i >= 0; i-- {
		args[i] = n.popTemp(f)
	}
	n.createObject(f, oc.CodeOID, args, func(obj *Obj) {
		n.pushTemp(f, obj.Addr)
		n.enqueue(f)
	})
}

// ---------------------------------------------------------------- printing

// formatValue renders one printed value per its kind letter.
func (n *Node) formatValue(letter byte, w uint32) string {
	switch letter {
	case 'i':
		return strconv.Itoa(int(int32(w)))
	case 'b':
		if w != 0 {
			return "true"
		}
		return "false"
	case 'r':
		return strconv.FormatFloat(float64(n.Spec.Float.Dec(w)), 'g', -1, 32)
	case 'n':
		return "node" + strconv.Itoa(int(int32(w)))
	case 's':
		if w == 0 {
			return "nil"
		}
		if o, err := n.objAt(w); err == nil && o.Kind == ObjString {
			return string(n.stringBytes(o))
		}
		return "<bad-string>"
	default: // 'p'
		if w == 0 {
			return "nil"
		}
		o, err := n.objAt(w)
		if err != nil {
			return "<bad-ref>"
		}
		name := "object"
		switch {
		case o.Kind == ObjArray:
			name = "array"
		case o.Kind == ObjString:
			name = "string"
		case o.Code != nil:
			name = o.Code.oc.Name
		}
		return fmt.Sprintf("<%s %v>", name, o.OID)
	}
}

func (n *Node) handlePrint(f *Frag, tr *arch.Trap) {
	kinds := f.fn.fc.Strings[tr.A]
	argc := int(tr.B)
	n.charge(uint64(n.cluster.Costs.SyscallCycles) + uint64(20*argc))
	parts := make([]string, argc)
	for i := argc - 1; i >= 0; i-- {
		w := n.popTemp(f)
		parts[i] = n.formatValue(kinds[i], w)
	}
	text := ""
	for _, p := range parts {
		text += p
	}
	n.print(text)
	n.tracef("node%d print: %s", n.ID, text)
}

func (n *Node) handleStrOf(f *Frag, tr *arch.Trap) {
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	letter := f.fn.fc.Strings[tr.A][0]
	w := n.popTemp(f)
	s, err := n.newString([]byte(n.formatValue(letter, w)))
	if err != nil {
		n.fault(f, err.Error())
		return
	}
	n.pushTemp(f, s.Addr)
	n.enqueue(f)
}

func (n *Node) handleConcat(f *Frag) {
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	bAddr := n.popTemp(f)
	aAddr := n.popTemp(f)
	ao, err1 := n.objAt(aAddr)
	bo, err2 := n.objAt(bAddr)
	if err1 != nil || err2 != nil || ao.Kind != ObjString || bo.Kind != ObjString {
		n.fault(f, "concat on non-string")
		return
	}
	buf := append(append([]byte(nil), n.stringBytes(ao)...), n.stringBytes(bo)...)
	n.charge(uint64(len(buf)))
	s, err := n.newString(buf)
	if err != nil {
		n.fault(f, err.Error())
		return
	}
	n.pushTemp(f, s.Addr)
	n.enqueue(f)
}

// ---------------------------------------------------------------- monitors

// monAcquire tries to take obj's monitor for f; on contention f blocks at
// entry and monAcquire returns false.
func (n *Node) monAcquire(f *Frag, obj *Obj) bool {
	m := obj.Mon
	if m.Holder == nil {
		m.Holder = f
		return true
	}
	n.setStatus(f, FragStateBlockedEntry)
	m.Entry = append(m.Entry, f)
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvMonitorBlock, Frag: f.ID, Obj: uint32(obj.OID)})
	n.cluster.Rec.Metrics().Add("monitor_contention", n.labels, 1)
	return false
}

// monRelease releases obj's monitor and admits the next entrant.
func (n *Node) monRelease(obj *Obj) {
	m := obj.Mon
	m.Holder = nil
	if len(m.Entry) > 0 {
		next := m.Entry[0]
		m.Entry = m.Entry[1:]
		m.Holder = next
		n.enqueue(next) // blocked at operation entry (PC 0), or re-entering after a wait
	}
}

// monExit services monitor exit for f's current receiver.
func (n *Node) monExit(f *Frag) {
	obj, err := n.selfObj(f)
	if err != nil || obj.Mon == nil {
		n.fault(f, "monitor exit without monitor")
		return
	}
	if obj.Mon.Holder != f {
		n.fault(f, "monitor exit by non-holder")
		return
	}
	n.monRelease(obj)
}

// handleWait: release the monitor and join the condition queue.
func (n *Node) handleWait(f *Frag) {
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	k := int(int32(n.popTemp(f)))
	obj, err := n.selfObj(f)
	if err != nil || obj.Mon == nil || k < 0 || k >= len(obj.Mon.Conds) {
		n.fault(f, "wait on bad condition")
		return
	}
	if obj.Mon.Holder != f {
		n.fault(f, "wait without holding the monitor")
		return
	}
	n.setStatus(f, FragStateWaitCond)
	f.condIndex = uint16(k)
	obj.Mon.Conds[k] = append(obj.Mon.Conds[k], f)
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvMonitorWait, Frag: f.ID, Obj: uint32(obj.OID), A: uint64(k)})
	n.monRelease(obj)
}

// handleSignal: wake one waiter (it must reacquire the monitor — Mesa
// semantics; the source-level while loop retests the predicate).
func (n *Node) handleSignal(f *Frag) {
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	k := int(int32(n.popTemp(f)))
	obj, err := n.selfObj(f)
	if err != nil || obj.Mon == nil || k < 0 || k >= len(obj.Mon.Conds) {
		n.fault(f, "signal on bad condition")
		return
	}
	if obj.Mon.Holder != f {
		n.fault(f, "signal without holding the monitor")
		return
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvMonitorSignal, Frag: f.ID, Obj: uint32(obj.OID), A: uint64(k)})
	q := obj.Mon.Conds[k]
	if len(q) > 0 {
		w := q[0]
		obj.Mon.Conds[k] = q[1:]
		n.setStatus(w, FragStateBlockedEntry)
		obj.Mon.Entry = append(obj.Mon.Entry, w)
	}
	n.enqueue(f)
}

// ---------------------------------------------------------------- arrays

// Remote array access uses the invocation protocol with reserved operation
// names; the serving node answers from the kernel without pushing frames.
const (
	arrGetOp  = "$aget"
	arrPutOp  = "$aput"
	arrSizeOp = "$asize"
)

// handleArrayOp services array element access: direct when the array is
// resident, through the remote-access protocol otherwise.
func (n *Node) handleArrayOp(f *Frag, tr *arch.Trap) {
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	elem := ir.VK(tr.B)
	var val, idx uint32
	if tr.Kind == arch.TrapAStore {
		val = n.popTemp(f)
	}
	if tr.Kind != arch.TrapALen {
		idx = n.popTemp(f)
	}
	addr := n.popTemp(f)
	if addr == 0 {
		n.fault(f, "nil array reference")
		return
	}
	o, err := n.objAt(addr)
	if err != nil || (o.Resident && o.Kind != ObjArray) {
		n.fault(f, "array operation on a non-array")
		return
	}
	if o.transit != nil {
		// The array is mid-move: block and replay once the move resolves.
		kind := tr.Kind
		n.blockCall(f, -1, 0)
		o.transit.Park(func() { n.arrayOpOn(f, kind, elem, o, idx, val) })
		return
	}
	n.arrayOpOn(f, tr.Kind, elem, o, idx, val)
}

// arrayOpOn performs one array access on a resolved array object (re-entered
// when a parked access replays after a move resolves).
func (n *Node) arrayOpOn(f *Frag, kind arch.TrapKind, elem ir.VK, o *Obj, idx, val uint32) {
	if o.Resident {
		if kind != arch.TrapALen && idx >= o.Len {
			n.fault(f, fmt.Sprintf("index %d out of bounds (length %d)", int32(idx), o.Len))
			return
		}
		switch kind {
		case arch.TrapALoad:
			n.pushTemp(f, n.ld32(o.slotAddr(int(idx))))
		case arch.TrapAStore:
			n.st32(o.slotAddr(int(idx)), val)
		case arch.TrapALen:
			n.pushTemp(f, o.Len)
		}
		n.enqueue(f)
		return
	}
	if n.stale(o) {
		n.reroute(f, o, "remote array access", func() { n.arrayOpOn(f, kind, elem, o, idx, val) })
		return
	}
	// Remote array: marshal the access as a kernel-served invocation.
	conv := n.converterFor(o.LastKnown)
	prev := conv.Stats()
	var opName string
	var args []wire.Value
	switch kind {
	case arch.TrapALoad:
		opName = arrGetOp
		args = []wire.Value{conv.IntToWire(idx)}
	case arch.TrapAStore:
		opName = arrPutOp
		wv, err := n.wireTempValue(conv, elem, val)
		if err != nil {
			n.fault(f, "marshal element: "+err.Error())
			return
		}
		args = []wire.Value{conv.IntToWire(idx), wv}
	case arch.TrapALen:
		opName = arrSizeOp
	}
	n.chargeConv(conv, prev)
	n.blockCall(f, int32(o.LastKnown), o.OID)
	n.sendMsg(o.LastKnown, &wire.Invoke{
		Target: o.OID, OpName: opName, Origin: int32(n.ID), CallerFrag: f.ID,
		Args: args, Hints: n.collectHints(args),
	})
}

// serveArrayOp answers a remote array access on a resident array; origin
// is the node hosting the blocked caller.
func (n *Node) serveArrayOp(origin int, p *wire.Invoke, o *Obj) {
	conv := n.converterFor(origin)
	prev := conv.Stats()
	fail := func(msg string) {
		n.sendMsg(origin, &wire.Return{Origin: int32(n.ID),
			CallerFrag: p.CallerFrag, Ok: false, FaultMsg: msg})
	}
	idx := uint32(0)
	if len(p.Args) > 0 {
		v, err := conv.IntFromWire(p.Args[0])
		if err != nil {
			fail("bad index: " + err.Error())
			return
		}
		idx = v
	}
	if p.OpName != arrSizeOp && idx >= o.Len {
		fail(fmt.Sprintf("index %d out of bounds (length %d)", int32(idx), o.Len))
		return
	}
	var result wire.Value
	switch p.OpName {
	case arrSizeOp:
		result = conv.IntToWire(o.Len)
	case arrGetOp:
		v, err := n.wireTempValue(conv, o.ElemKind, n.ld32(o.slotAddr(int(idx))))
		if err != nil {
			fail("marshal element: " + err.Error())
			return
		}
		result = v
	case arrPutOp:
		hints := map[oid.OID]int{}
		for _, h := range p.Hints {
			hints[h.OID] = int(h.Node)
		}
		w, err := n.unwireValue(conv, o.ElemKind, p.Args[1], hints, origin)
		if err != nil {
			fail("unmarshal element: " + err.Error())
			return
		}
		n.st32(o.slotAddr(int(idx)), w)
		result = conv.IntToWire(0)
	}
	n.chargeConv(conv, prev)
	n.sendMsg(origin, &wire.Return{
		Origin:     int32(n.ID),
		CallerFrag: p.CallerFrag, Ok: true, Result: result,
		Hints: n.collectHints([]wire.Value{result}),
	})
}

// ---------------------------------------------------------------- helpers

// wireTempValue converts the machine word w of kind k for transmission.
func (n *Node) wireTempValue(conv *wire.Converter, k ir.VK, w uint32) (wire.Value, error) {
	switch k {
	case ir.VKReal:
		return conv.RealToWire(w, n.Spec.Float), nil
	case ir.VKPtr:
		if w == 0 {
			return conv.RefToWire(oid.Nil), nil
		}
		o, err := n.objAt(w)
		if err != nil {
			return wire.Value{}, err
		}
		if o.Kind == ObjString && o.Resident {
			// Immutable strings travel by value (moved by duplication).
			return wire.StringV(append([]byte(nil), n.stringBytes(o)...)), nil
		}
		n.exported[o.OID] = true // a remote node will hold this reference
		return conv.RefToWire(o.OID), nil
	default:
		return conv.IntToWire(w), nil
	}
}

// unwireValue converts a received wire value to a machine word, creating
// proxies (with hints) or materializing strings as needed.
func (n *Node) unwireValue(conv *wire.Converter, k ir.VK, v wire.Value,
	hints map[oid.OID]int, src int) (uint32, error) {
	switch k {
	case ir.VKReal:
		return conv.RealFromWire(v, n.Spec.Float)
	case ir.VKPtr:
		if v.Kind == wire.WString {
			s, err := n.newString(v.Str)
			if err != nil {
				return 0, err
			}
			return s.Addr, nil
		}
		id, err := conv.RefFromWire(v)
		if err != nil {
			return 0, err
		}
		if id == oid.Nil {
			return 0, nil
		}
		hint := src
		if h, ok := hints[id]; ok {
			hint = h
		}
		n.exported[id] = true // the sender knows this OID
		o := n.proxyFor(id, hint)
		return n.ensureAddressable(o)
	default:
		return conv.IntFromWire(v)
	}
}

// hintFor reports where this node believes id lives.
func (n *Node) hintFor(id oid.OID) int {
	if o, ok := n.objects[id]; ok {
		if o.Resident {
			return n.ID
		}
		return o.LastKnown
	}
	return n.ID
}

// collectHints builds location hints for every reference among values.
func (n *Node) collectHints(vals []wire.Value) []wire.LocHint {
	seen := map[oid.OID]bool{}
	var hints []wire.LocHint
	for _, v := range vals {
		if v.Kind == wire.WRef {
			id := v.OID()
			if !seen[id] {
				seen[id] = true
				hints = append(hints, wire.LocHint{OID: id, Node: int32(n.hintFor(id))})
			}
		}
	}
	return hints
}

// chargeConv charges the CPU for conversion calls accumulated since prev.
func (n *Node) chargeConv(conv *wire.Converter, prev wire.Stats) {
	delta := conv.Stats().Calls - prev.Calls
	cycles := float64(delta*uint64(n.cluster.Costs.ConvCallCycles)) * n.Model.ConvFactor()
	n.charge(uint64(cycles))
}
