// Node state: simulated memory, heap allocation, code loading and literal
// interning, the object table, and the cooperative scheduler.

package kernel

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/dir"
	"repro/internal/ir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/vet"
	"repro/internal/wire"
)

// loadedCode is one code object loaded on one node.
type loadedCode struct {
	oc    *codegen.ObjectCode
	ac    *codegen.ArchCode
	funcs []*loadedFunc
}

// loadedFunc is one loaded function: code, templates, bus stops, and the
// node-local descriptor index and literal table.
type loadedFunc struct {
	code    *loadedCode
	fc      *codegen.FuncCode
	idx     int
	desc    uint32 // node-local code descriptor (stored in AR RetDesc words)
	litBase uint32 // address of the literal table (one ref word per string)
	// fz is the fused superinstruction program runSlice dispatches over:
	// fc's own (codegen.FuncCode.Fused: one per compiled function and ISA,
	// whatever nodes and clusters load it) unless the node's spec is a
	// SpecOverride or fc is hand-built, which fuse here, at load; nil
	// forces the legacy byte-at-a-time path (Config.LegacyDispatch, or a
	// hand-built stream that does not predecode).
	fz *arch.Fused
	// plans caches compiled conversion plans per bus stop; see plan.go.
	// Lazily filled on the first conversion (either way) at each stop.
	plans map[uint16]*convPlan
}

func (lf *loadedFunc) name() string { return lf.fc.Name }

// Return-descriptor encoding: the low 31 bits are the caller's code
// descriptor, or descNone when the caller is not a local activation (a
// thread root, a remote caller addressed by the fragment's Link, or a
// bootstrap). The kontFlag bit requests a kernel continuation after the
// frame pops (object-creation chains).
const (
	descNone = 0x7fffffff
	kontFlag = 0x80000000
)

// Node is one simulated workstation.
type Node struct {
	cluster *Cluster
	ID      int
	Model   netsim.MachineModel
	Spec    *arch.Spec
	CPU     netsim.CPU
	Mem     []byte

	heapNext uint32

	objects map[oid.OID]*Obj
	byAddr  map[uint32]*Obj
	table   []*Obj

	frags   map[uint32]*Frag
	fragCtr uint32
	oidCtr  uint32
	runq    []*Frag
	schedOn bool
	// schedPassFn is n.schedPass bound once (a method value allocates each
	// time it is taken, and schedule takes it for every pass).
	schedPassFn func()

	codeByOID map[oid.OID]*loadedCode
	descs     []*loadedFunc
	// fused is the node's reusable fused-dispatch executor: keeping it
	// here (rather than per runSlice call) holds steady-state dispatch at
	// zero allocations. Safe because a node runs one slice at a time.
	fused arch.FusedRunner

	// movedFrags forwards late messages for fragments that migrated away.
	movedFrags map[uint32]int
	// exported pins objects whose OIDs have crossed the network (a remote
	// node may hold references; local GC must not reclaim them).
	exported map[oid.OID]bool
	// freeLists holds reclaimed heap blocks by size, reused LIFO.
	freeLists map[uint32][]freeBlock
	inGC      bool
	// pendingMoves are migrations deferred because an activation was part
	// of an active object-creation chain.
	pendingMoves []pendingMove
	// mv is the reusable working storage of movePlain and installFragment.
	mv moveScratch
	// collect, while non-nil, redirects dispatchMove's sends into a group
	// collector so a whole cohort rides one batched MoveGroup frame (see
	// group.go).
	collect *moveCollector

	// Crash-tolerance state, live only under a chaos plan (Config.Chaos).
	// Up is the fail-stop flag: a crashed node neither runs nor receives.
	Up bool
	// outSeq is the next LData sequence number per destination; unacked
	// holds in-flight reliable frames keyed by linkKey(dst, seq).
	outSeq  map[int]uint32
	unacked map[uint64]*pendingFrame
	// inNext / inBuf implement per-source in-order exactly-once delivery:
	// the next expected sequence number and the out-of-order hold buffer.
	inNext map[int]uint32
	inBuf  map[int]map[uint32][]byte
	// lastHeard / suspects drive heartbeat-based crash suspicion; lastSent
	// (per destination, sized by armChaos) is when this node last put any
	// link frame on the wire, so heartbeats go out on idle links only.
	lastHeard map[int]netsim.Micros
	suspects  map[int]bool
	lastSent  []netsim.Micros
	// seenSpans deduplicates Move deliveries by SpanID so an object is
	// never installed twice; pendingCommits are this node's outbound moves
	// awaiting a MoveAck; abortedSpans tombstones aborted move spans to
	// detect conflicting late acks.
	seenSpans      map[uint32]bool
	pendingCommits map[uint32]*moveTxn
	abortedSpans   map[uint32]bool
	// moveRetryStalled marks a move-retry timer that fired while the node
	// was down; restart re-arms it.
	moveRetryStalled bool
	// lastFrame is the pendingFrame of the most recent sendReliable call,
	// so the move protocol can locate the frame backing a just-sent Move.
	lastFrame *pendingFrame
	// ackBuf is the scratch a link ack is marshalled into (netsim.Send
	// copies the frame, so one buffer serves every ack).
	ackBuf []byte

	// Replicated-directory state, live only when Config.DirReplicas > 0
	// (see dir.go). dirAcc/dirStore are this node's replica roles (acceptor
	// per decree slot, learner record store); dirProps are decrees this
	// node is driving as a move source, keyed by first slot; dirLooks are
	// its outstanding lookup queries keyed by token.
	dirAcc   map[dir.Slot]dir.Acceptor
	dirStore *dir.Store
	dirProps map[dir.Slot]*dirProposal
	dirLooks map[uint32]*dirLookup
	dirTok   uint32
	// dirLeases are read leases granted by shard replicas
	// (Config.DirLeaseMicros > 0), letting repeat lookups of a stable
	// object skip the shard query.
	dirLeases map[oid.OID]dirLease

	// conv holds one converter per regime; converterFor picks the one the
	// cluster's ConvMode assigns to a peer.
	conv [wire.NumRegimes]wire.Converter

	// MarshaledVarSlots counts frame-variable slots this node marshaled
	// onto the wire; CanonicalizedVarSlots counts the subset whose payload
	// was replaced by the canonical zero because the stop's LiveVars mask
	// proved them dead (unless Config.NoSharpen). Plain counters, not obs
	// metrics: they are read by tests and embench, and must not perturb
	// allocation counts or the event stream.
	MarshaledVarSlots     uint64
	CanonicalizedVarSlots uint64

	// sched is this node's scheduling handle: clock and timers routed to
	// the node's own event queue under the parallel engine, and to the
	// shared heap (tagged with the node) under the sequential one. All
	// kernel timer/clock access goes through it so both engines see the
	// same per-node timeline.
	sched netsim.NodeSched
	// msgSeq numbers this node's outbound protocol messages. Per-node
	// (src, seq) pairs stay unique cluster-wide, and a node-local counter
	// is computable without cross-node coordination — the wire encoding is
	// fixed-width, so the numbering scheme does not affect sizes or
	// timings.
	msgSeq uint32
	// inbox is what every received message is decoded into. A payload a
	// handler is given lives there (or, for a directory message this node
	// sent itself, on its sender's stack) and is valid until the handler
	// returns: a handler that keeps one copies it first (DESIGN.md §11).
	inbox wire.Inbox
	// out and faultLog shard printed lines and runtime faults per node
	// during a parallel run; Cluster.mergeShards folds them into
	// Cluster.Output/Faults in canonical order after the run. Sequential
	// runs append to the cluster slices directly.
	out      []OutputLine
	faultLog []Fault

	// labels is this node's metric label string ("node=0,arch=sparc"),
	// built once: every per-node metric update reuses it.
	labels string

	// Stats.
	MsgsSent, MsgsRecv uint64
	Instrs             uint64
	Migrations         uint64
	// ProtoConvCalls counts the network-format layer's per-byte conversion
	// procedure calls (§3.6) made by this node.
	ProtoConvCalls uint64
}

func newNode(c *Cluster, id int, m netsim.MachineModel) *Node {
	spec := arch.SpecOf(arch.ID(m.Arch))
	if c.SpecOverride != nil {
		spec = c.SpecOverride(arch.ID(m.Arch))
	}
	n := &Node{
		cluster:    c,
		ID:         id,
		Model:      m,
		Spec:       spec,
		CPU:        netsim.CPU{MHz: m.MHz},
		Mem:        make([]byte, min(memStart, c.MemBytes)),
		heapNext:   64, // address 0 is nil; low words reserved
		objects:    map[oid.OID]*Obj{},
		byAddr:     map[uint32]*Obj{},
		frags:      map[uint32]*Frag{},
		codeByOID:  map[oid.OID]*loadedCode{},
		movedFrags: map[uint32]int{},
		exported:   map[oid.OID]bool{},
		freeLists:  map[uint32][]freeBlock{},
		labels:     obs.NodeLabels(id, spec.ID.String()),

		Up:             true,
		outSeq:         map[int]uint32{},
		unacked:        map[uint64]*pendingFrame{},
		inNext:         map[int]uint32{},
		inBuf:          map[int]map[uint32][]byte{},
		lastHeard:      map[int]netsim.Micros{},
		suspects:       map[int]bool{},
		seenSpans:      map[uint32]bool{},
		pendingCommits: map[uint32]*moveTxn{},
		abortedSpans:   map[uint32]bool{},

		dirAcc:    map[dir.Slot]dir.Acceptor{},
		dirStore:  dir.NewStore(),
		dirProps:  map[dir.Slot]*dirProposal{},
		dirLooks:  map[uint32]*dirLookup{},
		dirLeases: map[oid.OID]dirLease{},
	}
	for r := range n.conv {
		n.conv[r] = wire.NewConverter(wire.Regime(r))
	}
	n.sched = c.Sim.NodeSched(id)
	n.schedPassFn = n.schedPass
	return n
}

// chaosOn reports whether the crash-tolerant protocol is armed.
func (n *Node) chaosOn() bool { return n.cluster.Chaos != nil }

// now returns this node's current simulated time.
func (n *Node) now() netsim.Micros { return n.sched.Now() }

// nextSeq mints a protocol sequence number for this node's messages.
func (n *Node) nextSeq() uint32 {
	n.msgSeq++
	return n.msgSeq
}

// charge accounts CPU cycles.
func (n *Node) charge(cycles uint64) { n.CPU.Charge(n.now(), cycles) }

// ---------------------------------------------------------------- memory

// Mem is as long as the heap's high-water mark has needed; MemBytes is its
// cap. It starts at memStart (two default stack regions) and alloc's bump
// path doubles it when heapNext would pass its end. Growth replaces the
// backing array, so no slice of Mem may outlive the kernel call that took
// it: keep the address and re-slice n.Mem after anything that can allocate
// (stringBytes' callers copy; runSlice passes n.Mem afresh for every slice
// and handles the trap after Run returned). A full-size memory holds only
// zeros above len(Mem); an emulated access there faults as one above MemBytes.
const memStart = 128 << 10

// freeBlock is one reclaimed block: its address and how many of its bytes
// may be nonzero. The invariant — a free block is all-zero at and above
// addr+dirty — is what lets alloc clear dirty bytes instead of the block's
// whole size. A collector-freed heap object is dirty throughout; a retired
// 64 KB stack region only up to the highest activation record ever placed
// in it (Frag.stackHi), usually a few hundred bytes. Tests check the
// invariant (Cluster.CheckStacks); nothing checks it at run time.
type freeBlock struct{ addr, dirty uint32 }

// alloc carves size bytes (word aligned) of zeroed memory from the heap,
// reusing reclaimed blocks and falling back to a garbage collection before
// giving up. Reuse is LIFO within a size class: allocation addresses, and
// so node memory images, are part of the determinism contract.
func (n *Node) alloc(size uint32) (uint32, error) {
	size = (size + 3) &^ 3
	if blocks := n.freeLists[size]; len(blocks) > 0 {
		b := blocks[len(blocks)-1]
		n.freeLists[size] = blocks[:len(blocks)-1]
		clear(n.Mem[b.addr : b.addr+b.dirty])
		return b.addr, nil
	}
	end := int(n.heapNext) + int(size)
	if end > n.cluster.MemBytes {
		if !n.inGC {
			n.inGC = true
			_, err := n.Collect()
			n.inGC = false
			if err == nil {
				if blocks := n.freeLists[size]; len(blocks) > 0 {
					return n.alloc(size)
				}
			}
		}
		return 0, fmt.Errorf("node %d: out of memory (%d bytes requested)", n.ID, size)
	}
	if end > len(n.Mem) {
		mem := make([]byte, min(max(end, 2*len(n.Mem)), n.cluster.MemBytes))
		copy(mem, n.Mem)
		n.Mem = mem
	}
	a := n.heapNext
	n.heapNext += size
	clear(n.Mem[a : a+size])
	return a, nil
}

// allocStack carves a zeroed stack region for a new fragment.
func (n *Node) allocStack() (base, limit uint32) {
	base, err := n.alloc(stackSize)
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
	return base, base + stackSize
}

// CheckStacks verifies the extent invariant on every node, for tests: each
// free block is zero from its dirty extent to its end, and each live
// fragment's records end at or below stackHi with zeros from there to the
// region's limit.
func (c *Cluster) CheckStacks() error {
	for _, n := range c.Nodes {
		zero := func(what string, lo, hi uint32) error {
			for a := lo; a < hi; a++ {
				if n.Mem[a] != 0 {
					return fmt.Errorf("node %d: %s: nonzero byte at %#x, above its extent %#x", n.ID, what, a, lo)
				}
			}
			return nil
		}
		for size, blocks := range n.freeLists {
			for _, b := range blocks {
				if err := zero("free block", b.addr+b.dirty, b.addr+size); err != nil {
					return err
				}
			}
		}
		for _, f := range n.frags {
			if top := n.frameTop(f); top > f.stackHi {
				return fmt.Errorf("node %d: frag %d: frame top %#x above stackHi %#x", n.ID, f.ID, top, f.stackHi)
			}
			if err := zero(fmt.Sprintf("frag %d stack", f.ID), f.stackHi, f.stackLimit); err != nil {
				return err
			}
		}
	}
	return nil
}

// ld32 / st32 access node memory in the node's byte order.
func (n *Node) ld32(addr uint32) uint32 {
	return n.Spec.ByteOrd.Uint32(n.Mem[addr : addr+4])
}

func (n *Node) st32(addr, v uint32) {
	n.Spec.ByteOrd.PutUint32(n.Mem[addr:addr+4], v)
}

// ---------------------------------------------------------------- OIDs

func (n *Node) newOID() oid.OID {
	n.oidCtr++
	return oid.ForRuntime(n.ID, n.oidCtr)
}

// register enters an object into the table and writes its header word.
func (n *Node) register(o *Obj) {
	o.TableIdx = uint32(len(n.table))
	n.table = append(n.table, o)
	n.objects[o.OID] = o
	if o.Resident {
		n.byAddr[o.Addr] = o
		n.st32(o.Addr, o.TableIdx)
	}
}

// objAt resolves a local data address to its object.
func (n *Node) objAt(addr uint32) (*Obj, error) {
	if o, ok := n.byAddr[addr]; ok {
		return o, nil
	}
	return nil, fmt.Errorf("node %d: address %#x is not an object", n.ID, addr)
}

// proxyFor returns the local entry for an OID, creating a proxy with the
// given location hint when the object is unknown here. Existing entries
// keep their own (epoch-stamped) knowledge: hints carry no epoch and must
// not regress it.
func (n *Node) proxyFor(id oid.OID, hint int) *Obj {
	if o, ok := n.objects[id]; ok {
		return o
	}
	o := &Obj{OID: id, Resident: false, LastKnown: hint}
	n.register(o)
	return o
}

// refToAddr returns the machine word for a reference to o (its local data
// address; proxies have no address, so resident objects only — callers use
// ensureAddressable for proxies).
func (n *Node) ensureAddressable(o *Obj) (uint32, error) {
	if o.Resident {
		return o.Addr, nil
	}
	// Proxies are addressable too: they get a one-word data area whose
	// header points at the table entry, so machine code can hold and pass
	// the reference; any operation on it traps to the kernel, which sees
	// the proxy and goes remote.
	a, err := n.alloc(arch.HeaderBytes)
	if err != nil {
		return 0, err
	}
	o.Addr = a
	n.byAddr[a] = o
	n.st32(a, o.TableIdx)
	return a, nil
}

// ---------------------------------------------------------------- code

// loadCode ensures the code object is loaded locally (the NFS fetch),
// charging the fetch latency on cold loads.
func (n *Node) loadCode(code oid.OID) (*loadedCode, error) {
	if lc, ok := n.codeByOID[code]; ok {
		return lc, nil
	}
	oc, ac, lat, err := n.cluster.CodeSrv.Fetch(code, n.Spec.ID)
	if err != nil {
		return nil, err
	}
	if n.cluster.VetOnLoad {
		if verr := vet.VetForLoad(n.cluster.Prog, oc, n.Spec); verr != nil {
			return nil, fmt.Errorf("node %d: refusing to load %s: %w", n.ID, oc.Name, verr)
		}
	}
	n.CPU.FreeAt += lat // NFS round trip stalls the node
	lc := &loadedCode{oc: oc, ac: ac}
	for i, fc := range ac.Funcs {
		lf := &loadedFunc{code: lc, fc: fc, idx: i, desc: uint32(len(n.descs))}
		switch pd, plan := fc.Decoded, fc.Runs; {
		case n.cluster.LegacyDispatch: // fz stays nil: runSlice takes the reference path
		case pd != nil && n.Spec == arch.SpecOf(ac.Arch):
			lf.fz = fc.Fused(n.Spec) // the function's own, shared by every node of this ISA
		default:
			// A SpecOverride spec (other cycle charges baked in) and a
			// hand-built FuncCode (tests, analyzers) fuse privately. The
			// latter is predecoded here: a stream that does not decode
			// end-to-end leaves fz nil and runs on the legacy path, which
			// reports the bad instruction if execution ever reaches it.
			if pd == nil {
				pd, _ = arch.Predecode(n.Spec, fc.Code)
			}
			if pd != nil && plan == nil {
				plan = arch.PlanFusion(pd)
			}
			lf.fz = arch.Fuse(n.Spec, pd, plan)
		}
		// Literal table: one word per string-pool entry, holding a
		// reference to the interned string object.
		base, err := n.alloc(uint32(4 * max(1, len(fc.Strings))))
		if err != nil {
			return nil, err
		}
		lf.litBase = base
		for si, s := range fc.Strings {
			sobj, err := n.newString([]byte(s))
			if err != nil {
				return nil, err
			}
			n.st32(base+uint32(4*si), sobj.Addr)
		}
		n.descs = append(n.descs, lf)
		lc.funcs = append(lc.funcs, lf)
	}
	n.codeByOID[code] = lc
	return lc, nil
}

func (n *Node) funcByDesc(desc uint32) (*loadedFunc, error) {
	if int(desc) >= len(n.descs) {
		return nil, fmt.Errorf("node %d: bad code descriptor %d", n.ID, desc)
	}
	return n.descs[desc], nil
}

// ---------------------------------------------------------------- heap objects

// newString allocates an immutable string object.
func (n *Node) newString(b []byte) (*Obj, error) {
	a, err := n.alloc(arch.ArrDataOff + uint32(len(b)))
	if err != nil {
		return nil, err
	}
	n.st32(a+arch.LenOff, uint32(len(b)))
	copy(n.Mem[a+arch.ArrDataOff:], b)
	o := &Obj{OID: n.newOID(), Kind: ObjString, Resident: true, Addr: a, Len: uint32(len(b))}
	n.register(o)
	return o, nil
}

// stringBytes reads a resident string object's bytes (a view of Mem).
func (n *Node) stringBytes(o *Obj) []byte {
	return n.Mem[o.Addr+arch.ArrDataOff : o.Addr+arch.ArrDataOff+o.Len]
}

// newArray allocates an array object.
func (n *Node) newArray(elem ir.VK, length uint32) (*Obj, error) {
	if length > 1<<20 {
		return nil, fmt.Errorf("node %d: array length %d too large", n.ID, length)
	}
	a, err := n.alloc(arch.ArrDataOff + 4*length)
	if err != nil {
		return nil, err
	}
	n.st32(a+arch.LenOff, length)
	o := &Obj{OID: n.newOID(), Kind: ObjArray, Resident: true, Addr: a,
		ElemKind: elem, Len: length}
	n.register(o)
	return o, nil
}

// newPlain allocates a plain object instance of lc with zeroed slots.
func (n *Node) newPlain(lc *loadedCode) (*Obj, error) {
	tmpl := lc.oc.Template
	a, err := n.alloc(arch.ObjDataOff + uint32(tmpl.DataSize()))
	if err != nil {
		return nil, err
	}
	o := &Obj{OID: n.newOID(), Kind: ObjPlain, Resident: true, Addr: a, Code: lc,
		Mon: newMonitor(tmpl.NumConds)}
	n.register(o)
	return o, nil
}

// numSlots is the number of data words a resident object's layout
// describes: a plain object's template slots, an array's elements, and none
// for a string (its bytes are not words).
func (o *Obj) numSlots() int {
	switch o.Kind {
	case ObjPlain:
		return len(o.Code.oc.Template.Slots)
	case ObjArray:
		return int(o.Len)
	}
	return 0
}

// slotKind is the kind of data slot i (see numSlots).
func (o *Obj) slotKind(i int) ir.VK {
	if o.Kind == ObjArray {
		return o.ElemKind
	}
	return o.Code.oc.Template.Slots[i]
}

// slotAddr returns the address of data slot i of a plain object or array
// element i.
func (o *Obj) slotAddr(i int) uint32 {
	if o.Kind == ObjPlain {
		return o.Addr + arch.ObjDataOff + uint32(4*i)
	}
	return o.Addr + arch.ArrDataOff + uint32(4*i)
}

// ---------------------------------------------------------------- bootstrap

// bootstrap creates the root instance of the named object (which has a
// process section) on this node.
func (n *Node) bootstrap(objName string) {
	oc := n.cluster.Prog.Object(objName)
	f := n.newFrag()
	f.Status = FragStateReady
	n.createObject(f, oc.CodeOID, nil, func(obj *Obj) {
		// The bootstrap fragment's work is done; it has no frames left and
		// dies when the creation chain completes.
		n.killFrag(f)
	})
	n.schedule()
}

// ---------------------------------------------------------------- scheduler

// enqueue makes a fragment runnable.
func (n *Node) enqueue(f *Frag) {
	f.Status = FragStateReady
	f.waitNode = -1
	if f.queued {
		return
	}
	f.queued = true
	n.runq = append(n.runq, f)
	n.cluster.Rec.Metrics().Observe("runq_depth", n.labels, uint64(len(n.runq)))
	n.schedule()
}

// schedule arranges a scheduler pass if work is pending.
func (n *Node) schedule() {
	if n.schedOn || len(n.runq) == 0 || !n.Up {
		return
	}
	n.schedOn = true
	delay := n.CPU.FreeAt - n.now()
	n.sched.At(delay, n.schedPassFn)
}

// every runs tick each period on n's timeline for the rest of the run, as
// weak events — background ticks (heartbeats, the directory compactor)
// never keep a finished simulation alive — re-arming before each run with
// the one func bound here.
func (n *Node) every(period netsim.Micros, tick func()) {
	var fire func()
	fire = func() {
		n.sched.AtWeak(period, fire)
		tick()
	}
	n.cluster.Sim.AtNodeWeak(n.ID, period, fire)
}

// schedPass runs one scheduling slice.
func (n *Node) schedPass() {
	n.schedOn = false
	if len(n.runq) == 0 || !n.Up {
		return
	}
	// Pop by copying down: re-slicing from the head would shed capacity
	// (append then re-grows the queue for ever) and pin the popped *Frag.
	f := n.runq[0]
	last := len(n.runq) - 1
	copy(n.runq, n.runq[1:])
	n.runq[last] = nil
	n.runq = n.runq[:last]
	f.queued = false
	if f.Status != FragStateReady {
		// Killed or blocked while queued.
		n.schedule()
		return
	}
	n.runSlice(f)
	n.schedule()
}

// runSlice executes f until it traps into the kernel, handling atomic
// monitor exits inline: an expired slice makes the next poll yield, so a
// thread leaves the CPU only at a bus stop.
func (n *Node) runSlice(f *Frag) {
	f.Status = FragStateRunning
	for {
		f.CPU.Preempt = len(n.runq) > 0
		var (
			tr     *arch.Trap
			cycles uint64
			instrs int
			err    error
		)
		if fz := f.fn.fz; fz != nil {
			tr, cycles, instrs, err = n.fused.Run(n.Spec, fz, &f.CPU, n.Mem, n.cluster.SliceInstrs)
		} else {
			tr, cycles, instrs, err = arch.RunLegacy(n.Spec, &f.CPU, f.fn.fc.Code, n.Mem, n.cluster.SliceInstrs)
		}
		n.charge(cycles)
		n.Instrs += uint64(instrs)
		if err != nil {
			// Simulator-internal failure: record and kill the thread.
			n.fault(f, fmt.Sprintf("internal: %v", err))
			return
		}
		if !n.handleTrap(f, tr) {
			return
		}
	}
}

// print records one print statement's output line.
func (n *Node) print(text string) {
	line := OutputLine{Node: n.ID, At: n.now(), Text: text}
	if n.cluster.sharded {
		n.out = append(n.out, line)
	} else {
		n.cluster.Output = append(n.cluster.Output, line)
	}
}

// fault kills a thread with a runtime error, releasing any held monitor.
func (n *Node) fault(f *Frag, msg string) { n.faultErr(f, nil, msg) }

// faultErr is fault with a typed cause (e.g. ErrNodeDown).
func (n *Node) faultErr(f *Frag, cause error, msg string) {
	rec := Fault{Node: n.ID, At: n.now(), Frag: f.ID, Msg: msg, Err: cause}
	if n.cluster.sharded {
		n.faultLog = append(n.faultLog, rec)
	} else {
		n.cluster.Faults = append(n.cluster.Faults, rec)
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvFault,
		Frag: f.ID, Str: msg})
	n.cluster.Rec.Metrics().Add("faults", n.labels, 1)
	// Propagate to a remote caller if one is waiting.
	if f.Link.Node >= 0 {
		n.sendMsg(int(f.Link.Node), &wire.Return{
			Origin: int32(n.ID), CallerFrag: f.Link.Frag, Ok: false, FaultMsg: msg,
		})
	}
	n.releaseMonitorsOf(f)
	n.killFrag(f)
}

// killFrag removes a fragment — dead, or migrated away — and reclaims its
// stack region, dirty up to stackHi (each live fragment owns exactly one
// region; split remainders are relocated into fresh regions by
// adoptRemainder).
func (n *Node) killFrag(f *Frag) {
	f.Status = FragStateDead
	delete(n.frags, f.ID)
	n.free(f.stackBase, stackSize, f.stackHi-f.stackBase)
}

// releaseMonitorsOf force-releases any monitor held by f (fault cleanup),
// in object-table order: the order waiters wake in is part of the run.
func (n *Node) releaseMonitorsOf(f *Frag) {
	for _, o := range n.table {
		if o != nil && o.Mon != nil && o.Mon.Holder == f {
			n.monRelease(o)
		}
	}
}

// ---------------------------------------------------------------- messaging

// protoConvCharge accounts the enhanced system's network-format conversion
// layer: 1-2 conversion-procedure calls per payload byte at each end of a
// converting transfer (§3.6), at the density convRegimes gives for peer.
func (n *Node) protoConvCharge(peer int, bytes int) {
	halves := n.regimeFor(peer).protoHalves
	if halves == 0 {
		return
	}
	density := uint64(n.cluster.Costs.ConvCallsPerKB) * halves / 2
	calls := uint64(bytes) * density / 1024
	n.ProtoConvCalls += calls
	cycles := float64(calls*uint64(n.cluster.Costs.ConvCallCycles)) * n.Model.ConvFactor()
	n.charge(uint64(cycles))
}

// msgLabels[k] is the metric label of message kind k, and pairLabels[s][d]
// that of a move from ISA s to ISA d: built once, so the per-message and
// per-move metric updates format nothing.
var (
	msgLabels = func() (t [256]string) {
		for k := range t {
			t[k] = "msg=" + wire.MsgKind(k).String()
		}
		return
	}()
	pairLabels = func() (t [arch.NumArch][arch.NumArch]string) {
		for s := range t {
			for d := range t[s] {
				t[s][d] = fmt.Sprintf("src=%s,dst=%s", arch.ID(s), arch.ID(d))
			}
		}
		return
	}()
)

// sendMsg serializes and transmits a protocol message, charging the sender.
// It returns the serialized size and the instant the sender CPU finished
// marshalling (transmission start; migration spans record both).
func (n *Node) sendMsg(dst int, p wire.Payload) (int, netsim.Micros) {
	return n.sendMsgAck(dst, p, nil)
}

// sendMsgAck is sendMsg with a link-level delivery hook: under a chaos plan
// the message travels as a reliable LData frame and onAck fires when the
// destination link-acknowledges it. Chaos-off, onAck is ignored (delivery
// is certain) and the bytes on the wire are exactly the legacy format.
func (n *Node) sendMsgAck(dst int, p wire.Payload, onAck func()) (int, netsim.Micros) {
	m := wire.Msg{Src: int32(n.ID), Dst: int32(dst), Seq: n.nextSeq(), Payload: p}
	k := wire.KindOf(p)
	// Marshal into a pooled scratch buffer: netsim.Send copies the payload
	// into its own delivery buffer and the chaos link layer copies it into
	// the retransmission frame, so the scratch can be released as soon as
	// the send call returns.
	e := wire.GetEnc(256)
	buf := m.MarshalTo(e)
	size := len(buf)
	n.charge(uint64(n.cluster.Costs.SendCycles) +
		uint64(n.cluster.Costs.PerByteCycles)*uint64(size))
	n.protoConvCharge(dst, size)
	n.MsgsSent++
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvWireSend,
		A: uint64(size), B: uint64(dst), Str: k.String()})
	n.cluster.Rec.Metrics().Add("msg_bytes", msgLabels[k], uint64(size))
	n.cluster.Rec.Metrics().Add("msgs", msgLabels[k], 1)
	// Transmission starts once the CPU has finished marshalling.
	if n.chaosOn() {
		n.sendReliable(dst, buf, k.String(), onAck)
	} else if err := n.cluster.Net.Send(n.ID, dst, buf, n.CPU.FreeAt); err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
	e.Release()
	return size, n.CPU.FreeAt
}

// netSend puts one raw frame on the medium (chaos paths; no protocol
// charges — callers account their own link-level costs).
func (n *Node) netSend(dst int, frame []byte) {
	n.lastSent[dst] = n.now()
	if err := n.cluster.Net.Send(n.ID, dst, frame, n.CPU.FreeAt); err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
}

// deliver is the network receive handler. Chaos-off it is the legacy direct
// path; under a chaos plan it first runs the link layer: CRC check,
// acknowledgment, per-source deduplication and in-order release.
func (n *Node) deliver(src int, buf []byte) {
	if !n.chaosOn() {
		n.deliverInner(src, buf)
		return
	}
	if !n.Up {
		return // netsim drops frames to down nodes; belt and braces
	}
	lf, err := wire.ParseLinkFrame(buf)
	if err != nil {
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvLinkDrop,
			B: uint64(src), Str: "crc"})
		n.cluster.Rec.Metrics().Add("link_drops", "reason=crc", 1)
		return // retransmission recovers
	}
	n.heard(src)
	n.charge(uint64(n.cluster.Costs.SyscallCycles))
	switch lf.Kind {
	case wire.LRaw: // heartbeat: liveness signal only
		return
	case wire.LAck:
		n.recvAck(src, lf.Seq)
		return
	}
	// LData: always acknowledge (acks are idempotent), then release in order.
	n.sendLinkAck(src, lf.Seq)
	next := n.inNext[src]
	if next == 0 {
		next = 1
	}
	if lf.Seq < next {
		n.cluster.Rec.Metrics().Add("link_drops", "reason=dup", 1)
		return // duplicate of an already-delivered frame
	}
	if lf.Seq > next {
		// Out of order: hold until the gap fills.
		if n.inBuf[src] == nil {
			n.inBuf[src] = map[uint32][]byte{}
		}
		if _, held := n.inBuf[src][lf.Seq]; !held {
			n.inBuf[src][lf.Seq] = append([]byte(nil), lf.Inner...)
		}
		n.inNext[src] = next
		return
	}
	n.deliverInner(src, lf.Inner)
	next++
	for {
		held, ok := n.inBuf[src][next]
		if !ok {
			break
		}
		delete(n.inBuf[src], next)
		n.deliverInner(src, held)
		next++
	}
	n.inNext[src] = next
}

// deliverInner processes one protocol message (post link layer under chaos),
// decoded into the node's inbox: nothing of it outlives the handler.
func (n *Node) deliverInner(src int, buf []byte) {
	n.charge(uint64(n.cluster.Costs.RecvCycles) +
		uint64(n.cluster.Costs.PerByteCycles)*uint64(len(buf)))
	n.protoConvCharge(src, len(buf))
	n.MsgsRecv++
	m, err := n.inbox.Decode(buf)
	if err != nil {
		panic(fmt.Sprintf("kernel: node %d: bad message from %d: %v", n.ID, src, err))
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID), Kind: obs.EvWireRecv,
		A: uint64(len(buf)), B: uint64(src), Str: wire.KindOf(m.Payload).String()})
	if mv, ok := m.Payload.(*wire.Move); ok {
		n.cluster.Rec.SpanArrived(mv.SpanID, int64(n.now()))
	} else if mg, ok := m.Payload.(*wire.MoveGroup); ok {
		for _, im := range mg.Inner {
			n.cluster.Rec.SpanArrived(im.SpanID, int64(n.now()))
		}
	}
	n.handleMsg(int(m.Src), m.Payload)
}
