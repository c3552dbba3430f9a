// Kernel invariants, stated once. setStatus is the only writer of
// Frag.Status and admits only the transitions fragNext lists; Cluster.Run
// applies CheckInvariants to every run the engine finishes. A broken
// invariant is a *Violation, the kernel's one failure path: the node that
// detects it mid-run unwinds the event with it (violate), and Run returns
// it (DESIGN.md §10, "Kernel invariants").

package kernel

import (
	"bytes"
	"cmp"
	"fmt"

	"repro/internal/dir"
	"repro/internal/netsim"
	"repro/internal/oid"
)

// Violation is a broken kernel invariant: the node and instant it was
// detected at, the object and fragment it concerns (zero when none), which
// invariant, and what was seen.
type Violation struct {
	Node      int
	At        netsim.Micros
	OID       oid.OID
	Frag      uint32
	Invariant string
	Detail    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("kernel: node %d at %dµs: %s invariant violated (oid %v, frag %08x): %s",
		v.Node, v.At, v.Invariant, v.OID, v.Frag, v.Detail)
}

// The invariants a Violation names.
const (
	invTransition = "transition"  // a fragment-state change fragNext does not list
	invMigration  = "migration"   // a move's state could not be walked, marshalled or installed
	invMemory     = "memory"      // no memory for a stack region or an installed object
	invWire       = "wire"        // a delivered message does not decode
	invStack      = "stack"       // a stack region or free block is dirty above its extent
	invResidency  = "residency"   // a mutable object is resident on more or fewer than one node
	invDirectory  = "directory"   // a learned record disagrees with residency at its epoch
	invHome       = "home"        // two homes for one (oid, epoch)
	invQuiescence = "quiescence"  // a fragment on an up node is still runnable or held by a move
	invLostThread = "lost-thread" // a blocked-call fragment nothing will return to
)

// violation builds a Violation detected on n now.
func (n *Node) violation(inv string, o oid.OID, frag uint32, format string, args ...any) *Violation {
	return &Violation{Node: n.ID, At: n.now(), OID: o, Frag: frag, Invariant: inv,
		Detail: fmt.Sprintf(format, args...)}
}

// violate unwinds the current event with a violation; Cluster.Run
// recovers it and returns it.
func (n *Node) violate(inv string, o oid.OID, frag uint32, format string, args ...any) {
	panic(n.violation(inv, o, frag, format, args...))
}

// fragNext[s] holds bit t when a fragment in state s may move to state t.
// The rows are the transitions the kernel makes, measured over the kernel,
// core and exp tests. A same-state write is a no-op and needs no bit.
var fragNext = [...]uint8{
	FragStateReady: 1<<FragStateRunning | 1<<FragStateBlockedCall | 1<<FragStateBlockedEntry |
		1<<FragStateWaitCond | 1<<FragStateDead,
	FragStateRunning: 1<<FragStateReady | 1<<FragStateBlockedCall | 1<<FragStateBlockedEntry |
		1<<FragStateWaitCond | 1<<FragStateDead,
	FragStateBlockedCall:  1<<FragStateReady | 1<<FragStateDead,
	FragStateBlockedEntry: 1<<FragStateReady | 1<<FragStateDead,
	FragStateWaitCond:     1<<FragStateBlockedEntry | 1<<FragStateDead,
	FragStateDead:         0,
}

// setStatus moves f to state to: the one writer of Frag.Status.
func (n *Node) setStatus(f *Frag, to FragState) {
	if from := f.Status; from != to && fragNext[from]&(1<<to) == 0 {
		n.violate(invTransition, 0, f.ID, "fragment %s -> %s", from, to)
	}
	f.Status = to
}

// blockCall blocks f awaiting a Return about object obj from node from
// (-1, with no object: a parked operation or a directory query, which no
// crash suspicion fails).
func (n *Node) blockCall(f *Frag, from int32, obj oid.OID) {
	n.setStatus(f, FragStateBlockedCall)
	f.waitNode, f.waitObj = from, obj
}

// CheckInvariants checks the clauses that must hold once a run has
// quiesced — stack extents, residency, the directory's records and homes,
// quiescence and lost threads — and returns the first *Violation, by node,
// clause, then table order or least address or id, or nil. It allocates
// nothing when they hold.
func (c *Cluster) CheckInvariants() error {
	for _, n := range c.Nodes {
		if v := cmp.Or(n.checkExtents(), c.checkResidency(n), c.checkDirectory(n), c.checkFrags(n)); v != nil {
			return v
		}
	}
	return nil
}

// least keeps, of the violations one clause finds, the one with the least
// key: map order must not choose what a rerun reports.
type least struct {
	v   *Violation
	key uint64
}

// better reports whether key beats the kept violation's, and takes it.
func (l *least) better(key uint64) bool {
	if l.v != nil && key >= l.key {
		return false
	}
	l.key = key
	return true
}

// zeroPage is what zeroed compares memory with, a page at a time.
var zeroPage [4096]byte

// zeroed reports whether n.Mem is zero in [lo, hi).
func (n *Node) zeroed(lo, hi uint32) bool {
	for ; lo < hi; lo += uint32(len(zeroPage)) {
		if b := n.Mem[lo:min(hi, lo+uint32(len(zeroPage)))]; !bytes.Equal(b, zeroPage[:len(b)]) {
			return false
		}
	}
	return true
}

// checkExtents checks freeBlock's invariant — a free block is zero from its
// dirty extent to its end — and each live fragment's: its records end at or
// below stackHi, and its region is zero from there to stackLimit.
func (n *Node) checkExtents() *Violation {
	var l least
	for size, blocks := range n.freeLists {
		for _, b := range blocks {
			if !n.zeroed(b.addr+b.dirty, b.addr+size) && l.better(uint64(b.addr)) {
				l.v = n.violation(invStack, 0, 0, "free block %#x is dirty above its extent %#x", b.addr, b.addr+b.dirty)
			}
		}
	}
	for _, f := range n.frags {
		if (n.frameTop(f) > f.stackHi || !n.zeroed(f.stackHi, f.stackLimit)) && l.better(uint64(f.ID)) {
			l.v = n.violation(invStack, 0, f.ID, "records end at %#x, and the region is dirty or they pass stackHi %#x",
				n.frameTop(f), f.stackHi)
		}
	}
	return l.v
}

// checkResidency checks, in table order, the objects n knows, bar strings,
// immutable copies and objects n is moving: a proxy's object is resident on
// some node, and a resident one on no later node (unless a move of it is in
// transit there).
func (c *Cluster) checkResidency(n *Node) *Violation {
	for _, o := range n.table {
		switch {
		case o == nil || o.transit != nil || o.Kind == ObjString:
		case !o.Resident:
			if c.residentAt(o.OID, 0, false) < 0 {
				return n.violation(invResidency, o.OID, 0, "proxy of an object resident nowhere")
			}
		case o.Code != nil && o.Code.oc.Template.Immutable:
		default:
			if m := c.residentAt(o.OID, n.ID+1, true); m >= 0 {
				return n.violation(invResidency, o.OID, 0, "also resident on node %d", m)
			}
		}
	}
	return nil
}

// residentAt returns the first node from node from on that holds a
// resident copy of id — settled: one no move is in transit from — or -1.
func (c *Cluster) residentAt(id oid.OID, from int, settled bool) int {
	for _, m := range c.Nodes[from:] {
		if o := m.objects[id]; o != nil && o.Resident && !(settled && o.transit != nil) {
			return m.ID
		}
	}
	return -1
}

// checkDirectory checks n's replica roles: a learned record at its object's
// current epoch names the node the object is resident on, and no acceptor
// or learner disagrees with one here about the home of an (oid, epoch).
func (c *Cluster) checkDirectory(n *Node) *Violation {
	var l least
	n.dirStore.Each(func(id oid.OID, r dir.Record) {
		at := c.residentAt(id, 0, true)
		if at >= 0 && c.Nodes[at].objects[id].Epoch == r.Epoch && int(r.Node) != at && l.better(uint64(id)) {
			l.v = n.violation(invDirectory, id, 0, "epoch %d is recorded at node %d, resident on node %d", r.Epoch, r.Node, at)
		}
		if m := c.homeConflict(dir.Slot{OID: id, Epoch: r.Epoch}, r.Node, n.ID+1); m >= 0 && l.better(uint64(id)) {
			l.v = n.violation(invHome, id, 0, "epoch %d learned as node %d here, as another on node %d", r.Epoch, r.Node, m)
		}
	})
	for s, a := range n.dirAcc {
		if m := c.homeConflict(s, a.AccNode, 0); a.AccBal > 0 && m >= 0 && l.better(uint64(s.OID)) {
			l.v = n.violation(invHome, s.OID, 0, "epoch %d accepted as node %d here, as another on node %d", s.Epoch, a.AccNode, m)
		}
	}
	return l.v
}

// homeConflict returns the first node from node from on whose acceptor or
// learner holds a home for slot s other than home, or -1.
func (c *Cluster) homeConflict(s dir.Slot, home int32, from int) int {
	for _, m := range c.Nodes[from:] {
		a := m.dirAcc[s]
		r, ok := m.dirStore.Lookup(s.OID)
		if (a.AccBal > 0 && a.AccNode != home) || (ok && r.Epoch == s.Epoch && r.Node != home) {
			return m.ID
		}
	}
	return -1
}

// checkFrags checks an up node's fragments at quiescence: none is runnable
// or held by a move, and some fragment's Link names each blocked-call one (the
// piece a Return will come back to it from) from a node that is up or that
// n does not suspect. A call whose returning pieces all sit on nodes that
// n suspects down waits on a Return that no suspicion will fail.
func (c *Cluster) checkFrags(n *Node) *Violation {
	var l least
	for _, f := range n.frags {
		switch s := f.Status; {
		case !n.Up:
		case (s == FragStateReady || s == FragStateRunning || f.held) && l.better(uint64(f.ID)):
			l.v = n.violation(invQuiescence, 0, f.ID, "%s (held %t) at quiescence in %s", s, f.held, f.topName())
		case s == FragStateBlockedCall && !c.linked(n, f.ID) && l.better(uint64(f.ID)):
			l.v = n.violation(invLostThread, 0, f.ID, "blocked-call in %s, and no fragment on a live node returns to it", f.topName())
		}
	}
	return l.v
}

// linked reports whether some fragment's Link names fragment id, on a node
// that is up or that n does not suspect.
func (c *Cluster) linked(n *Node, id uint32) bool {
	for _, m := range c.Nodes {
		if !m.Up && n.link.Suspected(m.ID) {
			continue
		}
		for _, g := range m.frags {
			if g.Link.Node >= 0 && g.Link.Frag == id {
				return true
			}
		}
	}
	return false
}
