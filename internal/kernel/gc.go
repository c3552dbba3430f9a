// Per-node mark-and-sweep garbage collection.
//
// The paper notes that the bus-stop technique is "also used to provide the
// garbage collector with well-defined states for easy pointer
// identification" (§2.2.1, citing [JJ92, Juu93]): because threads are only
// ever observable at bus stops, the compiler's templates plus the per-stop
// temporary descriptions identify every pointer exactly — in register
// variable homes, activation-record slots, live evaluation-stack
// temporaries and object data areas. This collector is that use: it walks
// thread fragments with exactly the same template machinery the migration
// engine uses.
//
// Collection is per node and conservative about the network: any object
// whose OID has ever crossed the wire (exported or imported) is pinned,
// since a remote node may still hold a reference. (The full Emerald system
// had a distributed collector; that is beyond this reproduction's scope and
// orthogonal to the paper's contribution.)
package kernel

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/obs"
)

// GCStats reports one collection.
type GCStats struct {
	Live, Freed int
	BytesFreed  uint32
}

// Collect runs a stop-the-world mark-and-sweep on this node. All threads
// are at bus stops whenever the kernel runs, so the heap is always in a
// well-defined state.
func (n *Node) Collect() (GCStats, error) {
	marked := map[*Obj]bool{}
	var work []*Obj
	mark := func(o *Obj) {
		if o != nil && !marked[o] {
			marked[o] = true
			work = append(work, o)
		}
	}
	markAddr := func(addr uint32) error {
		if addr == 0 {
			return nil
		}
		o, err := n.objAt(addr)
		if err != nil {
			return err
		}
		mark(o)
		return nil
	}

	// Roots 1: every pointer slot of every thread fragment, identified
	// through templates and bus-stop temporary descriptions.
	ids := make([]uint32, 0, len(n.frags))
	for id := range n.frags {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		f := n.frags[id]
		if f.fn == nil {
			continue
		}
		frames, err := n.walkFrames(f, nil)
		if err != nil {
			return GCStats{}, fmt.Errorf("gc: %w", err)
		}
		for _, fi := range frames {
			mark(fi.self)
			t := fi.lf.fc.Template
			for _, h := range t.Vars {
				if h.Kind != ir.VKPtr {
					continue
				}
				var w uint32
				if h.InReg {
					w = fi.regs[h.Reg&0xf]
				} else {
					w = n.ld32(fi.fp + uint32(h.Off))
				}
				if err := markAddr(w); err != nil {
					return GCStats{}, fmt.Errorf("gc: frame %s var %s: %w", fi.lf.name(), h.Name, err)
				}
			}
			if fi.entry {
				continue
			}
			for j := 0; j < fi.tempDepth; j++ {
				if tempKindAt(fi.stop, j) != ir.VKPtr {
					continue
				}
				w := n.ld32(fi.fp + uint32(t.TempOff) + uint32(4*j))
				if err := markAddr(w); err != nil {
					return GCStats{}, fmt.Errorf("gc: frame %s temp %d: %w", fi.lf.name(), j, err)
				}
			}
		}
	}

	// Roots 2: interned string literals (referenced from literal tables).
	for _, lf := range n.descs {
		for si := range lf.fc.Strings {
			if err := markAddr(n.ld32(lf.litBase + uint32(4*si))); err != nil {
				return GCStats{}, fmt.Errorf("gc: literal table: %w", err)
			}
		}
	}

	// Roots 3: objects known to the rest of the network (conservative
	// pinning), and proxies (one-word table stubs, trivially cheap).
	for _, o := range n.objects {
		if n.exported[o.OID] || !o.Resident {
			mark(o)
		}
	}

	// Trace.
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if !o.Resident {
			continue
		}
		for i := range o.numSlots() {
			if o.slotKind(i) != ir.VKPtr {
				continue
			}
			if err := markAddr(n.ld32(o.slotAddr(i))); err != nil {
				return GCStats{}, fmt.Errorf("gc: object %v slot %d: %w", o.OID, i, err)
			}
		}
	}

	// Sweep, in object-table order: blocks enter the free lists — and so
	// come back out of alloc — in an order that does not depend on Go's
	// map iteration seed.
	var stats GCStats
	for _, o := range n.table {
		if o == nil {
			continue // swept by an earlier collection
		}
		if marked[o] {
			stats.Live++
			continue
		}
		if !o.Resident {
			continue // proxies already marked above; defensive
		}
		size := n.sizeOf(o)
		n.free(o.Addr, size, size)
		stats.BytesFreed += size
		stats.Freed++
		delete(n.byAddr, o.Addr)
		delete(n.objects, o.OID)
		n.table[o.TableIdx] = nil
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvGCCycle, A: uint64(stats.Freed), B: uint64(stats.BytesFreed)})
	n.cluster.Rec.Metrics().Add("gc_cycles", n.labels, 1)
	return stats, nil
}

// sizeOf returns the allocated byte size of a resident object.
func (n *Node) sizeOf(o *Obj) uint32 {
	switch o.Kind {
	case ObjPlain:
		return alignUp(arch.ObjDataOff + uint32(o.Code.oc.Template.DataSize()))
	case ObjArray:
		return alignUp(arch.ArrDataOff + 4*o.Len)
	default: // string
		return alignUp(arch.ArrDataOff + o.Len)
	}
}

func alignUp(v uint32) uint32 { return (v + 3) &^ 3 }

// free returns a block to the size-bucketed free list; dirty is how many
// of its leading bytes may be nonzero (see freeBlock).
func (n *Node) free(addr, size, dirty uint32) {
	n.freeLists[size] = append(n.freeLists[size], freeBlock{addr, dirty})
}

// CollectAll runs a collection on every node of the cluster.
func (c *Cluster) CollectAll() (GCStats, error) {
	var total GCStats
	for _, n := range c.Nodes {
		s, err := n.Collect()
		if err != nil {
			return total, err
		}
		total.Live += s.Live
		total.Freed += s.Freed
		total.BytesFreed += s.BytesFreed
	}
	return total, nil
}

// HeapObjects counts resident objects (diagnostics for GC tests).
func (n *Node) HeapObjects() int {
	k := 0
	for _, o := range n.objects {
		if o.Resident {
			k++
		}
	}
	return k
}
