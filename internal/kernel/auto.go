// The kernel side of adaptive placement: a periodic cluster-level tick
// builds an auto.View from the metrics registry and the object tables,
// consults the policy engine, and executes its decisions as (batched
// cohort) migrations. The tick is a weak simulation event — placement never
// keeps a finished program alive — and everything here is gated on
// Config.AutoPolicy, so a policy-free run carries no trace of it.

package kernel

import (
	"fmt"
	"sort"

	"repro/internal/auto"
	"repro/internal/ir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
)

// autoPeriod is the policy tick period: 20 simulated milliseconds, a few
// times the cost of one move.
const autoPeriod netsim.Micros = 20000

// armAuto builds the policy engine and schedules the first tick.
func (c *Cluster) armAuto() error {
	eng, err := auto.New(c.AutoPolicy, auto.Static{Cohorts: c.AutoCohorts, Pinned: c.AutoPinned})
	if err != nil {
		return err
	}
	c.autoOn = true
	c.autoEng = eng
	c.autoCohort = map[string]map[string]bool{}
	for _, set := range c.AutoCohorts {
		for _, cls := range set {
			m := c.autoCohort[cls]
			if m == nil {
				m = map[string]bool{}
				c.autoCohort[cls] = m
			}
			for _, other := range set {
				m[other] = true
			}
		}
	}
	c.autoPinned = map[string]bool{}
	for _, cls := range c.AutoPinned {
		c.autoPinned[cls] = true
	}
	c.Sim.AtWeak(autoPeriod, c.autoTick)
	return nil
}

// AutoDecisionLog returns the policy engine's canonical decision log (nil
// when no policy is armed).
func (c *Cluster) AutoDecisionLog() []string {
	if c.autoEng == nil {
		return nil
	}
	return c.autoEng.Log()
}

// autoTick is one policy period: observe, decide, execute, re-arm.
func (c *Cluster) autoTick() {
	decs := c.autoEng.Tick(c.autoView())
	for i, d := range decs {
		c.Rec.Emit(obs.Event{At: int64(c.Sim.Now()), Node: int32(d.From),
			Kind: obs.EvAutoDecision, Obj: d.Obj, A: uint64(i), B: uint64(d.To),
			Str: fmt.Sprintf("%s moves obj %d (%s)", d.Policy, d.Obj, d.Class)})
		c.Rec.Metrics().Add("auto_decisions", "policy="+d.Policy, 1)
		d := d
		c.Sim.AtNode(d.From, 0, func() { c.Nodes[d.From].execAutoMove(d) })
	}
	c.Sim.AtWeak(autoPeriod, c.autoTick)
}

// autoView snapshots the cluster for the policy engine: per-node
// instruction pressure, the policy-feed traffic counters, and every
// resident plain object with its pin status. Object order is canonical
// (ascending OID).
func (c *Cluster) autoView() auto.View {
	v := auto.View{Now: int64(c.Sim.Now()), Nodes: len(c.Nodes)}
	v.Instrs = make([]uint64, len(c.Nodes))
	for i, n := range c.Nodes {
		v.Instrs[i] = n.Instrs
	}
	for _, cp := range c.Rec.Metrics().CountersPrefix("invoke_link") {
		var src, dst int
		if _, err := fmt.Sscanf(cp.Labels, "src=%d,dst=%d", &src, &dst); err == nil {
			v.Links = append(v.Links, auto.Link{Src: src, Dst: dst, Count: cp.Value})
		}
	}
	for _, cp := range c.Rec.Metrics().CountersPrefix("invoke_obj") {
		var id uint32
		var src int
		if _, err := fmt.Sscanf(cp.Labels, "oid=%d,src=%d", &id, &src); err == nil {
			v.ObjCalls = append(v.ObjCalls, auto.ObjCall{OID: id, Src: src, Count: cp.Value})
		}
	}
	for _, n := range c.Nodes {
		ids := make([]uint32, 0, len(n.objects))
		for id, o := range n.objects {
			if o.Resident && o.Kind == ObjPlain && o.Code != nil {
				ids = append(ids, uint32(id))
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			o := n.objects[oid.OID(id)]
			cls := o.Code.oc.Name
			v.Objects = append(v.Objects, auto.ObjInfo{
				OID: uint32(o.OID), Class: cls, Node: n.ID,
				Pinned: o.Fixed || o.transit != nil ||
					c.autoPinned[cls] || o.Code.oc.Template.Immutable,
			})
		}
	}
	sort.Slice(v.Objects, func(i, j int) bool { return v.Objects[i].OID < v.Objects[j].OID })
	return v
}

// execAutoMove executes one placement decision on the owning node,
// re-validating against the live object table (the object may have moved,
// fixed itself, or entered transit since the tick observed it), then
// migrating the object's whole co-resident cohort in one batched transfer.
func (n *Node) execAutoMove(d auto.Decision) {
	o, ok := n.objects[oid.OID(d.Obj)]
	if !ok || !o.Resident || o.Fixed || o.transit != nil {
		return
	}
	cohort := n.cohortOf(o)
	if len(cohort) > 1 && !n.cluster.AutoNoBatch {
		n.moveGroup(cohort, d.To, false)
		return
	}
	n.moveObject(o, d.To, false)
}

// cohortOf expands o to its co-resident group-migration cohort: the
// transitive closure, over reference slots, of resident movable objects
// whose classes the points-to analysis placed in one cohort with o's class.
// Traversal order is the object's slot order, so the cohort list — and the
// resulting MoveGroup — is deterministic.
func (n *Node) cohortOf(o *Obj) []*Obj {
	out := []*Obj{o}
	if o.Kind != ObjPlain || o.Code == nil {
		return out
	}
	set := n.cluster.autoCohort[o.Code.oc.Name]
	if set == nil {
		return out
	}
	seen := map[*Obj]bool{o: true}
	for qi := 0; qi < len(out); qi++ {
		cur := out[qi]
		tmpl := cur.Code.oc.Template
		for i, k := range tmpl.Slots {
			if k != ir.VKPtr {
				continue
			}
			w := n.ld32(cur.slotAddr(i))
			if w == 0 {
				continue
			}
			p := n.byAddr[w]
			if p == nil || seen[p] || !p.Resident || p.Fixed || p.transit != nil {
				continue
			}
			if p.Kind != ObjPlain || p.Code == nil || p.Code.oc.Template.Immutable {
				continue
			}
			if !set[p.Code.oc.Name] {
				continue
			}
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
