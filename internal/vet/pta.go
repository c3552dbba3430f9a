// Points-to-backed passes: findings derived from the whole-program
// Steensgaard analysis (internal/pta) rather than from one function's
// metadata. All three are advisory — the mobility protocol stays correct
// without them — but each surfaces a migration-cost or placement fact the
// programmer cannot see locally.

package vet

import (
	"strings"

	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/pta"
)

// ptaResult lazily solves the whole-program analysis once per vet run.
// A nil result with done=true means the IR did not verify; the liveness
// pass reports that separately, so the pta passes just stay silent.
func (c *checker) ptaResult() *pta.Result {
	if c.ptaDone {
		return c.pta
	}
	c.ptaDone = true
	if r, err := pta.Analyze(c.prog.IR); err == nil {
		c.pta = r
	}
	return c.pta
}

// ptaObject runs the points-to-backed passes over one object.
func (c *checker) ptaObject(oc *codegen.ObjectCode) {
	r := c.ptaResult()
	if r == nil {
		return
	}
	c.ptrEscape(oc, r)
	c.deadPtrAtStop(oc)
	c.immobileReach(oc, r)
}

// ptrEscape reports frame-local pointer slots whose referents may be
// captured into a heap location — an object field, array element, or
// result slot — and therefore outlive the activation. The runtime keeps
// every reference OID-backed so this is never unsound here; the finding
// marks the allocation as one whose lifetime is no longer bounded by the
// frame, the exact property a frame-local (register) object optimization
// would need to check first.
func (c *checker) ptrEscape(oc *codegen.ObjectCode, r *pta.Result) {
	for _, f := range oc.IR.Funcs {
		for v := f.NumParams + f.NumResults; v < f.NumVars; v++ {
			if f.VarKinds[v] != ir.VKPtr || !r.SlotEscapes(f.Name, v) {
				continue
			}
			c.report("ptr-escape", SevInfo, oc.Name, f.Name, "", -1,
				"referent of frame-local %s may be captured into a heap location "+
					"(object field, array element, or result slot) and outlive the "+
					"activation; it must stay OID-backed, never frame-allocated",
				f.VarNames[v])
		}
	}
}

// deadPtrAtStop reports pointer locals that are marshaled at a bus stop
// inside a loop although no path after the stop reads them: each
// migration or monitored transfer through such a stop swizzles (and on
// heterogeneous moves, converts) a reference the program will never look
// at again. The slot still crosses the wire faithfully when live-mask
// sharpening is off — the finding is about recurring cost, not
// correctness. Only may-assigned slots are reported: a never-assigned
// slot holds nil, which costs nothing to swizzle.
func (c *checker) deadPtrAtStop(oc *codegen.ObjectCode) {
	facts := c.facts(oc)
	for i, f := range oc.IR.Funcs {
		ff := &facts[i]
		if ff.err != nil {
			continue
		}
		nLocals := f.NumVars - f.NumParams - f.NumResults
		if nLocals == 0 {
			continue
		}
		hasPtrLocal := false
		for v := f.NumParams + f.NumResults; v < f.NumVars; v++ {
			if f.VarKinds[v] == ir.VKPtr {
				hasPtrLocal = true
			}
		}
		if !hasPtrLocal {
			continue
		}
		reported := map[int]bool{}
		cyclic := onCycle(f)
		for n, e := range ff.exp {
			if !cyclic[e.irPC] {
				continue
			}
			for v := f.NumParams + f.NumResults; v < f.NumVars; v++ {
				if f.VarKinds[v] != ir.VKPtr || reported[v] {
					continue
				}
				if !ff.mayAssigned(f, e.irPC, v) {
					continue
				}
				if ff.li.Out(e.irPC)[v] {
					continue
				}
				reported[v] = true
				c.report("dead-ptr-at-stop", SevWarning, oc.Name, f.Name, "", n,
					"pointer local %s is dead at this in-loop stop but still assigned: "+
						"every transfer through the loop swizzles a reference no path "+
						"reads again (clear it, or narrow its scope)", f.VarNames[v])
			}
		}
	}
}

// immobileReach reports process-bearing objects whose thread can reach —
// through frame slots, object fields and array elements, across the call
// graph — an object some execution fixes to a node. Such a thread's
// closure cannot migrate as a unit: the pinned object stays put, so a
// group migration would sever locality with it. This is the static
// placement constraint emauto-style batching has to respect.
func (c *checker) immobileReach(oc *codegen.ObjectCode, r *pta.Result) {
	if !oc.IR.HasProcess {
		return
	}
	reach := r.ProcessPinnedReach(oc.Name)
	if len(reach) == 0 {
		return
	}
	pinned := make([]string, len(reach))
	for i, p := range reach {
		pinned[i] = p.String()
	}
	c.report("immobile-reach", SevInfo, oc.Name, oc.Name+".$process", "", -1,
		"process thread can reach node-fixed objects: %s — the thread's "+
			"reachable closure cannot migrate as a unit", strings.Join(pinned, "; "))
}

// mayAssignedAt computes, per instruction, which frame slots some path
// reaching it has assigned (parameters count as assigned at entry): slot v
// at pc is element pc*NumVars+v of the result, all false at the
// instructions fi marks unreachable.
func mayAssignedAt(f *ir.Func, fi *ir.FuncInfo) []bool {
	nv := f.NumVars
	out := make([]bool, len(f.Code)*nv)
	for v := 0; v < f.NumParams; v++ {
		out[v] = true
	}
	st := make([]bool, nv)
	// A pass runs forwards, so it has already pushed its facts along every
	// forward edge into an instruction by the time it visits it: only a
	// back edge can need another pass.
	for changed := true; changed; {
		changed = false
		for pc, in := range f.Code {
			if !fi.Reach[pc] {
				continue
			}
			copy(st, out[pc*nv:])
			if in.Op == ir.StoreVar {
				st[in.A] = true
			}
			s0, s1, ns := ir.Succs(f, pc)
			for s, k := s0, 0; k < ns; s, k = s1, k+1 {
				row := out[s*nv : (s+1)*nv]
				for v, a := range st {
					if a && !row[v] {
						row[v] = true
						changed = changed || s <= pc
					}
				}
			}
		}
	}
	return out
}

// onCycle reports, for every instruction reachable from f's entry, whether
// it lies on a control-flow cycle: whether it is reachable from its own
// successors. Bus stops on a cycle are the ones a thread crosses
// repeatedly, where per-transfer waste compounds. An instruction is on a
// cycle when its strongly connected component has two or more members or
// it branches to itself; the components come from one iterative pass of
// Tarjan's algorithm, so the cost is linear in the code.
func onCycle(f *ir.Func) []bool {
	n := len(f.Code)
	cyclic := make([]bool, n)
	index := make([]int, n) // discovery order + 1; 0: not yet visited
	low := make([]int, n)
	onStack := make([]bool, n)
	type frame struct{ pc, next int } // next: the successor to visit next
	call := []frame{{0, 0}}
	stack := []int{0}
	visited := 1
	index[0], low[0] = visited, visited
	onStack[0] = true
	for len(call) > 0 {
		top := &call[len(call)-1]
		pc := top.pc
		if s0, s1, ns := ir.Succs(f, pc); top.next < ns {
			s := s0
			if top.next == 1 {
				s = s1
			}
			top.next++
			switch {
			case s == pc:
				cyclic[pc] = true
			case index[s] == 0:
				visited++
				index[s], low[s] = visited, visited
				stack = append(stack, s)
				onStack[s] = true
				call = append(call, frame{s, 0})
			case onStack[s]:
				low[pc] = min(low[pc], index[s])
			}
			continue
		}
		call = call[:len(call)-1]
		if len(call) > 0 {
			parent := call[len(call)-1].pc
			low[parent] = min(low[parent], low[pc])
		}
		if low[pc] != index[pc] {
			continue
		}
		// pc roots a component: the stack down to pc.
		root := len(stack) - 1
		for stack[root] != pc {
			root--
		}
		for _, q := range stack[root:] {
			cyclic[q] = cyclic[q] || len(stack)-root > 1
			onStack[q] = false
		}
		stack = stack[:root]
	}
	return cyclic
}
