// IR dataflow lints: findings about the program itself rather than its
// compiled metadata. Locals are zeroed at activation creation, so none of
// these are soundness errors — they are reported as warnings.

package vet

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/ir"
)

// lintObject runs the dataflow lints over every function of one object.
func (c *checker) lintObject(oc *codegen.ObjectCode) {
	facts := c.facts(oc)
	for i, f := range oc.IR.Funcs {
		ff := &facts[i]
		if ff.err != nil {
			continue // the liveness pass reports unverifiable IR
		}
		c.lintUnreachable(oc, f, ff.fi)
		c.lintAssignment(oc, f, ff)
		c.lintDeadStores(oc, f, ff)
		c.lintReentrancy(oc, f)
	}
}

// lintUnreachable reports instructions control can never reach. The builder
// unconditionally appends a final ret, which is legitimately unreachable
// when the body already returned or loops forever; that one instruction is
// exempt.
func (c *checker) lintUnreachable(oc *codegen.ObjectCode, f *ir.Func, fi *ir.FuncInfo) {
	n := len(f.Code)
	for pc := 0; pc < n; {
		if fi.Reach[pc] || (pc == n-1 && f.Code[pc].Op == ir.Ret) {
			pc++
			continue
		}
		end := pc
		for end < n && !fi.Reach[end] && !(end == n-1 && f.Code[end].Op == ir.Ret) {
			end++
		}
		if end-pc == 1 {
			c.report("unreachable-code", SevWarning, oc.Name, f.Name, "", -1,
				"instruction %d (%s) is unreachable", pc, f.Code[pc])
		} else {
			c.report("unreachable-code", SevWarning, oc.Name, f.Name, "", -1,
				"instructions %d..%d are unreachable", pc, end-1)
		}
		pc = end
	}
}

// lintAssignment reports loads of variables that no path has assigned.
// Frame slots are zeroed at activation creation, so such a read is defined —
// but it can only ever yield zero/nil, which is almost always a bug.
// Parameters are assigned by the caller. Loads that are unassigned on only
// some paths are not reported: assignment under a condition is idiomatic.
func (c *checker) lintAssignment(oc *codegen.ObjectCode, f *ir.Func, ff *funcFacts) {
	reported := make([]bool, f.NumVars)
	for pc, in := range f.Code {
		if in.Op != ir.LoadVar || !ff.fi.Reach[pc] {
			continue
		}
		if v := int(in.A); !ff.mayAssigned(f, pc, v) && !reported[v] {
			reported[v] = true
			c.report("definite-assignment", SevWarning, oc.Name, f.Name, "", -1,
				"variable %s is read at instruction %d but assigned on no path (always zero)",
				f.VarNames[v], pc)
		}
	}
}

// lintDeadStores reports stores whose value no execution can observe: the
// slot is overwritten or the activation returns before any load. Result
// slots are live at every return (the kernel marshals them to the caller).
// The same liveness also feeds the per-stop LiveVars masks codegen embeds,
// but the lint itself only reports; it licenses no transformation.
func (c *checker) lintDeadStores(oc *codegen.ObjectCode, f *ir.Func, ff *funcFacts) {
	for pc, in := range f.Code {
		if in.Op != ir.StoreVar || !ff.fi.Reach[pc] {
			continue
		}
		if v := int(in.A); !ff.li.Out(pc)[v] {
			c.report("dead-store", SevWarning, oc.Name, f.Name, "", -1,
				"value stored to %s at instruction %d is never read", f.VarNames[v], pc)
		}
	}
}

// lintReentrancy reports monitored operations that may invoke a monitored
// operation on self: monitors are not reentrant (entry while holding blocks
// forever, §3.3's doubly-linked entry queues), so such a call is a
// self-deadlock the moment it executes. Selfness of the receiver is tracked
// as a may-analysis over the evaluation stack.
func (c *checker) lintReentrancy(oc *codegen.ObjectCode, f *ir.Func) {
	if !f.Monitored {
		return
	}
	// selfAt[pc] marks evaluation-stack slots (bottom first, same depth as
	// fi.Stack(pc)) that may hold a reference to self.
	selfAt := make([][]bool, len(f.Code))
	selfAt[0] = []bool{}
	work := []int{0}
	reported := map[string]bool{}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		sf := selfAt[pc]
		in := f.Code[pc]
		if in.Op == ir.Call {
			recv := len(sf) - int(in.A) - 1
			if recv >= 0 && sf[recv] {
				callee := f.Strings[in.S]
				if j := oc.IR.FuncIndex(callee); j >= 0 && oc.IR.Funcs[j].Monitored && !reported[callee] {
					reported[callee] = true
					c.report("monitor-reentrancy", SevWarning, oc.Name, f.Name, "", -1,
						"monitored operation invokes monitored operation %s on self at instruction %d: "+
							"monitors are not reentrant, this deadlocks", callee, pc)
				}
			}
		}
		pop, push := ir.StackEffect(in)
		if in.Op == ir.Call {
			push = 1
		}
		out := append([]bool(nil), sf[:len(sf)-pop]...)
		for i := 0; i < push; i++ {
			out = append(out, in.Op == ir.PushSelf)
		}
		s0, s1, ns := ir.Succs(f, pc)
		for s, k := s0, 0; k < ns; s, k = s1, k+1 {
			if selfAt[s] == nil {
				selfAt[s] = append([]bool(nil), out...)
				work = append(work, s)
				continue
			}
			if len(selfAt[s]) != len(out) {
				// Analyze verified depth agreement; disagreement here is a
				// vet bug, not a program bug.
				panic(fmt.Sprintf("vet: %s: stack depth mismatch at join %d", f.Name, s))
			}
			changed := false
			for i := range out {
				if out[i] && !selfAt[s][i] {
					selfAt[s][i] = true
					changed = true
				}
			}
			if changed {
				work = append(work, s)
			}
		}
	}
}
