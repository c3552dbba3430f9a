// Frame-variable liveness over the IR control-flow graph.
//
// The backward may-liveness fixpoint here serves two consumers: the vet
// dead-store lint, and the per-bus-stop live masks the code generators
// embed in busstop tables (LiveVars) so the kernel can prove a marshaled
// slot's payload is never read after restore. Because the analysis runs
// over the machine-independent IR, the computed masks are identical on
// every ISA by construction.

package ir

// Succs returns the control-flow successors of instruction pc in f.
func Succs(f *Func, pc int) []int {
	switch in := f.Code[pc]; in.Op {
	case Ret:
		return nil
	case Jump:
		return []int{int(in.A)}
	case BrFalse, BrTrue:
		return []int{pc + 1, int(in.A)}
	default:
		return []int{pc + 1}
	}
}

// LiveInfo holds the result of a liveness computation over one function.
type LiveInfo struct {
	// LiveOut[pc][v] reports that some path from pc's successors reads
	// frame slot v before writing it (result slots are read by every Ret:
	// the kernel marshals them to the caller).
	LiveOut [][]bool
	// LiveIn[pc][v] is the same property at pc itself (before executing it).
	LiveIn [][]bool
}

// Liveness computes backward may-liveness of the frame variables of f to a
// fixpoint. Result slots are live at every Ret. Unreachable instructions
// (per fi.Reach) keep all-false rows.
func Liveness(f *Func, fi *FuncInfo) *LiveInfo {
	n, nv := len(f.Code), f.NumVars
	li := &LiveInfo{LiveOut: make([][]bool, n), LiveIn: make([][]bool, n)}
	out, in := make([]bool, n*nv), make([]bool, n*nv) // one backing array each
	for pc := range f.Code {
		li.LiveOut[pc] = out[pc*nv : (pc+1)*nv : (pc+1)*nv]
		li.LiveIn[pc] = in[pc*nv : (pc+1)*nv : (pc+1)*nv]
	}
	if nv == 0 {
		return li
	}
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			if !fi.Reach[pc] {
				continue
			}
			in := f.Code[pc]
			out := li.LiveOut[pc]
			if in.Op == Ret {
				for v := range out {
					out[v] = v >= f.NumParams && v < f.NumParams+f.NumResults
				}
			} else {
				clear(out)
				for _, s := range Succs(f, pc) {
					for v := range out {
						out[v] = out[v] || li.LiveIn[s][v]
					}
				}
			}
			for v := range out {
				lv := out[v]
				switch {
				case in.Op == StoreVar && int(in.A) == v:
					lv = false
				case in.Op == LoadVar && int(in.A) == v:
					lv = true
				}
				if lv != li.LiveIn[pc][v] {
					li.LiveIn[pc][v] = lv
					changed = true
				}
			}
		}
	}
	return li
}

// LiveMask packs LiveOut[pc] into the per-stop bit mask the busstop table
// carries: bit v set means slot v's value may be read after the thread
// resumes past pc. Only slots 0..63 are representable; consumers must
// treat slots beyond 63 as always live (no function in the corpus comes
// close to that many frame variables).
func (li *LiveInfo) LiveMask(pc, numVars int) uint64 {
	var m uint64
	row := li.LiveOut[pc]
	for v := 0; v < numVars && v < 64; v++ {
		if row[v] {
			m |= 1 << uint(v)
		}
	}
	return m
}
