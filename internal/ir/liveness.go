// Frame-variable liveness over the IR control-flow graph.
//
// The backward may-liveness fixpoint here serves two consumers: the vet
// dead-store lint, and the per-bus-stop live masks the code generators
// embed in busstop tables (LiveVars) so the kernel can prove a marshaled
// slot's payload is never read after restore. Because the analysis runs
// over the machine-independent IR, the computed masks are identical on
// every ISA by construction.

package ir

// Succs returns the control-flow successors of instruction pc in f: the
// first n of s0, s1 (no instruction has more than two). The results are
// scalars so that a hot loop keeps them in registers.
func Succs(f *Func, pc int) (s0, s1, n int) {
	switch in := f.Code[pc]; in.Op {
	case Ret:
		return 0, 0, 0
	case Jump:
		return int(in.A), 0, 1
	case BrFalse, BrTrue:
		return pc + 1, int(in.A), 2
	default:
		return pc + 1, 0, 1
	}
}

// LiveInfo holds the result of a liveness computation over one function:
// a row of per-slot flags for each instruction, all rows in one array.
type LiveInfo struct {
	nv  int
	out []bool // the row of pc is [pc*nv, (pc+1)*nv)
}

// Out returns the LiveOut row of pc: Out(pc)[v] reports that some path from
// pc's successors reads frame slot v before writing it (result slots are
// read by every Ret: the kernel marshals them to the caller).
func (li *LiveInfo) Out(pc int) []bool { return li.out[pc*li.nv : (pc+1)*li.nv : (pc+1)*li.nv] }

// Liveness computes backward may-liveness of the frame variables of f to a
// fixpoint. Result slots are live at every Ret. Unreachable instructions
// (per fi.Reach) keep all-false rows. Consumers read the shared copy
// through Func.Facts.
func Liveness(f *Func, fi *FuncInfo) *LiveInfo {
	n, nv := len(f.Code), f.NumVars
	li := &LiveInfo{nv: nv, out: make([]bool, n*nv)}
	if nv == 0 {
		return li
	}
	// liveIn is the same property at pc itself (before executing it).
	liveIn := make([]bool, n*nv)
	inRow := func(pc int) []bool { return liveIn[pc*nv : (pc+1)*nv] }
	// A pass runs backwards, so it reads the rows of forward successors
	// as this pass left them: only a back edge can need another pass.
	for changed := true; changed; {
		changed = false
		back := false
		for pc := n - 1; pc >= 0; pc-- {
			if !fi.Reach[pc] {
				continue
			}
			in := f.Code[pc]
			out := li.Out(pc)
			if in.Op == Ret {
				for v := range out {
					out[v] = v >= f.NumParams && v < f.NumParams+f.NumResults
				}
			} else {
				clear(out)
				s0, s1, ns := Succs(f, pc)
				for s, k := s0, 0; k < ns; s, k = s1, k+1 {
					back = back || s <= pc
					for v, lv := range inRow(s) {
						out[v] = out[v] || lv
					}
				}
			}
			row := inRow(pc)
			for v, lv := range out {
				switch {
				case in.Op == StoreVar && int(in.A) == v:
					lv = false
				case in.Op == LoadVar && int(in.A) == v:
					lv = true
				}
				if lv != row[v] {
					row[v] = lv
					changed = true
				}
			}
		}
		changed = changed && back
	}
	return li
}

// LiveMask packs Out(pc) into the per-stop bit mask the busstop table
// carries: bit v set means slot v's value may be read after the thread
// resumes past pc. Only slots 0..63 are representable; consumers must
// treat slots beyond 63 as always live (no function in the corpus comes
// close to that many frame variables).
func (li *LiveInfo) LiveMask(pc, numVars int) uint64 {
	var m uint64
	row := li.Out(pc)
	for v := 0; v < numVars && v < 64; v++ {
		if row[v] {
			m |= 1 << uint(v)
		}
	}
	return m
}
