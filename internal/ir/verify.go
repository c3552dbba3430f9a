// IR verification and evaluation-stack analysis.
//
// Analyze computes, for every instruction, the kinds of the values on the
// evaluation stack before the instruction executes. This is the static
// information the paper's compiler captures per bus stop: "the number and
// types of temporary variables in use" (§3.3). The per-ISA back ends embed
// the result in the bus-stop tables; the kernel uses it to convert live
// temporaries between machine-dependent and machine-independent formats.

package ir

import (
	"fmt"
	"slices"
)

// FuncInfo is the result of analyzing one function. It is read-only: the
// FuncInfo that Func.Facts returns is shared by every consumer of the
// function.
type FuncInfo struct {
	// Reach[i] reports whether instruction i is reachable.
	Reach []bool
	// MaxStack is the deepest evaluation stack at any point.
	MaxStack int
	// stacks holds every stack map in instruction order: the map before
	// instruction i is stacks[off[i]:off[i+1]] (empty when i is
	// unreachable), so a map costs 4 bytes of offset besides its kinds.
	stacks []VK
	off    []uint32
}

// Stack returns the evaluation-stack kinds before instruction pc (bottom
// first), or nil when pc is unreachable; a reachable empty stack is a
// non-nil empty row. The row is a cap-limited view of the shared maps, so
// an append to it copies it instead of writing into a neighbour's map.
func (fi *FuncInfo) Stack(pc int) []VK {
	if !fi.Reach[pc] {
		return nil
	}
	lo, hi := fi.off[pc], fi.off[pc+1]
	return fi.stacks[lo:hi:hi]
}

// Facts returns f's stack maps and liveness, computing them with Analyze
// and Liveness on the first call; every later call, from any goroutine,
// returns the same values. objKinds is the data-area layout of the object
// owning f (a function belongs to one object, so every caller passes the
// same layout). The results are shared and must not be written, and f's
// code must not change after the first call.
func (f *Func) Facts(objKinds []VK) (*FuncInfo, *LiveInfo, error) {
	f.factsOnce.Do(func() {
		if f.fi, f.factsErr = Analyze(f, objKinds); f.factsErr == nil {
			f.li = Liveness(f, f.fi)
		}
	})
	return f.fi, f.li, f.factsErr
}

// Analyze verifies f against the program and object layouts and returns the
// stack maps. objKinds is the data-area layout of the object owning f.
// Consumers read the shared copy through Func.Facts.
func Analyze(f *Func, objKinds []VK) (*FuncInfo, error) {
	n := len(f.Code)
	if n == 0 || f.Code[n-1].Op != Ret && f.Code[n-1].Op != Jump {
		return nil, fmt.Errorf("%s: function must end in ret or jump", f.Name)
	}
	info := &FuncInfo{Reach: make([]bool, n), off: make([]uint32, n+1)}
	// The walk appends each reached instruction's stack to arena, at
	// start[pc], and keeps its depth in off[pc+1]; the maps are copied
	// into instruction order once the walk is done. Offsets survive the
	// arena's growth, so the allocations grow with the logarithm of the
	// code size.
	arena := make([]VK, 0, 2*n)
	start := make([]uint32, n)
	row := func(pc int) []VK { return arena[start[pc] : start[pc]+info.off[pc+1]] }
	type workItem struct {
		pc    int
		at, n uint32 // the stack to walk from: arena[at:at+n]
	}
	work := []workItem{{0, 0, 0}}
	var stack []VK // the stack being walked, reused across work items
	errf := func(pc int, format string, args ...any) error {
		return fmt.Errorf("%s@%d (%s): %s", f.Name, pc, f.Code[pc], fmt.Sprintf(format, args...))
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pc := it.pc
		stack = append(stack[:0], arena[it.at:it.at+it.n]...)
		for {
			if pc < 0 || pc >= n {
				return nil, fmt.Errorf("%s: control flows to invalid pc %d", f.Name, pc)
			}
			if info.Reach[pc] {
				if !slices.Equal(row(pc), stack) {
					return nil, errf(pc, "stack mismatch at join: %v vs %v", row(pc), stack)
				}
				break
			}
			info.Reach[pc] = true
			start[pc], info.off[pc+1] = uint32(len(arena)), uint32(len(stack))
			arena = append(arena, stack...)
			if len(stack) > info.MaxStack {
				info.MaxStack = len(stack)
			}
			i := f.Code[pc]
			pop, _ := StackEffect(i)
			if len(stack) < pop {
				return nil, errf(pc, "stack underflow: have %d, need %d", len(stack), pop)
			}
			popped := stack[len(stack)-pop:]
			stack = stack[:len(stack)-pop]
			if err := checkPops(f, i, popped); err != nil {
				return nil, errf(pc, "%v", err)
			}
			// Pushes.
			switch i.Op {
			case PushInt:
				stack = append(stack, VKInt)
			case PushReal:
				stack = append(stack, VKReal)
			case PushStr, PushNil, PushSelf, SysConcat, SysStrOf, New, NewArray:
				stack = append(stack, VKPtr)
			case LoadVar:
				if int(i.A) >= len(f.VarKinds) {
					return nil, errf(pc, "variable %d out of range", i.A)
				}
				stack = append(stack, f.VarKinds[i.A])
			case StoreVar:
				if int(i.A) >= len(f.VarKinds) {
					return nil, errf(pc, "variable %d out of range", i.A)
				}
				if popped[0] != f.VarKinds[i.A] {
					return nil, errf(pc, "stores %v into %v slot", popped[0], f.VarKinds[i.A])
				}
			case LoadMine:
				if int(i.A) >= len(objKinds) {
					return nil, errf(pc, "object slot %d out of range", i.A)
				}
				stack = append(stack, objKinds[i.A])
			case StoreMine:
				if int(i.A) >= len(objKinds) {
					return nil, errf(pc, "object slot %d out of range", i.A)
				}
				if popped[0] != objKinds[i.A] {
					return nil, errf(pc, "stores %v into %v object slot", popped[0], objKinds[i.A])
				}
			case AddI, SubI, MulI, DivI, ModI, NegI, AbsI, NotB, AndB, OrB,
				CmpI, CmpR, CmpS, CmpP, SLen, SIndex, ALen,
				SysNodes, SysThisNode, SysNodeAt, SysTimeMS, SysLocate:
				stack = append(stack, VKInt)
			case AddR, SubR, MulR, DivR, NegR, CvtIR:
				stack = append(stack, VKReal)
			case ALoad:
				stack = append(stack, i.K)
			case Call:
				stack = append(stack, i.K)
			}
			// Control flow.
			switch i.Op {
			case Ret:
				if len(stack) != 0 {
					return nil, errf(pc, "ret with %d values on stack", len(stack))
				}
				goto nextWork
			case Jump:
				pc = int(i.A)
			case BrFalse, BrTrue:
				// A branch only pops its condition, so the stack at its
				// target is a prefix of the row just appended for pc.
				work = append(work, workItem{int(i.A), start[pc], info.off[pc+1] - 1})
				pc++
			default:
				pc++
			}
		}
	nextWork:
	}
	for pc := range n {
		info.off[pc+1] += info.off[pc]
	}
	info.stacks = make([]VK, info.off[n])
	for pc := range n {
		copy(info.stacks[info.off[pc]:info.off[pc+1]], arena[start[pc]:])
	}
	return info, nil
}

// checkPops validates the kinds of popped operands for operations with a
// fixed signature. popped is ordered bottom-to-top.
func checkPops(f *Func, i Instr, popped []VK) error {
	want := func(kinds ...VK) error {
		for j, k := range kinds {
			if popped[j] != k {
				return fmt.Errorf("operand %d is %v, want %v (%v)", j, popped[j], k, popped)
			}
		}
		return nil
	}
	switch i.Op {
	case AddI, SubI, MulI, DivI, ModI, AndB, OrB, CmpI:
		return want(VKInt, VKInt)
	case AddR, SubR, MulR, DivR, CmpR:
		return want(VKReal, VKReal)
	case NegI, AbsI, NotB, CvtIR, BrFalse, BrTrue, SysNodeAt, SysWait, SysSignal:
		return want(VKInt)
	case NegR:
		return want(VKReal)
	case CmpS, SysConcat:
		return want(VKPtr, VKPtr)
	case CmpP:
		if int(i.A) != CmpEQ && int(i.A) != CmpNE {
			return fmt.Errorf("pointer comparison must be eq/ne")
		}
		return want(VKPtr, VKPtr)
	case SLen, ALen, SysUnfix, SysLocate:
		return want(VKPtr)
	case SIndex:
		return want(VKPtr, VKInt)
	case ALoad:
		return want(VKPtr, VKInt)
	case AStore:
		if err := want(VKPtr, VKInt); err != nil {
			return err
		}
		if popped[2] != i.K {
			return fmt.Errorf("stores %v into %v array", popped[2], i.K)
		}
	case NewArray:
		return want(VKInt)
	case SysMove, SysFix, SysRefix:
		return want(VKPtr, VKInt)
	case Call:
		// Receiver is below the arguments.
		if popped[0] != VKPtr {
			return fmt.Errorf("call receiver is %v, want pointer", popped[0])
		}
	case StoreVar, StoreMine, Drop, SysPrint, SysStrOf, New:
		// Kind-generic; StoreVar/StoreMine checked by caller.
	}
	return nil
}

// Dump renders a function's code for debugging and golden tests.
func Dump(f *Func) string {
	s := fmt.Sprintf("func %s params=%d results=%d vars=%d monitored=%v\n",
		f.Name, f.NumParams, f.NumResults, f.NumVars, f.Monitored)
	for i, in := range f.Code {
		s += fmt.Sprintf("  %3d: %s\n", i, in)
	}
	return s
}
