// Superinstruction fusion: the paper's mobility contract only requires
// machine-dependent state to reconverge at bus stops, so everything
// *between* stops may be optimized freely. Fusion is how the emulator
// uses that freedom: PlanFusion tiles a decoded function into runs
// (basic blocks that also end at every always-trapping op), and Fuse
// compiles every instruction once into an operand-pre-resolved closure
// and each listed stack idiom into one block (block.go), so the executor
// (fexec.go) dispatches a whole run per table lookup against a register
// file held for the whole Run call (see DESIGN.md §16).
//
// A run is entered only at its head and left at its end, at a trap or at
// a fault: every PC a thread resumes at heads a run, because a thread
// stops only where it enters the kernel and every kernel-entry op ends
// its run. fuseInstr is the only definition of what an op does: Step
// (exec.go) compiles the one instruction it executes with it too, in
// its general form only, so the reference stepper and a fused run differ
// only in what fusion adds — run tiling, head-only entry, the per-run
// budget check, the flat forms (fuseFlat) and the blocks. That is what
// the differential tests pin: observable behavior (traps, faults, cycle
// charges, memory images, event streams) is byte-identical to RunLegacy.

package arch

import (
	"bytes"
	"sync/atomic"

	"repro/internal/ir"
)

// fuseBuilds counts Fuse invocations process-wide; the core tests pin
// "one build per compiled function and ISA" against deltas of it.
var fuseBuilds atomic.Uint64

// FuseBuildCount reports how many times Fuse has compiled a fusion plan
// into a fused program since process start.
func FuseBuildCount() uint64 { return fuseBuilds.Load() }

// PlanRun is one superinstruction run boundary: N consecutive decoded
// instructions starting at PC Head.
type PlanRun struct {
	Head uint32
	N    int32
}

// FusePlan records the run boundaries of one predecoded function. It is
// machine-metadata only (no closures), so the code generator stamps it
// next to FuncCode.Decoded at compile time and every node that loads the
// function reuses it.
type FusePlan struct {
	Runs []PlanRun
}

// endsRun reports ops that must come last in their run: branches, which
// redirect the PC, and the ops that enter the kernel (unconditionally,
// or for OpPoll when preemption is pending), whose trap is delivered
// from the run's end.
func endsRun(op Op) bool {
	return shapes[op].hasTarget || op == OpPoll || op == OpRet || op == OpTrap || op == OpUnlq
}

// PlanFusion tiles a predecoded function into runs: every instruction
// belongs to exactly one. A run starts at PC 0, at a branch target, or
// after an instruction that endsRun (which belongs to the run it ends).
// Bus stops need no boundary of their own: every stop PC follows a
// kernel-entry op, so it heads a run already.
// Faulting-capable instructions (memory operands, div/mod, string and
// array ops) are allowed anywhere: the fused executor leaves the run at
// the faulting instruction (fexec.go).
func PlanFusion(p *Predecoded) *FusePlan {
	n := len(p.instrs)
	if n == 0 {
		return &FusePlan{}
	}
	leader := make([]bool, n)
	leader[0] = true
	for i := range p.instrs {
		in := &p.instrs[i]
		if endsRun(in.Op) && i+1 < n {
			leader[i+1] = true
		}
		if shapes[in.Op].hasTarget {
			if j := p.indexAt(uint32(in.Target)); j >= 0 {
				leader[j] = true
			}
		}
	}
	nruns := 0
	for _, l := range leader {
		if l {
			nruns++
		}
	}
	runs := make([]PlanRun, 0, nruns)
	pc := uint32(0)
	for i := range p.instrs {
		if leader[i] {
			runs = append(runs, PlanRun{Head: pc})
		}
		runs[len(runs)-1].N++
		pc += p.instrs[i].Size
	}
	return &FusePlan{Runs: runs}
}

// Fused is one function's compiled superinstruction program: the
// predecoded cache plus one pre-resolved closure per instruction,
// grouped into the plan's runs, and the items a run dispatches: a block
// or one instruction's closure each. Dispatch goes PC -> instruction
// index (the shared Predecoded.index) -> run, so nothing here is sized
// by code bytes. Like Predecoded it is immutable once built and safe to
// share across goroutines; all mutable execution state lives in the
// caller's FusedRunner.
type Fused struct {
	p     *Predecoded
	ops   []fop   // one per decoded instruction
	items []fop   // what the runs dispatch, run after run
	width []uint8 // how many instructions each item covers
	head  []int32 // instruction index -> index into runs of the run it heads, or -1
	runs  []fusedRun
}

// fusedRun is one compiled run: instructions [lo, hi) of the function,
// dispatched as items [ilo, ihi).
type fusedRun struct {
	lo, hi   int32
	ilo, ihi int32
	head     uint32 // PC of instruction lo
	end      uint32 // fallthrough PC after instruction hi-1
}

// NumRuns reports how many runs were compiled.
func (fz *Fused) NumRuns() int { return len(fz.runs) }

// RunLens returns the instruction count of every compiled run.
func (fz *Fused) RunLens() []int {
	out := make([]int, len(fz.runs))
	for i := range fz.runs {
		out[i] = int(fz.runs[i].hi - fz.runs[i].lo)
	}
	return out
}

// runAt returns the run headed at pc, or nil when pc does not start one.
func (fz *Fused) runAt(pc uint32) *fusedRun {
	if idx := fz.p.indexAt(pc); idx >= 0 {
		if ri := fz.head[idx]; ri >= 0 {
			return &fz.runs[ri]
		}
	}
	return nil
}

// pcOf returns the start PC of member instruction idx of fr. Only the
// cold fault exit needs it, so it walks the run's encodings instead of
// keeping a per-instruction table.
func (fz *Fused) pcOf(fr *fusedRun, idx int) uint32 {
	pc := fr.head
	for k := int(fr.lo); k < idx; k++ {
		pc += fz.p.instrs[k].Size
	}
	return pc
}

// Fuse compiles a fusion plan into a fused program for one spec. s must
// be the spec p was predecoded for (cycle charges and float codecs are
// baked into the closures). It returns nil — and callers run the
// function on RunLegacy — when p is nil or plan is not a tiling of p's
// instructions into runs whose endsRun ops come last, i.e. anything
// PlanFusion(p) would not have produced. A compiled function is fused
// once, by codegen.FuncCode.Fused, for every node that loads it —
// re-fusing per node, cluster or migration re-install would be pure
// waste, which FuseBuildCount lets tests pin.
func Fuse(s *Spec, p *Predecoded, plan *FusePlan) *Fused {
	fuseBuilds.Add(1)
	if p == nil || plan == nil {
		return nil
	}
	n := len(p.instrs)
	fz := &Fused{
		p:     p,
		ops:   make([]fop, n),
		items: make([]fop, 0, n),
		width: make([]uint8, 0, n),
		head:  make([]int32, n),
		runs:  make([]fusedRun, len(plan.Runs)),
	}
	b := fuser{s: s, flat: true}
	idx, pc := 0, uint32(0)
	for ri, pr := range plan.Runs {
		if pr.Head != pc || pr.N <= 0 || int(pr.N) > n-idx {
			return nil
		}
		fr := &fz.runs[ri]
		fr.lo, fr.head = int32(idx), pc
		for last := idx + int(pr.N) - 1; idx <= last; idx++ {
			in := &p.instrs[idx]
			op := b.fuseInstr(in)
			if op == nil || (endsRun(in.Op) && idx != last) {
				return nil
			}
			fz.ops[idx] = op
			fz.head[idx] = -1
			pc += in.Size
		}
		fr.hi, fr.end = int32(idx), pc
		fz.head[fr.lo] = int32(ri)
		fr.ilo = int32(len(fz.items))
		for i := int(fr.lo); i < idx; {
			op, w := fz.ops[i], 1
			if bk := b.match(p.instrs[i:idx]); bk != nil {
				bk.ops = fz.ops[i : i+bk.n]
				op, w = bk.compile(), bk.n
			}
			fz.items = append(fz.items, op)
			fz.width = append(fz.width, uint8(w))
			i += w
		}
		fr.ihi = int32(len(fz.items))
	}
	if idx != n {
		return nil
	}
	return fz
}

// ccHolds evaluates a condition code against (lt, eq) flags.
func ccHolds(cc byte, lt, eq bool) uint32 {
	var r bool
	switch int(cc) {
	case ir.CmpEQ:
		r = eq
	case ir.CmpNE:
		r = !eq
	case ir.CmpLT:
		r = lt
	case ir.CmpLE:
		r = lt || eq
	case ir.CmpGT:
		r = !lt && !eq
	case ir.CmpGE:
		r = !lt
	}
	return boolW(r)
}

// aluVal computes an integer ALU op (add through scc) on src1 a and
// src2 b; a zero divisor is the caller's to fault on.
func aluVal(op Op, cc byte, a, b uint32) uint32 {
	switch op {
	case OpAdd:
		return uint32(int32(a) + int32(b))
	case OpSub:
		return uint32(int32(a) - int32(b))
	case OpMul:
		return uint32(int32(a) * int32(b))
	case OpDiv:
		return uint32(int32(a) / int32(b))
	case OpMod:
		return uint32(int32(a) % int32(b))
	case OpAnd:
		return boolW(a != 0 && b != 0)
	case OpOr:
		return boolW(a != 0 || b != 0)
	}
	return ccHolds(cc, int32(a) < int32(b), a == b)
}

// fuser compiles instructions for one spec. Fuse's compiles the flat
// forms and the blocks too; Step's (flat false) compiles only the general
// forms, so the differential tests compare the two.
type fuser struct {
	s    *Spec
	flat bool
}

// rdFn/wrFn are pre-resolved operand accessors: the addressing-mode
// switch runs once at fuse time, not per execution.
type (
	rdFn func(*fexec) uint32
	wrFn func(*fexec, uint32)
)

// rd builds a source-operand reader: a memory operand charges MemCycles
// before the access, Pop decrements the depth before its load, and the
// first fault of the instruction wins. The stack and frame modes wrap the
// fexec methods (fexec.go) the flat forms call directly.
func (b *fuser) rd(o *Operand) rdFn {
	switch o.Mode {
	case ModeImm:
		v := o.Imm
		return func(*fexec) uint32 { return v }
	case ModeReg:
		k := o.Reg & 0xf
		return func(e *fexec) uint32 { return e.r[k] }
	case ModeFrame:
		d := uint32(o.Disp)
		return func(e *fexec) uint32 { return e.ldFrame(d) }
	case ModeSelf:
		d := ObjDataOff + uint32(o.Disp)
		return func(e *fexec) uint32 {
			e.cycles += e.mc
			v, ok := e.ld32(e.self + d)
			if !ok {
				return e.setFault(FaultNilRef)
			}
			return v
		}
	case ModeLit:
		d := 4 * uint32(o.Disp)
		return func(e *fexec) uint32 {
			e.cycles += e.mc
			v, ok := e.ld32(e.litBase + d)
			if !ok {
				return e.setFault(FaultNilRef)
			}
			return v
		}
	case ModePop:
		return (*fexec).pop
	}
	return func(e *fexec) uint32 { return e.setFault(FaultStack) }
}

// wr builds a destination-operand writer: a memory operand charges
// MemCycles, and Push increments the depth only after a successful store.
func (b *fuser) wr(o *Operand) wrFn {
	switch o.Mode {
	case ModeReg:
		k := o.Reg & 0xf
		return func(e *fexec, v uint32) { e.r[k] = v }
	case ModeFrame:
		d := uint32(o.Disp)
		return func(e *fexec, v uint32) { e.stFrame(d, v) }
	case ModeSelf:
		d := ObjDataOff + uint32(o.Disp)
		return func(e *fexec, v uint32) {
			e.cycles += e.mc
			if !e.st32(e.self+d, v) {
				e.setFault(FaultNilRef)
			}
		}
	case ModePush:
		return (*fexec).push
	}
	return func(e *fexec, _ uint32) { e.setFault(FaultStack) }
}

// regOperand reports the register of a register operand, or -1.
func regOperand(o *Operand) int {
	if o.Mode != ModeReg {
		return -1
	}
	return int(o.Reg & 0xf)
}

// fuseInstr compiles one instruction into a closure, or nil for an
// unimplemented op. It is the one place an op's semantics are written:
// its result, operand evaluation order (with stack operands src2, the
// top, before src1), fault precedence, cycle charges and next-PC rule.
// Fuse and Step both compile through it. Fuse's fuser first tries the
// op's flat form (fuseFlat); Step's always compiles the general form
// below, and the differential tests compare the two. A fault the op itself detects (div by zero,
// bounds, nil) is raised only when no operand fault is pending, and the
// write is then skipped.
func (b *fuser) fuseInstr(in *Instr) fop {
	if b.flat {
		if op := b.fuseFlat(in); op != nil {
			return op
		}
	}
	s := b.s
	cyc := uint64(s.Cycles[in.Op])
	switch in.Op {
	case OpMov:
		rd := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[1])
		// The write runs even when the read faulted (storing 0 with all
		// its side effects); the run stops right after.
		return func(e *fexec) {
			e.cycles += cyc
			wr(e, rd(e))
		}

	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpScc:
		op, cc := in.Op, in.CC
		// General form: src2 (stack top) evaluated before src1, write
		// suppressed after a fault.
		rd2 := b.rd(&in.Operands[1])
		rd1 := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[2])
		return func(e *fexec) {
			e.cycles += cyc
			bb := rd2(e)
			a := rd1(e)
			if e.fault != 0 {
				return
			}
			if bb == 0 && (op == OpDiv || op == OpMod) {
				e.setFault(FaultDivZero)
				return
			}
			wr(e, aluVal(op, cc, a, bb))
		}

	case OpNeg, OpAbs, OpNot:
		op := in.Op
		rd := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[1])
		return func(e *fexec) {
			e.cycles += cyc
			a := rd(e)
			if e.fault != 0 {
				return
			}
			var v uint32
			switch op {
			case OpNeg:
				v = uint32(-int32(a))
			case OpAbs:
				x := int32(a)
				if x < 0 {
					x = -x
				}
				v = uint32(x)
			case OpNot:
				v = boolW(a == 0)
			}
			wr(e, v)
		}

	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFScc:
		op, cc, fl := in.Op, in.CC, s.Float
		rd2 := b.rd(&in.Operands[1])
		rd1 := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[2])
		return func(e *fexec) {
			e.cycles += cyc
			bb := fl.Dec(rd2(e))
			a := fl.Dec(rd1(e))
			if e.fault != 0 {
				return
			}
			switch op {
			case OpFAdd:
				wr(e, fl.Enc(a+bb))
			case OpFSub:
				wr(e, fl.Enc(a-bb))
			case OpFMul:
				wr(e, fl.Enc(a*bb))
			case OpFDiv:
				if bb == 0 {
					e.setFault(FaultDivZero)
					return
				}
				wr(e, fl.Enc(a/bb))
			case OpFScc:
				wr(e, ccHolds(cc, a < bb, a == bb))
			}
		}

	case OpFNeg:
		fl := s.Float
		rd := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[1])
		return func(e *fexec) {
			e.cycles += cyc
			a := fl.Dec(rd(e))
			if e.fault != 0 {
				return
			}
			wr(e, fl.Enc(-a))
		}

	case OpCvt:
		fl := s.Float
		rd := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[1])
		return func(e *fexec) {
			e.cycles += cyc
			a := int32(rd(e))
			if e.fault != 0 {
				return
			}
			wr(e, fl.Enc(float32(a)))
		}

	case OpSScc:
		cc := in.CC
		rd2 := b.rd(&in.Operands[1])
		rd1 := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[2])
		return func(e *fexec) {
			e.cycles += cyc
			bref := rd2(e)
			aref := rd1(e)
			if e.fault != 0 {
				return
			}
			as, ok1 := e.readString(aref)
			bs, ok2 := e.readString(bref)
			if !ok1 || !ok2 {
				e.setFault(FaultNilRef)
				return
			}
			e.cycles += uint64(min(len(as), len(bs)))
			c := bytes.Compare(as, bs)
			wr(e, ccHolds(cc, c < 0, c == 0))
		}

	case OpJmp:
		target := uint32(in.Target)
		return func(e *fexec) {
			e.cycles += cyc
			e.npc = target
		}

	case OpBrz, OpBrnz:
		wantZero := in.Op == OpBrz
		target := uint32(in.Target)
		rd := b.rd(&in.Operands[0])
		return func(e *fexec) {
			e.cycles += cyc
			v := rd(e)
			if e.fault != 0 {
				return
			}
			if (v == 0) == wantZero {
				e.npc = target
				e.cycles++
			}
		}

	case OpALoad:
		rdIdx := b.rd(&in.Operands[1])
		rdArr := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[2])
		return func(e *fexec) {
			e.cycles += cyc
			idx := rdIdx(e)
			arr := rdArr(e)
			if e.fault != 0 {
				return
			}
			if arr == 0 {
				e.setFault(FaultNilRef)
				return
			}
			n, ok := e.ld32(arr + LenOff)
			if !ok {
				e.setFault(FaultNilRef)
				return
			}
			if idx >= n {
				e.setFault(FaultBounds)
				return
			}
			v, ok := e.ld32(arr + ArrDataOff + 4*idx)
			if !ok {
				e.setFault(FaultBounds)
				return
			}
			wr(e, v)
		}

	case OpAStor:
		rdVal := b.rd(&in.Operands[2])
		rdIdx := b.rd(&in.Operands[1])
		rdArr := b.rd(&in.Operands[0])
		return func(e *fexec) {
			e.cycles += cyc
			v := rdVal(e)
			idx := rdIdx(e)
			arr := rdArr(e)
			if e.fault != 0 {
				return
			}
			if arr == 0 {
				e.setFault(FaultNilRef)
				return
			}
			n, ok := e.ld32(arr + LenOff)
			if !ok {
				e.setFault(FaultNilRef)
				return
			}
			if idx >= n {
				e.setFault(FaultBounds)
				return
			}
			if !e.st32(arr+ArrDataOff+4*idx, v) {
				e.setFault(FaultBounds)
			}
		}

	case OpALen, OpSLen:
		rd := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[1])
		return func(e *fexec) {
			e.cycles += cyc
			ref := rd(e)
			if e.fault != 0 {
				return
			}
			if ref == 0 {
				e.setFault(FaultNilRef)
				return
			}
			n, ok := e.ld32(ref + LenOff)
			if !ok {
				e.setFault(FaultNilRef)
				return
			}
			wr(e, n)
		}

	case OpSIdx:
		rdIdx := b.rd(&in.Operands[1])
		rdRef := b.rd(&in.Operands[0])
		wr := b.wr(&in.Operands[2])
		return func(e *fexec) {
			e.cycles += cyc
			idx := rdIdx(e)
			ref := rdRef(e)
			if e.fault != 0 {
				return
			}
			str, ok := e.readString(ref)
			if !ok {
				e.setFault(FaultNilRef)
				return
			}
			if idx >= uint32(len(str)) {
				e.setFault(FaultBounds)
				return
			}
			wr(e, uint32(str[idx]))
		}

	// The kernel-entry ops. Each is the last instruction of its run, so
	// e.npc is its own next PC, and raising no fault makes the run
	// exit normally: cached state written back and cpu.PC *advanced*
	// before the trap is delivered (a fault, by contrast, leaves cpu.PC
	// at the faulting instruction).
	case OpPoll:
		tc := uint64(s.TrapCycles)
		return func(e *fexec) {
			e.cycles += cyc
			if e.preempt {
				e.cycles += tc
				e.raise(TrapYield, 0, 0)
			}
		}

	case OpRet:
		tcyc := cyc + uint64(s.TrapCycles)
		return func(e *fexec) {
			e.cycles += tcyc
			e.raise(TrapRet, 0, 0)
		}

	case OpTrap:
		tcyc := cyc + uint64(s.TrapCycles)
		kind, a, bb := in.TrapKind, in.TrapA, in.TrapB
		return func(e *fexec) {
			e.cycles += tcyc
			e.raise(kind, a, bb)
		}

	case OpUnlq:
		// Atomic doubly-linked-list unlink: monitor exit in one
		// non-interruptible instruction. No TrapCycles: the kernel
		// performs the unlink and resumes the thread without a scheduling
		// point, so the local runtime never observes this PC (the bus stop
		// here is exit-only).
		return func(e *fexec) {
			e.cycles += cyc
			e.raise(TrapMonExitA, 0, 0)
		}
	}
	return nil
}

// fuseFlat compiles the flat form of an instruction, or returns nil when
// its operand shape has none. A flat form reads and writes the register
// file and calls the fexec operand methods directly, where the
// general form calls an rd/wr closure per operand; it must match the
// general form exactly (evaluation order, cycle charges, fault
// precedence, the write after a faulted mov read), which the
// differential tests and TestOpSemantics pin. The shapes are those the
// compiler's temp-stack code executes: moves of an immediate, register,
// or frame word to the stack, pops into a register or frame word,
// pop-pop-push integer ALU ops and scc, and branches on a pop. Beside
// them, the register-only shapes of embench jit's countdown loop: mov of
// an immediate to a register, add/sub/mul on three registers, and
// branches on a register.
func (b *fuser) fuseFlat(in *Instr) fop {
	cyc := uint64(b.s.Cycles[in.Op])
	o := &in.Operands
	switch in.Op {
	case OpMov:
		src, dst := &o[0], &o[1]
		di, si := regOperand(dst), regOperand(src)
		switch {
		case di >= 0 && src.Mode == ModeImm:
			v := src.Imm
			return func(e *fexec) {
				e.cycles += cyc
				e.r[di] = v
			}
		case di >= 0 && src.Mode == ModePop:
			return func(e *fexec) {
				e.cycles += cyc
				e.r[di] = e.pop()
			}
		case dst.Mode == ModeFrame && src.Mode == ModePop:
			d := uint32(dst.Disp)
			return func(e *fexec) {
				e.cycles += cyc
				e.stFrame(d, e.pop())
			}
		case dst.Mode == ModePush && src.Mode == ModeImm:
			v := src.Imm
			return func(e *fexec) {
				e.cycles += cyc
				e.push(v)
			}
		case dst.Mode == ModePush && si >= 0:
			return func(e *fexec) {
				e.cycles += cyc
				e.push(e.r[si])
			}
		case dst.Mode == ModePush && src.Mode == ModeFrame:
			d := uint32(src.Disp)
			return func(e *fexec) {
				e.cycles += cyc
				e.push(e.ldFrame(d))
			}
		}

	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpScc:
		s1, s2, sd := regOperand(&o[0]), regOperand(&o[1]), regOperand(&o[2])
		if s1 >= 0 && s2 >= 0 && sd >= 0 {
			// All-register form: no operand can fault, so the closure is a
			// straight computation on the register file.
			switch in.Op {
			case OpAdd:
				return func(e *fexec) {
					e.cycles += cyc
					e.r[sd] = uint32(int32(e.r[s1]) + int32(e.r[s2]))
				}
			case OpSub:
				return func(e *fexec) {
					e.cycles += cyc
					e.r[sd] = uint32(int32(e.r[s1]) - int32(e.r[s2]))
				}
			case OpMul:
				return func(e *fexec) {
					e.cycles += cyc
					e.r[sd] = uint32(int32(e.r[s1]) * int32(e.r[s2]))
				}
			}
			return nil
		}
		if o[0].Mode != ModePop || o[1].Mode != ModePop || o[2].Mode != ModePush {
			return nil
		}
		// Temp-stack form: src2, the top, pops before src1, and a faulted
		// pop or a zero divisor suppresses the push.
		op, cc := in.Op, in.CC
		return func(e *fexec) {
			e.cycles += cyc
			bb := e.pop()
			a := e.pop()
			switch {
			case e.fault != 0:
			case bb == 0 && (op == OpDiv || op == OpMod):
				e.setFault(FaultDivZero)
			default:
				e.push(aluVal(op, cc, a, bb))
			}
		}

	case OpBrz, OpBrnz:
		wantZero, target := in.Op == OpBrz, uint32(in.Target)
		if si := regOperand(&o[0]); si >= 0 {
			return func(e *fexec) {
				e.cycles += cyc
				if (e.r[si] == 0) == wantZero {
					e.npc = target
					e.cycles++ // taken-branch penalty
				}
			}
		}
		if o[0].Mode == ModePop {
			return func(e *fexec) {
				e.cycles += cyc
				if v := e.pop(); e.fault == 0 && (v == 0) == wantZero {
					e.npc = target
					e.cycles++
				}
			}
		}
	}
	return nil
}
