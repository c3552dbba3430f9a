// Stack-idiom blocks. The compiler's temp-stack code spells c := a op b
// as several instructions — push, push, pop-pop-push and a pop on the
// CISC machines, pop, pop, alu, push and a pop on SPARC — and a fused
// run would dispatch one closure for each. Fuse compiles every listed
// idiom in a run into one block instead: one closure behind one entry
// guard. When the guard passes, the block does the idiom's stores in the
// order its instructions' own closures do (memory images are observed,
// and frame and temp-stack words may alias), sets the depth once and
// adds a cycle total computed at fuse time. When it fails, the block runs
// its instructions' own closures, so a fault keeps its precedence, the
// write after a faulted mov read, cpu.PC and the instruction count.

package arch

// blockKind is one listed idiom. Each may end in a tail that pops its
// result into a register or frame word, branches on it (brz/brnz on a
// pop), or both (pop rZ; brz rZ).
type blockKind uint8

const (
	blockPushPushALU   blockKind = iota // push s1; push s2; alu: each s an immediate, register or frame word
	blockPushALU                        // push s2; alu: src1 is the entry stack top
	blockPopPopALUPush                  // pop rX; pop rY; alu rY, rX, rZ; push rZ
	blockMovPush                        // mov #k, rA; push rA
	numBlockKinds
)

// block is one compiled idiom and its tail.
type block struct {
	kind    blockKind
	n       int    // instructions covered
	ops     []fop  // their own closures: the fallback
	pops    int32  // temp words below the entry depth it pops
	top     uint32 // offset of the highest temp word it touches from the lowest
	frame   bool   // it touches frame words, from FP+flo to FP+flo+fspan
	flo     uint32
	fspan   uint32
	s1, s2  Operand // pushed immediates, registers or frame words; s2 is mov #k's k
	x, y, z byte    // registers of pop rX; pop rY; alu rY, rX, rZ; push rZ (z: mov #k's rA)
	op      Op
	cc      byte
	divReg  int8    // register holding the divisor, or -1
	divTop  bool    // the divisor is the popped top word
	pop, br bool    // the tail pops the result into dst (if any), and branches on it
	dst     Operand // a register or frame word
	zero    bool    // brz, not brnz
	target  uint32
	cyc     uint64 // its instructions' charges, branch not taken
}

// read reads a pushed operand of a block whose guard has passed.
func (e *fexec) read(o *Operand) uint32 {
	switch o.Mode {
	case ModeImm:
		return o.Imm
	case ModeReg:
		return e.r[o.Reg&0xf]
	}
	return e.word(e.fp + uint32(o.Disp))
}

// inRange reports whether every word from addr to addr+span is inMem,
// their addresses computed as the instructions compute them.
func (e *fexec) inRange(addr, span uint32) bool {
	return addr != 0 && uint64(addr)+uint64(span)+4 <= uint64(len(e.mem))
}

// fallback runs a block's instructions one closure each, stopping at the
// first fault; unran counts the instructions after the faulting one.
func (e *fexec) fallback(ops []fop) {
	for i, op := range ops {
		op(e)
		if e.fault != 0 {
			e.unran = int32(len(ops) - 1 - i)
			return
		}
	}
}

// compile returns the block's closure. Its guard checks, before any
// write, that the entry depth covers the pops, that the temp-stack words
// from the lowest it touches (index b, at address at) and the frame words
// it touches are in memory, and that the divisor is nonzero. The result
// lands in the lowest temp word, which a tail pops. Kept out of Fuse, so
// the closure's own calls inline.
//
//go:noinline
func (bk *block) compile() fop {
	return func(e *fexec) {
		b := e.depth - bk.pops
		at := e.tempBase + 4*uint32(b)
		if b < 0 || !e.inRange(at, bk.top) || bk.frame && !e.inRange(e.fp+bk.flo, bk.fspan) ||
			bk.divReg >= 0 && e.r[bk.divReg&0xf] == 0 || bk.divTop && e.word(at+4) == 0 {
			e.fallback(bk.ops)
			return
		}
		var r uint32
		switch bk.kind {
		case blockPushPushALU, blockPushALU:
			var a uint32
			if bk.kind == blockPushALU {
				a = e.word(at)
			} else {
				a = e.read(&bk.s1)
				e.putWord(at, a)
			}
			v := e.read(&bk.s2)
			e.putWord(at+4, v)
			r = aluVal(bk.op, bk.cc, a, v)
		case blockPopPopALUPush:
			x, y := e.word(at+4), e.word(at)
			e.r[bk.x], e.r[bk.y] = x, y
			r = aluVal(bk.op, bk.cc, y, x)
			e.r[bk.z] = r
		case blockMovPush:
			r = bk.s2.Imm
			e.r[bk.z] = r
		}
		e.putWord(at, r)
		e.cycles += bk.cyc
		e.depth = b + 1
		if bk.pop {
			e.depth = b
			switch bk.dst.Mode {
			case ModeReg:
				e.r[bk.dst.Reg&0xf] = r
			case ModeFrame:
				e.putWord(e.fp+uint32(bk.dst.Disp), r)
			}
			if bk.br && (r == 0) == bk.zero {
				e.npc = bk.target
				e.cycles++
			}
		}
	}
}

// match returns the block of the listed idiom ins (the rest of a run)
// starts with, or nil.
func (b *fuser) match(ins []Instr) *block {
	bk := idiom(ins)
	if bk == nil {
		return nil
	}

	// The tail, unless its pop starts the next idiom.
	if tail := instrAt(ins, bk.n); popped(tail) && idiom(ins[bk.n:]) == nil {
		bk.pop, bk.dst = true, tail.Operands[1]
		bk.n++
		if bk.dst.Mode == ModeReg && isBranch(instrAt(ins, bk.n), bk.dst) {
			bk.br = true
			bk.n++
		}
	} else if isBranch(instrAt(ins, bk.n), Pop()) {
		bk.pop, bk.br = true, true
		bk.n++
	}
	if bk.br {
		bk.zero, bk.target = ins[bk.n-1].Op == OpBrz, uint32(ins[bk.n-1].Target)
	}

	// What the guard checks and what the block charges, from the
	// instructions themselves.
	d, lo, hi, fhi := int32(0), int32(0), int32(-1<<30), uint32(0)
	for _, in := range ins[:bk.n] {
		bk.cyc += uint64(b.s.Cycles[in.Op])
		for _, o := range in.Operands[:in.N] {
			switch o.Mode {
			case ModePop:
				d--
				lo, hi = min(lo, d), max(hi, d)
			case ModePush:
				lo, hi = min(lo, d), max(hi, d)
				d++
			case ModeFrame:
				d := uint32(o.Disp)
				if !bk.frame {
					bk.frame, bk.flo, fhi = true, d, d
				}
				bk.flo, fhi = min(bk.flo, d), max(fhi, d)
			}
			if o.Mode != ModeImm && o.Mode != ModeReg {
				bk.cyc += uint64(b.s.MemCycles)
			}
		}
	}
	bk.pops, bk.top, bk.fspan = -lo, 4*uint32(hi-lo), fhi-bk.flo
	return bk
}

// instrAt returns ins[i], or an instruction no idiom matches past the end.
func instrAt(ins []Instr, i int) *Instr {
	if i < len(ins) {
		return &ins[i]
	}
	return &Instr{Op: NumOp}
}

// idiom returns the block of the listed idiom ins starts with, tail
// aside, or nil.
func idiom(ins []Instr) *block {
	i0, i1, i2, i3 := instrAt(ins, 0), instrAt(ins, 1), instrAt(ins, 2), instrAt(ins, 3)
	x, y, z := i0.Operands[1], i1.Operands[1], i2.Operands[2]
	bk := &block{divReg: -1}
	switch {
	case pushed(i0) && pushed(i1) && stackALU(i2):
		bk.kind, bk.s1, bk.s2, bk.op, bk.cc, bk.n = blockPushPushALU, i0.Operands[0], i1.Operands[0], i2.Op, i2.CC, 3
	case pushed(i0) && stackALU(i1):
		bk.kind, bk.s2, bk.op, bk.cc, bk.n = blockPushALU, i0.Operands[0], i1.Op, i1.CC, 2
	case isMov(i0, Pop(), x) && isMov(i1, Pop(), y) && x.Mode == ModeReg && y.Mode == ModeReg &&
		x.Reg&0xf != y.Reg&0xf && isIntALU(i2.Op) && i2.Operands == [3]Operand{y, x, z} && z.Mode == ModeReg &&
		isMov(i3, z, Push()):
		bk.kind, bk.op, bk.cc, bk.n = blockPopPopALUPush, i2.Op, i2.CC, 4
		bk.x, bk.y, bk.z = x.Reg&0xf, y.Reg&0xf, z.Reg&0xf
	case i0.Op == OpMov && i0.Operands[0].Mode == ModeImm && x.Mode == ModeReg && isMov(i1, x, Push()):
		bk.kind, bk.s2, bk.z, bk.n = blockMovPush, i0.Operands[0], x.Reg&0xf, 2
	default:
		return nil
	}
	if bk.op == OpDiv || bk.op == OpMod {
		switch {
		case bk.kind == blockPopPopALUPush:
			bk.divTop = true
		case bk.s2.Mode == ModeReg:
			bk.divReg = int8(bk.s2.Reg & 0xf)
		case bk.s2.Mode != ModeImm || bk.s2.Imm == 0:
			return nil // a frame divisor may alias a word the block writes first
		}
	}
	return bk
}

func isIntALU(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpScc:
		return true
	}
	return false
}

// stackALU reports in as an integer alu (tp)+, (tp)+, -(tp).
func stackALU(in *Instr) bool {
	return isIntALU(in.Op) && in.Operands == [3]Operand{Pop(), Pop(), Push()}
}

func isMov(in *Instr, src, dst Operand) bool {
	return in.Op == OpMov && in.Operands == [3]Operand{src, dst}
}

// isBranch reports in as brz or brnz on o.
func isBranch(in *Instr, o Operand) bool {
	return (in.Op == OpBrz || in.Op == OpBrnz) && in.Operands == [3]Operand{o}
}

// pushed reports in as mov s, -(tp) with s an immediate, register or
// frame word.
func pushed(in *Instr) bool {
	m := in.Operands[0].Mode
	return in.Op == OpMov && in.Operands[1].Mode == ModePush && (m == ModeImm || m == ModeReg || m == ModeFrame)
}

// popped reports in as mov (tp)+, d with d a register or frame word.
func popped(in *Instr) bool {
	m := in.Operands[1].Mode
	return in.Op == OpMov && in.Operands[0].Mode == ModePop && (m == ModeReg || m == ModeFrame)
}
