// The emulator: executes encoded machine code against simulated node
// memory, one instruction at a time, until it faults or traps to the
// kernel. The kernel (internal/kernel) owns everything above this level —
// threads, activation records, objects, scheduling — and resumes execution
// by calling Step again with updated CPU state.

package arch

import (
	"bytes"
	"fmt"

	"repro/internal/ir"
)

// Heap object layout (the machine ABI shared by the code generator, the
// emulator's inline array/string operations and the kernel):
//
//	plain object:  [table index][slot 0][slot 1]...
//	array:         [table index][length][element 0]...
//	string:        [table index][length][bytes..., zero padded to a word]
//
// References point at the table-index header word; 0 is nil.
const (
	HeaderBytes = 4 // table index word
	LenOff      = 4 // length word of arrays and strings
	ArrDataOff  = 8 // first element / first byte
	ObjDataOff  = 4 // first slot of a plain object
)

// CPU is the register state of one native thread.
type CPU struct {
	Regs      [16]uint32
	PC        uint32 // offset within the current function's code
	FP        uint32 // activation record base address
	Self      uint32 // data area address of the receiver (header word)
	TempBase  uint32 // base address of the activation's temporary area
	TempDepth int32  // current evaluation stack depth (slots)
	LitBase   uint32 // literal table of the current code object
	Preempt   bool   // set by the kernel to request a reschedule at the next poll
}

// Step executes the instruction at cpu.PC, updating cpu and mem, and
// returns the consumed cycles plus a non-nil trap if the kernel must take
// over. A returned error indicates a simulator-internal inconsistency
// (undecodable code), not a program-level fault — program faults are
// delivered as TrapFault traps.
func Step(s *Spec, cpu *CPU, code []byte, mem []byte) (*Trap, uint32, error) {
	return step(s, cpu, code, mem, cpu.Preempt)
}

// step is Step with the reschedule request a poll obeys passed in.
func step(s *Spec, cpu *CPU, code []byte, mem []byte, preempt bool) (*Trap, uint32, error) {
	in, err := Decode(s, code, cpu.PC)
	if err != nil {
		return nil, 0, err
	}
	next := cpu.PC + in.Size
	cycles := s.Cycles[in.Op]
	fault := func(f FaultCode) (*Trap, uint32, error) {
		return &Trap{Kind: TrapFault, Fault: f, PC: next}, cycles, nil
	}

	ld32 := func(addr uint32) (uint32, bool) {
		if int(addr)+4 > len(mem) || addr == 0 {
			return 0, false
		}
		return s.ByteOrd.Uint32(mem[addr : addr+4]), true
	}
	st32 := func(addr, v uint32) bool {
		if int(addr)+4 > len(mem) || addr == 0 {
			return false
		}
		s.ByteOrd.PutUint32(mem[addr:addr+4], v)
		return true
	}

	var faulted *FaultCode
	setFault := func(f FaultCode) uint32 {
		if faulted == nil {
			faulted = &f
		}
		return 0
	}
	// read evaluates a source operand.
	read := func(o Operand) uint32 {
		switch o.Mode {
		case ModeImm:
			return o.Imm
		case ModeReg:
			return cpu.Regs[o.Reg&0xf]
		case ModeFrame:
			cycles += s.MemCycles
			v, ok := ld32(cpu.FP + uint32(o.Disp))
			if !ok {
				return setFault(FaultStack)
			}
			return v
		case ModeSelf:
			cycles += s.MemCycles
			v, ok := ld32(cpu.Self + ObjDataOff + uint32(o.Disp))
			if !ok {
				return setFault(FaultNilRef)
			}
			return v
		case ModeLit:
			cycles += s.MemCycles
			v, ok := ld32(cpu.LitBase + 4*uint32(o.Disp))
			if !ok {
				return setFault(FaultNilRef)
			}
			return v
		case ModePop:
			cycles += s.MemCycles
			if cpu.TempDepth <= 0 {
				return setFault(FaultStack)
			}
			cpu.TempDepth--
			v, ok := ld32(cpu.TempBase + 4*uint32(cpu.TempDepth))
			if !ok {
				return setFault(FaultStack)
			}
			return v
		}
		setFault(FaultStack)
		return 0
	}
	// write stores to a destination operand.
	write := func(o Operand, v uint32) {
		switch o.Mode {
		case ModeReg:
			cpu.Regs[o.Reg&0xf] = v
		case ModeFrame:
			cycles += s.MemCycles
			if !st32(cpu.FP+uint32(o.Disp), v) {
				setFault(FaultStack)
			}
		case ModeSelf:
			cycles += s.MemCycles
			if !st32(cpu.Self+ObjDataOff+uint32(o.Disp), v) {
				setFault(FaultNilRef)
			}
		case ModePush:
			cycles += s.MemCycles
			if !st32(cpu.TempBase+4*uint32(cpu.TempDepth), v) {
				setFault(FaultStack)
			} else {
				cpu.TempDepth++
			}
		default:
			setFault(FaultStack)
		}
	}
	// readString fetches a string's bytes.
	readString := func(ref uint32) ([]byte, bool) {
		if ref == 0 {
			return nil, false
		}
		n, ok := ld32(ref + LenOff)
		if !ok || int(ref)+ArrDataOff+int(n) > len(mem) {
			return nil, false
		}
		return mem[ref+ArrDataOff : ref+ArrDataOff+n], true
	}
	cmp := func(cc byte, lt, eq bool) uint32 {
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
		if r {
			return 1
		}
		return 0
	}

	switch in.Op {
	case OpMov:
		write(in.Operands[1], read(in.Operands[0]))
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpScc:
		// With stack operands, src2 (the top) is popped before src1.
		b := read(in.Operands[1])
		a := read(in.Operands[0])
		if faulted == nil {
			var v uint32
			switch in.Op {
			case OpAdd:
				v = uint32(int32(a) + int32(b))
			case OpSub:
				v = uint32(int32(a) - int32(b))
			case OpMul:
				v = uint32(int32(a) * int32(b))
			case OpDiv:
				if b == 0 {
					return fault(FaultDivZero)
				}
				v = uint32(int32(a) / int32(b))
			case OpMod:
				if b == 0 {
					return fault(FaultDivZero)
				}
				v = uint32(int32(a) % int32(b))
			case OpAnd:
				v = boolW(a != 0 && b != 0)
			case OpOr:
				v = boolW(a != 0 || b != 0)
			case OpScc:
				v = cmp(in.CC, int32(a) < int32(b), a == b)
			}
			write(in.Operands[2], v)
		}
	case OpNeg, OpAbs, OpNot:
		a := read(in.Operands[0])
		if faulted == nil {
			var v uint32
			switch in.Op {
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
			write(in.Operands[1], v)
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFScc:
		b := s.Float.Dec(read(in.Operands[1]))
		a := s.Float.Dec(read(in.Operands[0]))
		if faulted == nil {
			switch in.Op {
			case OpFAdd:
				write(in.Operands[2], s.Float.Enc(a+b))
			case OpFSub:
				write(in.Operands[2], s.Float.Enc(a-b))
			case OpFMul:
				write(in.Operands[2], s.Float.Enc(a*b))
			case OpFDiv:
				if b == 0 {
					return fault(FaultDivZero)
				}
				write(in.Operands[2], s.Float.Enc(a/b))
			case OpFScc:
				write(in.Operands[2], cmp(in.CC, a < b, a == b))
			}
		}
	case OpFNeg:
		a := s.Float.Dec(read(in.Operands[0]))
		if faulted == nil {
			write(in.Operands[1], s.Float.Enc(-a))
		}
	case OpCvt:
		a := int32(read(in.Operands[0]))
		if faulted == nil {
			write(in.Operands[1], s.Float.Enc(float32(a)))
		}
	case OpSScc:
		bref := read(in.Operands[1])
		aref := read(in.Operands[0])
		if faulted == nil {
			as, ok1 := readString(aref)
			bs, ok2 := readString(bref)
			if !ok1 || !ok2 {
				return fault(FaultNilRef)
			}
			cycles += uint32(min(len(as), len(bs)))
			c := bytes.Compare(as, bs)
			write(in.Operands[2], cmp(in.CC, c < 0, c == 0))
		}
	case OpJmp:
		next = uint32(in.Target)
	case OpBrz, OpBrnz:
		v := read(in.Operands[0])
		if faulted == nil {
			if (v == 0) == (in.Op == OpBrz) {
				next = uint32(in.Target)
				cycles += 1 // taken-branch penalty
			}
		}
	case OpALoad:
		idx := read(in.Operands[1])
		arr := read(in.Operands[0])
		if faulted == nil {
			if arr == 0 {
				return fault(FaultNilRef)
			}
			n, ok := ld32(arr + LenOff)
			if !ok {
				return fault(FaultNilRef)
			}
			if idx >= n {
				return fault(FaultBounds)
			}
			v, ok := ld32(arr + ArrDataOff + 4*idx)
			if !ok {
				return fault(FaultBounds)
			}
			write(in.Operands[2], v)
		}
	case OpAStor:
		v := read(in.Operands[2])
		idx := read(in.Operands[1])
		arr := read(in.Operands[0])
		if faulted == nil {
			if arr == 0 {
				return fault(FaultNilRef)
			}
			n, ok := ld32(arr + LenOff)
			if !ok {
				return fault(FaultNilRef)
			}
			if idx >= n {
				return fault(FaultBounds)
			}
			if !st32(arr+ArrDataOff+4*idx, v) {
				return fault(FaultBounds)
			}
		}
	case OpALen, OpSLen:
		ref := read(in.Operands[0])
		if faulted == nil {
			if ref == 0 {
				return fault(FaultNilRef)
			}
			n, ok := ld32(ref + LenOff)
			if !ok {
				return fault(FaultNilRef)
			}
			write(in.Operands[1], n)
		}
	case OpSIdx:
		idx := read(in.Operands[1])
		ref := read(in.Operands[0])
		if faulted == nil {
			str, ok := readString(ref)
			if !ok {
				return fault(FaultNilRef)
			}
			if idx >= uint32(len(str)) {
				return fault(FaultBounds)
			}
			write(in.Operands[2], uint32(str[idx]))
		}
	case OpPoll:
		if preempt {
			cpu.PC = next
			return &Trap{Kind: TrapYield, PC: next}, cycles + s.TrapCycles, nil
		}
	case OpRet:
		cpu.PC = next
		return &Trap{Kind: TrapRet, PC: next}, cycles + s.TrapCycles, nil
	case OpTrap:
		cpu.PC = next
		return &Trap{Kind: in.TrapKind, A: in.TrapA, B: in.TrapB, PC: next},
			cycles + s.TrapCycles, nil
	case OpUnlq:
		// Atomic doubly-linked-list unlink: monitor exit in one
		// non-interruptible instruction. The kernel performs the unlink and
		// resumes the thread immediately — no scheduling point, so the local
		// runtime never observes this PC (the bus stop here is exit-only).
		cpu.PC = next
		return &Trap{Kind: TrapMonExitA, PC: next}, cycles, nil
	default:
		return nil, 0, fmt.Errorf("%s: unimplemented op %v at %#x", s.Name, in.Op, cpu.PC)
	}

	if faulted != nil {
		return &Trap{Kind: TrapFault, Fault: *faulted, PC: next}, cycles, nil
	}
	cpu.PC = next
	return nil, cycles, nil
}

func boolW(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// RunawayInstrs bounds how far a Run rolls forward past its budget: only
// a poll-free loop (codegen.Options.OmitLoopPolls) gets that far.
const RunawayInstrs = 1 << 24

// ErrRunaway ends a Run that reached RunawayInstrs past its budget.
var ErrRunaway = fmt.Errorf("no kernel entry within %d instructions past the slice budget", RunawayInstrs)

// RunLegacy executes instructions until one enters the kernel, returning
// the trap, the cycles consumed and the instruction count, or a nil trap
// and an error (undecodable code, ErrRunaway). The budget only requests a
// reschedule: a poll yields iff cpu.Preempt is set or at least budget
// instructions of this call preceded it. It is the byte-at-a-time
// reference the fused dispatcher (fexec.go) is validated against.
func RunLegacy(s *Spec, cpu *CPU, code []byte, mem []byte, budget int) (*Trap, uint64, int, error) {
	var cycles uint64
	for n := 0; ; n++ {
		if n >= budget+RunawayInstrs {
			return nil, cycles, n, ErrRunaway
		}
		tr, c, err := step(s, cpu, code, mem, cpu.Preempt || n >= budget)
		cycles += uint64(c)
		if err != nil {
			return nil, cycles, n, err
		}
		if tr != nil {
			return tr, cycles, n + 1, nil
		}
	}
}
