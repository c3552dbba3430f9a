// Package arch defines the three simulated instruction-set architectures of
// the prototype — a VAX-like CISC, an M68K-like CISC and a SPARC-like RISC —
// together with byte-level instruction codecs, cycle-cost models and an
// emulator.
//
// The ISAs are deliberately small, but they diverge in exactly the
// dimensions the paper identifies as the hard part of heterogeneous native
// code mobility (§1, §2.2.1):
//
//   - byte order (VAX little endian; M68K and SPARC big endian),
//   - floating point format (VAX F-float vs IEEE 754),
//   - register files and the number of callee-saved variable homes,
//   - instruction sets (CISC memory-to-memory vs RISC load/store, which
//     "RISCifies" one abstract operation into several instructions),
//   - instruction encodings and lengths, hence program-counter values,
//   - atomicity (the VAX has an atomic UNLINKQ used for monitor exit; the
//     others must make a system call, §3.3).
//
// Machine code is genuinely encoded to bytes and decoded again by the
// emulator; program counters are real byte offsets that differ between
// architectures for the same program point.
package arch

import (
	"encoding/binary"
	"fmt"
)

// ID identifies an architecture.
type ID byte

// Architectures of the prototype network. Sun-3 and HP9000/300 machines
// share the M68K ISA (they differ in clock rate, modelled per node).
const (
	VAX ID = iota
	M68K
	SPARC
	NumArch
)

// String returns the architecture name.
func (id ID) String() string {
	switch id {
	case VAX:
		return "vax"
	case M68K:
		return "m68k"
	case SPARC:
		return "sparc"
	}
	return fmt.Sprintf("arch(%d)", byte(id))
}

// All lists every architecture.
func All() []ID { return []ID{VAX, M68K, SPARC} }

// ---------------------------------------------------------------- machine ops

// Op is a machine operation in the generic vocabulary. Each architecture
// supports a subset, with its own opcode numbers, operand-mode restrictions
// and encodings.
type Op byte

// Machine operations. Three-operand ALU ops take (src1, src2, dst); with
// stack modes, src2 is popped before src1 (so src1 is the deeper operand).
const (
	OpMov   Op = iota // mov src, dst
	OpAdd             // int src1+src2 -> dst
	OpSub             // src1-src2
	OpMul             //
	OpDiv             // faults on zero divisor
	OpMod             // faults on zero divisor
	OpNeg             // -src -> dst
	OpAbs             // |src| -> dst
	OpNot             // boolean not
	OpAnd             // boolean and
	OpOr              // boolean or
	OpFAdd            // float src1+src2 -> dst (architecture float format)
	OpFSub            //
	OpFMul            //
	OpFDiv            // faults on zero divisor
	OpFNeg            //
	OpCvt             // int src -> float dst
	OpScc             // set dst to (src1 CC src2), integer
	OpFScc            // float compare
	OpSScc            // string compare (src1, src2 are string refs)
	OpJmp             // jump to target (function-relative byte offset)
	OpBrz             // branch to target if src == 0
	OpBrnz            // branch to target if src != 0
	OpALoad           // dst = src1[src2] (array element)
	OpAStor           // src1[src2] = src3 (array, index, value)
	OpALen            // dst = length of array src
	OpSLen            // dst = length of string src
	OpSIdx            // dst = byte src2 of string src1
	OpPoll            // loop-bottom poll: trap TrapYield if preempt flag set
	OpRet             // return from operation (kernel trap)
	OpTrap            // kernel system call: kind, a, b
	OpUnlq            // atomic unlink: monitor exit in one instruction (VAX only)
	NumOp
)

var opNames = [NumOp]string{
	OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpMod: "mod", OpNeg: "neg", OpAbs: "abs", OpNot: "not", OpAnd: "and",
	OpOr: "or", OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpCvt: "cvt", OpScc: "scc", OpFScc: "fscc", OpSScc: "sscc",
	OpJmp: "jmp", OpBrz: "brz", OpBrnz: "brnz",
	OpALoad: "aload", OpAStor: "astor", OpALen: "alen", OpSLen: "slen",
	OpSIdx: "sidx", OpPoll: "poll", OpRet: "ret", OpTrap: "trap", OpUnlq: "unlq",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("mop(%d)", byte(o))
}

// nsrc/ndst per op, used by the codec and executor.
type opShape struct {
	nOperands int
	// dstIdx is the operand index written (or -1). For branches the last
	// operand is the target.
	dstIdx    int
	hasTarget bool
	hasCC     bool // carries a condition code
}

var shapes = [NumOp]opShape{
	OpMov:   {2, 1, false, false},
	OpAdd:   {3, 2, false, false},
	OpSub:   {3, 2, false, false},
	OpMul:   {3, 2, false, false},
	OpDiv:   {3, 2, false, false},
	OpMod:   {3, 2, false, false},
	OpNeg:   {2, 1, false, false},
	OpAbs:   {2, 1, false, false},
	OpNot:   {2, 1, false, false},
	OpAnd:   {3, 2, false, false},
	OpOr:    {3, 2, false, false},
	OpFAdd:  {3, 2, false, false},
	OpFSub:  {3, 2, false, false},
	OpFMul:  {3, 2, false, false},
	OpFDiv:  {3, 2, false, false},
	OpFNeg:  {2, 1, false, false},
	OpCvt:   {2, 1, false, false},
	OpScc:   {3, 2, false, true},
	OpFScc:  {3, 2, false, true},
	OpSScc:  {3, 2, false, true},
	OpJmp:   {0, -1, true, false},
	OpBrz:   {1, -1, true, false},
	OpBrnz:  {1, -1, true, false},
	OpALoad: {3, 2, false, false},
	OpAStor: {3, -1, false, false},
	OpALen:  {2, 1, false, false},
	OpSLen:  {2, 1, false, false},
	OpSIdx:  {3, 2, false, false},
	OpPoll:  {0, -1, false, false},
	OpRet:   {0, -1, false, false},
	OpTrap:  {0, -1, false, false},
	OpUnlq:  {0, -1, false, false},
}

// ---------------------------------------------------------------- operands

// Mode is an operand addressing mode.
type Mode byte

// Operand addressing modes. Pop/Push address the per-activation evaluation
// stack (the temporary area of the activation record) through the CPU's
// temp pointer, in the style of the VAX auto-increment/decrement modes.
const (
	ModeNone  Mode = iota
	ModeImm        // 32-bit immediate (floats in architecture format)
	ModeReg        // general register
	ModeFrame      // word at FP + disp
	ModeSelf       // word at self data area + disp
	ModeLit        // word at literal table entry idx (interned string refs)
	ModePop        // pop the evaluation stack (source only)
	ModePush       // push onto the evaluation stack (destination only)
)

func (m Mode) String() string {
	switch m {
	case ModeImm:
		return "imm"
	case ModeReg:
		return "reg"
	case ModeFrame:
		return "frame"
	case ModeSelf:
		return "self"
	case ModeLit:
		return "lit"
	case ModePop:
		return "pop"
	case ModePush:
		return "push"
	}
	return "none"
}

// Operand is a decoded operand.
type Operand struct {
	Mode Mode
	Reg  byte
	Disp uint16 // frame/self byte displacement or literal index
	Imm  uint32
}

// String renders the operand.
func (o Operand) String() string {
	switch o.Mode {
	case ModeImm:
		return fmt.Sprintf("#%#x", o.Imm)
	case ModeReg:
		return fmt.Sprintf("r%d", o.Reg)
	case ModeFrame:
		return fmt.Sprintf("%d(fp)", o.Disp)
	case ModeSelf:
		return fmt.Sprintf("%d(self)", o.Disp)
	case ModeLit:
		return fmt.Sprintf("lit[%d]", o.Disp)
	case ModePop:
		return "(tp)+"
	case ModePush:
		return "-(tp)"
	}
	return "?"
}

// Reg / Imm / Frame / SelfOp / Lit / Pop / Push are operand constructors.
func Reg(r byte) Operand         { return Operand{Mode: ModeReg, Reg: r} }
func Imm(v uint32) Operand       { return Operand{Mode: ModeImm, Imm: v} }
func Frame(disp uint16) Operand  { return Operand{Mode: ModeFrame, Disp: disp} }
func SelfOp(disp uint16) Operand { return Operand{Mode: ModeSelf, Disp: disp} }
func Lit(idx uint16) Operand     { return Operand{Mode: ModeLit, Disp: idx} }
func Pop() Operand               { return Operand{Mode: ModePop} }
func Push() Operand              { return Operand{Mode: ModePush} }

// Instr is a decoded machine instruction.
type Instr struct {
	Op       Op
	CC       byte // condition code for Scc family (ir.Cmp* values)
	Operands [3]Operand
	N        byte   // operand count
	Target   uint16 // branch target (function-relative byte offset)
	TrapKind TrapKind
	TrapA    uint16
	TrapB    uint16
	Size     uint32 // encoded size in bytes
}

// String renders the instruction in assembly-like form.
func (i Instr) String() string {
	switch i.Op {
	case OpJmp:
		return fmt.Sprintf("jmp %#x", i.Target)
	case OpBrz, OpBrnz:
		return fmt.Sprintf("%s %s, %#x", i.Op, i.Operands[0], i.Target)
	case OpTrap:
		return fmt.Sprintf("trap %s, %d, %d", i.TrapKind, i.TrapA, i.TrapB)
	case OpScc, OpFScc, OpSScc:
		s := fmt.Sprintf("%s.%d", i.Op, i.CC)
		for k := 0; k < int(i.N); k++ {
			s += fmt.Sprintf(" %s", i.Operands[k])
			if k+1 < int(i.N) {
				s += ","
			}
		}
		return s
	}
	s := i.Op.String()
	for k := 0; k < int(i.N); k++ {
		if k == 0 {
			s += " "
		} else {
			s += ", "
		}
		s += i.Operands[k].String()
	}
	return s
}

// ---------------------------------------------------------------- traps

// TrapKind identifies a kernel service requested by machine code. Every
// trap site is a bus stop.
type TrapKind byte

// Kernel trap kinds.
const (
	TrapNone     TrapKind = iota
	TrapCall              // invoke operation named name[A] on popped receiver; B = argc
	TrapNew               // create instance of object named name[A]; B = argc
	TrapNewArray          // pop length; create array with element kind B
	TrapPrint             // pop B values with kinds name[A]
	TrapNodes
	TrapThisNode
	TrapNodeAt
	TrapTimeMS
	TrapYield    // explicit reschedule, also produced by OpPoll preemption
	TrapStrOf    // pop value with kind letter name[A][0]
	TrapConcat   // pop two strings, push concatenation
	TrapMove     // pop node, ref
	TrapFix      // pop node, ref
	TrapRefix    // pop node, ref
	TrapUnfix    // pop ref
	TrapLocate   // pop ref, push node
	TrapWait     // pop condition index
	TrapSignal   // pop condition index
	TrapALoad    // pop index, array ref; push element (B = element kind)
	TrapAStore   // pop value, index, array ref (B = element kind)
	TrapALen     // pop array ref; push length
	TrapMonExit  // release the monitor of self (syscall form)
	TrapMonExitA // atomic monitor exit (VAX UNLINKQ); handled without scheduling
	TrapRet      // return from the current activation
	TrapFault    // runtime error; A encodes a FaultCode
	NumTrap
)

var trapNames = [NumTrap]string{
	TrapNone: "none", TrapCall: "call", TrapNew: "new", TrapNewArray: "newarray",
	TrapPrint: "print", TrapNodes: "nodes", TrapThisNode: "thisnode",
	TrapNodeAt: "nodeat", TrapTimeMS: "timems", TrapYield: "yield",
	TrapStrOf: "strof", TrapConcat: "concat", TrapMove: "move", TrapFix: "fix",
	TrapRefix: "refix", TrapUnfix: "unfix", TrapLocate: "locate",
	TrapWait: "wait", TrapSignal: "signal",
	TrapALoad: "aload", TrapAStore: "astore", TrapALen: "alen",
	TrapMonExit:  "monexit",
	TrapMonExitA: "monexit.atomic", TrapRet: "ret", TrapFault: "fault",
}

// String returns the trap name.
func (k TrapKind) String() string {
	if int(k) < len(trapNames) {
		return trapNames[k]
	}
	return fmt.Sprintf("trap(%d)", byte(k))
}

// FaultCode identifies a machine-detected runtime error.
type FaultCode uint16

// Fault codes.
const (
	FaultDivZero FaultCode = iota + 1
	FaultBounds
	FaultNilRef
	FaultStack
)

// String renders the fault.
func (f FaultCode) String() string {
	switch f {
	case FaultDivZero:
		return "division by zero"
	case FaultBounds:
		return "index out of bounds"
	case FaultNilRef:
		return "nil reference"
	case FaultStack:
		return "evaluation stack fault"
	}
	return fmt.Sprintf("fault(%d)", uint16(f))
}

// Trap is delivered to the kernel when machine code needs service. PC is
// the address of the *next* instruction (the resumption point — and, for
// call/syscall stops, the bus stop PC).
type Trap struct {
	Kind  TrapKind
	A, B  uint16
	PC    uint32
	Fault FaultCode
}

// ---------------------------------------------------------------- specs

// EncodingStyle selects the instruction encoding family.
type EncodingStyle byte

// Encoding styles.
const (
	EncVariableCISC EncodingStyle = iota // opcode + self-describing operands
	EncFixedRISC                         // 4-byte words (8 for immediates/traps)
)

// Spec describes one architecture.
type Spec struct {
	ID   ID
	Name string
	// ByteOrd is binary.BigEndian or binary.LittleEndian: the emulator
	// resolves it to one of the two once per Run or Step call.
	ByteOrd binary.ByteOrder
	Style   EncodingStyle
	NumRegs int
	// HomeRegs are the callee-saved registers used as variable homes, in
	// assignment order. Their count differs per ISA, so the same variable
	// may be a register on one machine and memory on another.
	HomeRegs []byte
	// ScratchRegs are used by RISC lowering for intermediate values.
	ScratchRegs []byte
	// OpcodeBase scrambles opcode numbering so the encodings are genuinely
	// different between ISAs (opcode byte = rot8(op*OpcodeMul + OpcodeBase)).
	OpcodeBase byte
	OpcodeMul  byte // must be odd so the mapping is invertible mod 256
	Float      FloatCodec
	// HasAtomicUnlink: monitor exit compiles to a single UNLINKQ
	// instruction instead of a system call (§3.3).
	HasAtomicUnlink bool
	// Cycles gives the base cost of each machine op; operand modes add
	// memCycles per memory operand.
	Cycles    [NumOp]uint32
	MemCycles uint32
	// TrapCycles is the base cost of entering the kernel.
	TrapCycles uint32
}

// opcodeByte returns the architecture opcode byte for a generic op.
func (s *Spec) opcodeByte(op Op) byte { return byte(op)*s.OpcodeMul + s.OpcodeBase }

// opFromByte inverts opcodeByte.
func (s *Spec) opFromByte(b byte) (Op, error) {
	// Invert b = op*mul + base (mod 256) via the modular inverse of mul.
	inv := modInverse(s.OpcodeMul)
	op := Op((b - s.OpcodeBase) * inv)
	if op >= NumOp {
		return 0, fmt.Errorf("%s: illegal opcode byte %#x", s.Name, b)
	}
	return op, nil
}

// modInverse returns the multiplicative inverse of odd a modulo 256.
func modInverse(a byte) byte {
	var x byte = 1
	for i := 0; i < 8; i++ { // Newton iteration converges for mod 2^k
		x = x * (2 - a*x)
	}
	return x
}

// Supports reports whether the spec's executor accepts the operand mode at
// position idx of op: RISC ALU ops are register-only, and only moves may
// touch memory (one memory operand per instruction).
func (s *Spec) Supports(op Op, operands []Operand) error {
	if s.Style == EncVariableCISC {
		return nil
	}
	memCount := 0
	for _, o := range operands {
		switch o.Mode {
		case ModeFrame, ModeSelf, ModeLit, ModePop, ModePush:
			memCount++
		}
	}
	switch op {
	case OpMov:
		if memCount > 1 {
			return fmt.Errorf("%s: mov with %d memory operands", s.Name, memCount)
		}
		return nil
	case OpJmp, OpPoll, OpRet, OpTrap, OpUnlq:
		return nil
	case OpALoad, OpAStor, OpALen, OpSLen, OpSIdx, OpSScc:
		// Millicode helpers: register operands only.
		fallthrough
	default:
		for _, o := range operands {
			if o.Mode != ModeReg && o.Mode != ModeNone {
				return fmt.Errorf("%s: %v operand in %v", s.Name, o.Mode, op)
			}
		}
		if memCount > 0 {
			return fmt.Errorf("%s: memory operand in ALU op %v", s.Name, op)
		}
	}
	return nil
}
