// Package ir defines the machine-independent intermediate representation
// produced from checked Emerald-subset programs and consumed by the per-ISA
// native code generators (internal/codegen) and the byte-code interpreter
// (internal/interp).
//
// The IR is a statically typed stack machine over a per-activation
// evaluation-stack plus numbered frame variables. This mirrors the paper's
// compilation model: variables have fixed homes for the whole activation
// (one template per operation), and the number and kinds of live temporaries
// at every potential bus stop are statically known — exactly the information
// the enhanced Emerald compiler records per bus stop (§3.3).
//
// Operations that transfer control to the runtime kernel (operation
// invocations, object creation, system calls, loop bottoms) are the only
// program points the kernel can ever observe; they become bus stops in the
// generated native code.
package ir

import (
	"fmt"
	"sync"
)

// VK is the storage kind of a 32-bit value slot. Bool, Node and Condition
// values are stored as integers; every object/string/array reference is a
// pointer that must be swizzled when crossing the network.
type VK byte

// Value slot kinds.
const (
	VKInt  VK = iota // integer-like scalar (Int, Bool, Node, Condition)
	VKReal           // 32-bit floating point (format converted per ISA)
	VKPtr            // object reference (swizzled to an OID on the wire)
)

// String renders the kind as a single letter (i/r/p).
func (k VK) String() string {
	switch k {
	case VKInt:
		return "i"
	case VKReal:
		return "r"
	case VKPtr:
		return "p"
	}
	return "?"
}

// Op is an IR opcode.
type Op byte

// IR opcodes. The A operand is an integer immediate, jump target
// (instruction index), slot number, argument count, or comparison code; F is
// a float immediate; S indexes the function's string pool; K is a value
// kind where the operation is kind-generic.
const (
	Nop Op = iota

	// Pushes.
	PushInt  // push A
	PushReal // push F
	PushStr  // push string constant S (allocates-once per code object)
	PushNil  // push nil reference
	PushSelf // push reference to self

	// Frame and object variables.
	LoadVar   // push frame slot A
	StoreVar  // pop into frame slot A
	LoadMine  // push self's data slot A
	StoreMine // pop into self's data slot A

	// Integer arithmetic.
	AddI
	SubI
	MulI
	DivI // traps on zero divisor
	ModI // traps on zero divisor
	NegI
	AbsI

	// Real arithmetic (32-bit).
	AddR
	SubR
	MulR
	DivR
	NegR
	CvtIR // int -> real on top of stack

	// Booleans (ints 0/1).
	NotB
	AndB
	OrB

	// Comparisons: pop two, push bool. A is a Cmp* code.
	CmpI
	CmpR
	CmpS // string comparison (inline; strings are in node memory)
	CmpP // pointer identity; A must be CmpEQ or CmpNE

	// Strings and arrays (inline memory operations).
	SLen   // pop string, push length
	SIndex // pop index, string; push byte value; traps on bounds
	ALen   // pop array, push length
	ALoad  // pop index, array; push element (kind K); traps on bounds
	AStore // pop value, index, array; store; traps on bounds

	// Stack housekeeping.
	Drop

	// Control flow.
	Jump    // to instruction A
	BrFalse // pop; jump to A if zero
	BrTrue  // pop; jump to A if nonzero
	LoopBottom
	Ret

	// Kernel transfers (bus stops).
	Call     // pop A args then receiver; invoke operation named S
	New      // pop A args; create instance of object named S; push ref
	NewArray // pop length; push new array with element kind K

	SysPrint    // pop A args (kinds given by string S, e.g. "isr"), print line
	SysNodes    // push node count
	SysThisNode // push executing node
	SysNodeAt   // pop i, push node i
	SysTimeMS   // push simulated ms
	SysYield    // reschedule
	SysStrOf    // pop value of kind letter S[0] ('i','r','b','n'), push string
	SysConcat   // pop b, a; push a+b (allocates)
	SysMove     // pop target node, ref; move object
	SysFix      // pop node, ref
	SysRefix    // pop node, ref
	SysUnfix    // pop ref
	SysLocate   // pop ref; push node
	SysWait     // pop condition index (int); wait on self's condition
	SysSignal   // pop condition index; signal self's condition

	NumOps // sentinel
)

// Comparison codes for CmpI/CmpR/CmpS/CmpP.
const (
	CmpEQ = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// CmpName renders a comparison code.
func CmpName(c int) string {
	return [...]string{"eq", "ne", "lt", "le", "gt", "ge"}[c]
}

var opNames = [NumOps]string{
	Nop: "nop", PushInt: "pushint", PushReal: "pushreal", PushStr: "pushstr",
	PushNil: "pushnil", PushSelf: "pushself",
	LoadVar: "loadvar", StoreVar: "storevar", LoadMine: "loadmine", StoreMine: "storemine",
	AddI: "addi", SubI: "subi", MulI: "muli", DivI: "divi", ModI: "modi",
	NegI: "negi", AbsI: "absi",
	AddR: "addr", SubR: "subr", MulR: "mulr", DivR: "divr", NegR: "negr", CvtIR: "cvtir",
	NotB: "notb", AndB: "andb", OrB: "orb",
	CmpI: "cmpi", CmpR: "cmpr", CmpS: "cmps", CmpP: "cmpp",
	SLen: "slen", SIndex: "sindex", ALen: "alen", ALoad: "aload", AStore: "astore",
	Drop: "drop",
	Jump: "jump", BrFalse: "brfalse", BrTrue: "brtrue", LoopBottom: "loopbottom", Ret: "ret",
	Call: "call", New: "new", NewArray: "newarray",
	SysPrint: "sys.print", SysNodes: "sys.nodes", SysThisNode: "sys.thisnode",
	SysNodeAt: "sys.nodeat", SysTimeMS: "sys.timems", SysYield: "sys.yield",
	SysStrOf: "sys.strof", SysConcat: "sys.concat",
	SysMove: "sys.move", SysFix: "sys.fix", SysRefix: "sys.refix",
	SysUnfix: "sys.unfix", SysLocate: "sys.locate",
	SysWait: "sys.wait", SysSignal: "sys.signal",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Instr is one IR instruction.
type Instr struct {
	Op Op
	A  int32   // immediate / target / slot / argc / cmp code
	F  float64 // real immediate
	S  int32   // string pool index
	K  VK      // element kind for NewArray/ALoad/AStore
}

// String renders the instruction for dumps.
func (i Instr) String() string {
	switch i.Op {
	case PushInt:
		return fmt.Sprintf("pushint %d", i.A)
	case PushReal:
		return fmt.Sprintf("pushreal %g", i.F)
	case PushStr, SysStrOf:
		return fmt.Sprintf("%s s%d", i.Op, i.S)
	case LoadVar, StoreVar, LoadMine, StoreMine:
		return fmt.Sprintf("%s %d", i.Op, i.A)
	case CmpI, CmpR, CmpS, CmpP:
		return fmt.Sprintf("%s.%s", i.Op, CmpName(int(i.A)))
	case Jump, BrFalse, BrTrue:
		return fmt.Sprintf("%s @%d", i.Op, i.A)
	case Call, New:
		return fmt.Sprintf("%s s%d argc=%d", i.Op, i.S, i.A)
	case NewArray, ALoad, AStore:
		return fmt.Sprintf("%s.%s", i.Op, i.K)
	case SysPrint:
		return fmt.Sprintf("sys.print s%d argc=%d", i.S, i.A)
	}
	return i.Op.String()
}

// Func is one compiled function body.
type Func struct {
	Name       string
	OpName     string // operation name ("inc"), or "$init"/"$process"
	NumParams  int
	NumResults int
	NumVars    int  // params + results + locals (frame slots)
	VarKinds   []VK // length NumVars
	VarNames   []string
	Monitored  bool
	Code       []Instr
	Strings    []string // string pool (also operation/object names for Call/New)

	// The stack maps and liveness Facts computes once for codegen, pta and
	// vet alike. Loads of one program on two goroutines can vet the same
	// function, hence the Once.
	factsOnce sync.Once
	fi        *FuncInfo
	li        *LiveInfo
	factsErr  error
}

// Object is the compiled form of one object declaration.
type Object struct {
	Name      string
	Immutable bool
	VarKinds  []VK // data area layout
	VarNames  []string
	// MonitoredFrom is the first data slot index that is monitored (slots
	// [MonitoredFrom:] belong to the monitor section).
	MonitoredFrom int
	NumConds      int
	Funcs         []*Func // operations first (declaration order), then $init, then $process (if any)
	HasProcess    bool
}

// FuncIndex returns the index in Funcs of the operation named name, or -1.
func (o *Object) FuncIndex(name string) int {
	for i, f := range o.Funcs {
		if f.OpName == name {
			return i
		}
	}
	return -1
}

// Init returns the $init function.
func (o *Object) Init() *Func { return o.Funcs[o.FuncIndex("$init")] }

// Process returns the $process function or nil.
func (o *Object) Process() *Func {
	if i := o.FuncIndex("$process"); i >= 0 {
		return o.Funcs[i]
	}
	return nil
}

// Program is a compiled program: the unit the per-ISA back ends translate.
type Program struct {
	Objects []*Object
}

// Object returns the object named name, or nil.
func (p *Program) Object(name string) *Object {
	for _, o := range p.Objects {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// StackEffect returns how many values the instruction pops and pushes.
// For Call the push count depends on the callee and is resolved by the
// verifier/codegen via the program's operation tables; here push is reported
// as -1 for Call.
func StackEffect(i Instr) (pop, push int) {
	switch i.Op {
	case Nop, Jump, LoopBottom, Ret, SysYield:
		return 0, 0
	case PushInt, PushReal, PushStr, PushNil, PushSelf, LoadVar, LoadMine,
		SysNodes, SysThisNode, SysTimeMS:
		return 0, 1
	case StoreVar, StoreMine, Drop, BrFalse, BrTrue, SysUnfix, SysWait, SysSignal:
		return 1, 0
	case NegI, AbsI, NegR, CvtIR, NotB, SLen, ALen, SysNodeAt, SysStrOf,
		SysLocate, NewArray:
		return 1, 1
	case AddI, SubI, MulI, DivI, ModI, AddR, SubR, MulR, DivR, AndB, OrB,
		CmpI, CmpR, CmpS, CmpP, SIndex, ALoad, SysConcat:
		return 2, 1
	case SysMove, SysFix, SysRefix:
		return 2, 0
	case AStore:
		return 3, 0
	case SysPrint:
		return int(i.A), 0
	case New:
		return int(i.A), 1
	case Call:
		// Pops receiver + args; always pushes exactly one value (the first
		// result, or integer 0 for result-less operations — statement
		// position drops it). K records the pushed kind.
		return int(i.A) + 1, 1
	}
	panic(fmt.Sprintf("ir: no stack effect for %v", i.Op))
}
