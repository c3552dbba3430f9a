package arch

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/ir"
)

// Step and the fused executor compile every instruction through the same
// fuseInstr, so their agreement says nothing about whether an op is
// right. TestOpSemantics pins each op by value instead: the result,
// fault, cycle charge, stack depth, next PC and memory writes are written
// out as numbers, for every op in its all-register form on every ISA and
// for the memory and stack operand forms on the ISAs that encode them.
// Step compiles only general forms and Run the flat ones too, so a row
// of every flat shape (fuser.fuseFlat) pins each flat form against both
// the numbers and its general form. The block rows do the same for the
// stack idioms Fuse compiles into one closure (block.go): each runs an
// idiom through RunLegacy and Run, once with the block's fast path and
// once per guard clause with its fallback.

// semFixture is the memory and CPU every row starts from; the addresses
// are the same on every ISA and each word is stored in the ISA's byte
// order:
//
//	FP       256: word 40 at FP+8
//	TempBase 512: words 10, 3 (rows that pop start at depth 2)
//	Self     768: slot 0 (word 772) = 11
//	LitBase 1024: lit[0] = 1280 ("apple"), lit[1] = 1296 ("banana"), lit[2] = 2048
//	2048:         array of length 3: 10, 20, 30
func semFixture(s *Spec) ([]byte, CPU) {
	mem := make([]byte, 4096)
	for _, w := range []semWord{
		{264, 40}, {512, 10}, {516, 3}, {772, 11},
		{1024, 1280}, {1028, 1296}, {1032, 2048},
		{1284, 5}, {1300, 6},
		{2052, 3}, {2056, 10}, {2060, 20}, {2064, 30},
	} {
		s.ByteOrd.PutUint32(mem[w.addr:], w.val)
	}
	copy(mem[1288:], "apple")
	copy(mem[1304:], "banana")
	return mem, CPU{FP: 256, TempBase: 512, Self: 768, LitBase: 1024}
}

type semWord struct{ addr, val uint32 }

// semRow is one instruction with its starting state and its expected
// outcome. Per-ISA numbers are indexed by ID: {vax, m68k, sparc}.
type semRow struct {
	name string
	in   Instr // branch targets are patched to the second trailing ret
	only []ID  // the ISAs the row runs on; nil means all three
	regs [16]uint32
	fIn  bool // r1 and r2 hold float32 bits, stored in the ISA's format
	fOut bool // r3's expected value is float32 bits in the ISA's format

	depth0  int32      // TempDepth before
	preempt bool       // cpu.Preempt
	setup   func(*CPU) // further changes to the starting CPU

	trap   TrapKind // TrapNone: the step does not enter the kernel
	fault  FaultCode
	ta, tb uint16
	cyc    [NumArch]uint32
	pc     [NumArch]uint32 // the trap's PC, else cpu.PC after the step
	r3     uint32          // r3 afterwards; no other register changes
	depth  int32           // TempDepth afterwards
	mem    []semWord       // words stored; no other byte changes

	// Block rows: seq replaces in, its branches target the second
	// trailing ret, and Fuse compiles it into one block of kind whose
	// entry guard fails clause (guardPass: the fast path runs).
	seq    []Instr
	kind   blockKind
	clause guardClause
	at     int            // the index of the instruction that faults
	set    map[int]uint32 // registers besides r3 the sequence changes
}

// Encoded sizes and cycle charges the rows share.
var (
	pcMovM  = [NumArch]uint32{6, 7, 4} // mov with a frame/self/lit operand
	pcMovS  = [NumArch]uint32{4, 5, 4} // mov with a pop/push operand
	pc2     = [NumArch]uint32{5, 6, 4} // two registers (mov reg, reg included)
	pc3     = [NumArch]uint32{7, 8, 4} // three registers
	pcCC    = [NumArch]uint32{8, 9, 4} // three registers and a condition code
	pcBr    = [NumArch]uint32{5, 6, 4} // brz/brnz not taken
	pcBrT   = [NumArch]uint32{6, 8, 8} // brz/brnz taken: past the first trailing ret
	pc0     = [NumArch]uint32{1, 2, 4} // no operands
	cycMov  = [NumArch]uint32{4, 3, 1}
	cycMovM = [NumArch]uint32{6, 5, 2} // plus MemCycles
	cycALU  = [NumArch]uint32{5, 4, 1} // add, sub, and, or
	cycUn   = [NumArch]uint32{4, 3, 1} // neg, abs, not
	cycDiv  = [NumArch]uint32{24, 20, 18}
	cycMod  = [NumArch]uint32{26, 22, 20}
	cycScc  = [NumArch]uint32{6, 5, 2}
	cycFAdd = [NumArch]uint32{12, 10, 4} // fadd, fsub, fscc
	cycFDiv = [NumArch]uint32{30, 24, 14}
	cycBr   = [NumArch]uint32{4, 3, 1}
	cycBrT  = [NumArch]uint32{5, 4, 2}  // plus the taken-branch cycle
	cycALd  = [NumArch]uint32{8, 7, 12} // aload, astor, sidx
	cycLen  = [NumArch]uint32{5, 4, 6}

	// Run appends "ret; ret": a step that does not enter the kernel is
	// followed by one of them.
	retSize = [NumArch]uint32{1, 2, 4}
	retCyc  = [NumArch]uint32{28, 23, 15}
)

func f32(v float32) uint32 { return math.Float32bits(v) }

func rr(op Op) Instr { return Instr{Op: op, N: 2, Operands: [3]Operand{Reg(1), Reg(3)}} }
func rrr(op Op) Instr {
	return Instr{Op: op, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(3)}}
}
func scc(op Op, cc int) Instr {
	in := rrr(op)
	in.CC = byte(cc)
	return in
}
func mov(src, dst Operand) Instr { return Instr{Op: OpMov, N: 2, Operands: [3]Operand{src, dst}} }
func stk(op Op) Instr            { return Instr{Op: op, N: 3, Operands: [3]Operand{Pop(), Pop(), Push()}} }

var cisc = []ID{VAX, M68K}

var semRows = []semRow{
	// Moves, on every ISA that encodes the form.
	{name: "mov reg", in: mov(Reg(1), Reg(3)), regs: [16]uint32{1: 7}, cyc: cycMov, pc: pc2, r3: 7},
	{name: "mov imm", in: mov(Imm(0xdeadbeef), Reg(3)), cyc: cycMov, pc: [NumArch]uint32{8, 9, 8}, r3: 0xdeadbeef},
	{name: "mov frame", in: mov(Frame(8), Reg(3)), cyc: cycMovM, pc: pcMovM, r3: 40},
	{name: "mov to frame", in: mov(Reg(1), Frame(12)), regs: [16]uint32{1: 0x11223344},
		cyc: cycMovM, pc: pcMovM, mem: []semWord{{268, 0x11223344}}},
	{name: "mov self", in: mov(SelfOp(0), Reg(3)), cyc: cycMovM, pc: pcMovM, r3: 11},
	{name: "mov to self", in: mov(Reg(1), SelfOp(4)), regs: [16]uint32{1: 0xcafef00d},
		cyc: cycMovM, pc: pcMovM, mem: []semWord{{776, 0xcafef00d}}},
	{name: "mov lit", in: mov(Lit(1), Reg(3)), cyc: cycMovM, pc: pcMovM, r3: 1296},
	{name: "mov pop", in: mov(Pop(), Reg(3)), depth0: 2, cyc: cycMovM, pc: pcMovS, r3: 3, depth: 1},
	{name: "mov push", in: mov(Reg(1), Push()), regs: [16]uint32{1: 0x11223344}, depth0: 2,
		cyc: cycMovM, pc: pcMovS, depth: 3, mem: []semWord{{520, 0x11223344}}},
	// A faulted read still stores its 0.
	{name: "pop at depth 0", in: mov(Pop(), Reg(3)), regs: [16]uint32{3: 0x55},
		trap: TrapFault, fault: FaultStack, cyc: cycMovM, pc: pcMovS, r3: 0},
	{name: "failed push", in: mov(Reg(1), Push()), regs: [16]uint32{1: 9}, depth0: 1,
		setup: func(c *CPU) { c.TempBase = 4092 },
		trap:  TrapFault, fault: FaultStack, cyc: cycMovM, pc: pcMovS, depth: 1},
	{name: "frame off memory", in: mov(Frame(8), Reg(3)), regs: [16]uint32{3: 0x55},
		setup: func(c *CPU) { c.FP = 4094 },
		trap:  TrapFault, fault: FaultStack, cyc: cycMovM, pc: pcMovM, r3: 0},
	{name: "nil lit table", in: mov(Lit(0), Reg(3)), regs: [16]uint32{3: 0x55},
		setup: func(c *CPU) { c.LitBase = 0 },
		trap:  TrapFault, fault: FaultNilRef, cyc: cycMovM, pc: pcMovM, r3: 0},
	{name: "self off memory", in: mov(Reg(1), SelfOp(0)), regs: [16]uint32{1: 9},
		setup: func(c *CPU) { c.Self = 4092 },
		trap:  TrapFault, fault: FaultNilRef, cyc: cycMovM, pc: pcMovM},

	// The temp-stack and frame moves compiled code runs, with a flat form
	// each in fused runs.
	{name: "mov imm push", in: mov(Imm(0xdeadbeef), Push()), only: cisc, depth0: 2,
		cyc: cycMovM, pc: [NumArch]uint32{7, 8}, depth: 3, mem: []semWord{{520, 0xdeadbeef}}},
	{name: "mov frame push", in: mov(Frame(8), Push()), only: cisc, depth0: 1,
		cyc: [NumArch]uint32{8, 7}, pc: [NumArch]uint32{5, 6}, depth: 2, mem: []semWord{{516, 40}}},
	{name: "mov pop frame", in: mov(Pop(), Frame(12)), only: cisc, depth0: 2,
		cyc: [NumArch]uint32{8, 7}, pc: [NumArch]uint32{5, 6}, depth: 1, mem: []semWord{{268, 3}}},
	{name: "pop at depth 0 into frame", in: mov(Pop(), Frame(8)), only: cisc,
		trap: TrapFault, fault: FaultStack, cyc: [NumArch]uint32{8, 7}, pc: [NumArch]uint32{5, 6}, mem: []semWord{{264, 0}}},
	{name: "imm push off memory", in: mov(Imm(9), Push()), only: cisc, depth0: 1,
		setup: func(c *CPU) { c.TempBase = 4092 },
		trap:  TrapFault, fault: FaultStack, cyc: cycMovM, pc: [NumArch]uint32{7, 8}, depth: 1},
	{name: "frame push off memory", in: mov(Frame(8), Push()), only: cisc, depth0: 1,
		setup: func(c *CPU) { c.TempBase = 4092 },
		trap:  TrapFault, fault: FaultStack, cyc: [NumArch]uint32{8, 7}, pc: [NumArch]uint32{5, 6}, depth: 1},
	// A faulted frame read still pushes its 0.
	{name: "frame off memory push", in: mov(Frame(8), Push()), only: cisc,
		setup: func(c *CPU) { c.FP = 4094 },
		trap:  TrapFault, fault: FaultStack, cyc: [NumArch]uint32{8, 7}, pc: [NumArch]uint32{5, 6}, depth: 1,
		mem: []semWord{{512, 0}}},

	// Integer ALU, all registers.
	{name: "add", in: rrr(OpAdd), regs: [16]uint32{1: 7, 2: 0xfffffff4}, cyc: cycALU, pc: pc3, r3: 0xfffffffb},
	{name: "sub wraps", in: rrr(OpSub), regs: [16]uint32{1: 0x80000000, 2: 1}, cyc: cycALU, pc: pc3, r3: 0x7fffffff},
	{name: "mul", in: rrr(OpMul), regs: [16]uint32{1: 0xfffffffd, 2: 7},
		cyc: [NumArch]uint32{14, 11, 5}, pc: pc3, r3: 0xffffffeb},
	{name: "div truncates", in: rrr(OpDiv), regs: [16]uint32{1: 0xfffffff9, 2: 2}, cyc: cycDiv, pc: pc3, r3: 0xfffffffd},
	{name: "div by zero", in: rrr(OpDiv), regs: [16]uint32{1: 7, 3: 0x55},
		trap: TrapFault, fault: FaultDivZero, cyc: cycDiv, pc: pc3, r3: 0x55},
	{name: "mod", in: rrr(OpMod), regs: [16]uint32{1: 0xfffffff9, 2: 2}, cyc: cycMod, pc: pc3, r3: 0xffffffff},
	{name: "mod by zero", in: rrr(OpMod), regs: [16]uint32{1: 7, 3: 0x55},
		trap: TrapFault, fault: FaultDivZero, cyc: cycMod, pc: pc3, r3: 0x55},
	{name: "and is boolean", in: rrr(OpAnd), regs: [16]uint32{1: 2, 2: 1}, cyc: cycALU, pc: pc3, r3: 1},
	{name: "or is boolean", in: rrr(OpOr), regs: [16]uint32{2: 4}, cyc: cycALU, pc: pc3, r3: 1},
	{name: "neg", in: rr(OpNeg), regs: [16]uint32{1: 5}, cyc: cycUn, pc: pc2, r3: 0xfffffffb},
	{name: "abs", in: rr(OpAbs), regs: [16]uint32{1: 0xfffffff7}, cyc: cycUn, pc: pc2, r3: 9},
	{name: "not zero", in: rr(OpNot), cyc: cycUn, pc: pc2, r3: 1},
	{name: "not nonzero", in: rr(OpNot), regs: [16]uint32{1: 6, 3: 0x55}, cyc: cycUn, pc: pc2, r3: 0},
	{name: "scc eq", in: scc(OpScc, ir.CmpEQ), regs: [16]uint32{1: 5, 2: 5}, cyc: cycScc, pc: pcCC, r3: 1},
	{name: "scc ne", in: scc(OpScc, ir.CmpNE), regs: [16]uint32{1: 5, 2: 5, 3: 0x55}, cyc: cycScc, pc: pcCC, r3: 0},
	{name: "scc lt signed", in: scc(OpScc, ir.CmpLT), regs: [16]uint32{1: 0xffffffff, 2: 1}, cyc: cycScc, pc: pcCC, r3: 1},
	{name: "scc le", in: scc(OpScc, ir.CmpLE), regs: [16]uint32{1: 5, 2: 5}, cyc: cycScc, pc: pcCC, r3: 1},
	{name: "scc gt signed", in: scc(OpScc, ir.CmpGT), regs: [16]uint32{1: 0x80000000, 2: 0x7fffffff, 3: 0x55},
		cyc: cycScc, pc: pcCC, r3: 0},
	{name: "scc ge signed", in: scc(OpScc, ir.CmpGE), regs: [16]uint32{1: 0x7fffffff, 2: 0x80000000},
		cyc: cycScc, pc: pcCC, r3: 1},

	// Floats, in the ISA's own format.
	{name: "fadd", in: rrr(OpFAdd), regs: [16]uint32{1: f32(2.5), 2: f32(4)}, fIn: true, fOut: true,
		cyc: cycFAdd, pc: pc3, r3: f32(6.5)},
	{name: "fsub", in: rrr(OpFSub), regs: [16]uint32{1: f32(2.5), 2: f32(4)}, fIn: true, fOut: true,
		cyc: cycFAdd, pc: pc3, r3: f32(-1.5)},
	{name: "fmul", in: rrr(OpFMul), regs: [16]uint32{1: f32(2.5), 2: f32(4)}, fIn: true, fOut: true,
		cyc: [NumArch]uint32{18, 14, 6}, pc: pc3, r3: f32(10)},
	{name: "fdiv", in: rrr(OpFDiv), regs: [16]uint32{1: f32(10), 2: f32(4)}, fIn: true, fOut: true,
		cyc: cycFDiv, pc: pc3, r3: f32(2.5)},
	{name: "fdiv by zero", in: rrr(OpFDiv), regs: [16]uint32{1: f32(1)}, fIn: true, fOut: true,
		trap: TrapFault, fault: FaultDivZero, cyc: cycFDiv, pc: pc3, r3: f32(0)},
	{name: "fneg", in: rr(OpFNeg), regs: [16]uint32{1: f32(2.5)}, fIn: true, fOut: true,
		cyc: [NumArch]uint32{6, 5, 2}, pc: pc2, r3: f32(-2.5)},
	{name: "cvt", in: rr(OpCvt), regs: [16]uint32{1: 0xfffffffd}, fOut: true,
		cyc: [NumArch]uint32{10, 8, 4}, pc: pc2, r3: f32(-3)},
	{name: "fscc lt", in: scc(OpFScc, ir.CmpLT), regs: [16]uint32{1: f32(2.5), 2: f32(4)}, fIn: true,
		cyc: cycFAdd, pc: pcCC, r3: 1},
	{name: "fscc eq", in: scc(OpFScc, ir.CmpEQ), regs: [16]uint32{1: f32(2.5), 2: f32(4), 3: 0x55}, fIn: true,
		cyc: cycFAdd, pc: pcCC, r3: 0},

	// Strings: sscc charges one cycle per byte of the shorter operand.
	{name: "sscc lt", in: scc(OpSScc, ir.CmpLT), regs: [16]uint32{1: 1280, 2: 1296},
		cyc: [NumArch]uint32{21, 19, 27}, pc: pcCC, r3: 1},
	{name: "sscc nil", in: scc(OpSScc, ir.CmpLT), regs: [16]uint32{2: 1296, 3: 0x55},
		trap: TrapFault, fault: FaultNilRef, cyc: [NumArch]uint32{16, 14, 22}, pc: pcCC, r3: 0x55},
	{name: "slen", in: rr(OpSLen), regs: [16]uint32{1: 1296}, cyc: cycLen, pc: pc2, r3: 6},
	{name: "slen nil", in: rr(OpSLen), regs: [16]uint32{3: 0x55},
		trap: TrapFault, fault: FaultNilRef, cyc: cycLen, pc: pc2, r3: 0x55},
	{name: "sidx", in: rrr(OpSIdx), regs: [16]uint32{1: 1280, 2: 4}, cyc: cycALd, pc: pc3, r3: 'e'},
	{name: "sidx at length", in: rrr(OpSIdx), regs: [16]uint32{1: 1280, 2: 5, 3: 0x55},
		trap: TrapFault, fault: FaultBounds, cyc: cycALd, pc: pc3, r3: 0x55},
	{name: "sidx nil", in: rrr(OpSIdx), regs: [16]uint32{3: 0x55},
		trap: TrapFault, fault: FaultNilRef, cyc: cycALd, pc: pc3, r3: 0x55},

	// Arrays.
	{name: "aload", in: rrr(OpALoad), regs: [16]uint32{1: 2048, 2: 1}, cyc: cycALd, pc: pc3, r3: 20},
	{name: "aload at length", in: rrr(OpALoad), regs: [16]uint32{1: 2048, 2: 3, 3: 0x55},
		trap: TrapFault, fault: FaultBounds, cyc: cycALd, pc: pc3, r3: 0x55},
	{name: "aload nil", in: rrr(OpALoad), regs: [16]uint32{3: 0x55},
		trap: TrapFault, fault: FaultNilRef, cyc: cycALd, pc: pc3, r3: 0x55},
	{name: "astor", in: rrr(OpAStor), regs: [16]uint32{1: 2048, 2: 2, 3: 99},
		cyc: cycALd, pc: pc3, r3: 99, mem: []semWord{{2064, 99}}},
	{name: "astor at length", in: rrr(OpAStor), regs: [16]uint32{1: 2048, 2: 3, 3: 99},
		trap: TrapFault, fault: FaultBounds, cyc: cycALd, pc: pc3, r3: 99},
	{name: "astor nil", in: rrr(OpAStor), regs: [16]uint32{3: 99},
		trap: TrapFault, fault: FaultNilRef, cyc: cycALd, pc: pc3, r3: 99},
	{name: "alen", in: rr(OpALen), regs: [16]uint32{1: 2048}, cyc: cycLen, pc: pc2, r3: 3},
	{name: "alen nil", in: rr(OpALen), regs: [16]uint32{3: 0x55},
		trap: TrapFault, fault: FaultNilRef, cyc: cycLen, pc: pc2, r3: 0x55},

	// Control flow.
	{name: "jmp", in: Instr{Op: OpJmp}, cyc: cycBr, pc: [NumArch]uint32{4, 6, 8}},
	{name: "brz taken", in: Instr{Op: OpBrz, N: 1, Operands: [3]Operand{Reg(1)}}, cyc: cycBrT, pc: pcBrT},
	{name: "brz not taken", in: Instr{Op: OpBrz, N: 1, Operands: [3]Operand{Reg(1)}}, regs: [16]uint32{1: 1},
		cyc: cycBr, pc: pcBr},
	{name: "brnz taken", in: Instr{Op: OpBrnz, N: 1, Operands: [3]Operand{Reg(1)}}, regs: [16]uint32{1: 0x80000000},
		cyc: cycBrT, pc: pcBrT},
	{name: "brnz not taken", in: Instr{Op: OpBrnz, N: 1, Operands: [3]Operand{Reg(1)}}, cyc: cycBr, pc: pcBr},

	// Kernel entries: every one but unlq also charges TrapCycles.
	{name: "poll", in: Instr{Op: OpPoll}, cyc: [NumArch]uint32{2, 2, 1}, pc: pc0},
	{name: "poll preempted", in: Instr{Op: OpPoll}, preempt: true,
		trap: TrapYield, cyc: [NumArch]uint32{26, 22, 15}, pc: pc0},
	{name: "ret", in: Instr{Op: OpRet}, trap: TrapRet, cyc: retCyc, pc: pc0},
	{name: "trap", in: Instr{Op: OpTrap, TrapKind: TrapPrint, TrapA: 7, TrapB: 2},
		trap: TrapPrint, ta: 7, tb: 2, cyc: [NumArch]uint32{28, 24, 16}, pc: [NumArch]uint32{6, 7, 8}},
	{name: "unlq", in: Instr{Op: OpUnlq}, only: []ID{VAX}, trap: TrapMonExitA, cyc: [NumArch]uint32{10}, pc: pc0},

	// Memory and stack operands of the ALU and array ops (CISC only). With
	// stack operands src2, the top, pops before src1.
	{name: "sub pop pop push", in: Instr{Op: OpSub, N: 3, Operands: [3]Operand{Pop(), Pop(), Push()}}, only: cisc,
		depth0: 2, cyc: [NumArch]uint32{11, 10}, pc: [NumArch]uint32{4, 5}, depth: 1, mem: []semWord{{512, 7}}},
	{name: "add pop pop push", in: stk(OpAdd), only: cisc,
		depth0: 2, cyc: [NumArch]uint32{11, 10}, pc: [NumArch]uint32{4, 5}, depth: 1, mem: []semWord{{512, 13}}},
	{name: "mul pop pop push", in: stk(OpMul), only: cisc,
		depth0: 2, cyc: [NumArch]uint32{20, 17}, pc: [NumArch]uint32{4, 5}, depth: 1, mem: []semWord{{512, 30}}},
	{name: "div pop pop push", in: stk(OpDiv), only: cisc,
		depth0: 2, cyc: [NumArch]uint32{30, 26}, pc: [NumArch]uint32{4, 5}, depth: 1, mem: []semWord{{512, 3}}},
	{name: "mod pop pop push", in: stk(OpMod), only: cisc,
		depth0: 2, cyc: [NumArch]uint32{32, 28}, pc: [NumArch]uint32{4, 5}, depth: 1, mem: []semWord{{512, 1}}},
	{name: "and pop pop push", in: stk(OpAnd), only: cisc,
		depth0: 2, cyc: [NumArch]uint32{11, 10}, pc: [NumArch]uint32{4, 5}, depth: 1, mem: []semWord{{512, 1}}},
	{name: "or pop pop push", in: stk(OpOr), only: cisc,
		depth0: 2, cyc: [NumArch]uint32{11, 10}, pc: [NumArch]uint32{4, 5}, depth: 1, mem: []semWord{{512, 1}}},
	{name: "scc pop pop push", in: Instr{Op: OpScc, CC: byte(ir.CmpLT), N: 3, Operands: [3]Operand{Pop(), Pop(), Push()}},
		only: cisc, depth0: 2, cyc: [NumArch]uint32{12, 11}, pc: [NumArch]uint32{5, 6}, depth: 1, mem: []semWord{{512, 0}}},
	// A faulted pop or a zero divisor suppresses the push and its charge;
	// the word at 520 is 0.
	{name: "div pop pop push by zero", in: stk(OpDiv), only: cisc, depth0: 3,
		trap: TrapFault, fault: FaultDivZero, cyc: [NumArch]uint32{28, 24}, pc: [NumArch]uint32{4, 5}, depth: 1},
	{name: "add pop pop push at depth 1", in: stk(OpAdd), only: cisc, depth0: 1,
		trap: TrapFault, fault: FaultStack, cyc: [NumArch]uint32{9, 8}, pc: [NumArch]uint32{4, 5}},
	{name: "add frame imm self", in: Instr{Op: OpAdd, N: 3, Operands: [3]Operand{Frame(8), Imm(2), SelfOp(0)}}, only: cisc,
		cyc: [NumArch]uint32{9, 8}, pc: [NumArch]uint32{12, 13}, mem: []semWord{{772, 42}}},
	{name: "div pop at depth 0", in: Instr{Op: OpDiv, N: 3, Operands: [3]Operand{Frame(8), Pop(), Reg(3)}}, only: cisc,
		regs: [16]uint32{3: 0x55},
		trap: TrapFault, fault: FaultStack, cyc: [NumArch]uint32{28, 24}, pc: [NumArch]uint32{7, 8}, r3: 0x55},
	{name: "astor lit imm pop", in: Instr{Op: OpAStor, N: 3, Operands: [3]Operand{Lit(2), Imm(1), Pop()}}, only: cisc,
		depth0: 2, cyc: [NumArch]uint32{12, 11}, pc: [NumArch]uint32{10, 11}, depth: 1, mem: []semWord{{2060, 3}}},
	{name: "sscc lit lit push", in: Instr{Op: OpSScc, CC: byte(ir.CmpLT), N: 3, Operands: [3]Operand{Lit(0), Lit(1), Push()}},
		only: cisc, cyc: [NumArch]uint32{27, 25}, pc: [NumArch]uint32{9, 10}, depth: 1, mem: []semWord{{512, 1}}},
	{name: "neg self push", in: Instr{Op: OpNeg, N: 2, Operands: [3]Operand{SelfOp(0), Push()}}, only: cisc,
		cyc: [NumArch]uint32{8, 7}, pc: [NumArch]uint32{5, 6}, depth: 1, mem: []semWord{{512, 0xfffffff5}}},
	{name: "cvt frame", in: Instr{Op: OpCvt, N: 2, Operands: [3]Operand{Frame(8), Reg(3)}}, only: cisc, fOut: true,
		cyc: [NumArch]uint32{12, 10}, pc: [NumArch]uint32{6, 7}, r3: f32(40)},
	{name: "brnz pop taken", in: Instr{Op: OpBrnz, N: 1, Operands: [3]Operand{Pop()}}, only: cisc,
		depth0: 2, cyc: [NumArch]uint32{7, 6}, pc: [NumArch]uint32{5, 7}, depth: 1},
	{name: "brz pop not taken", in: Instr{Op: OpBrz, N: 1, Operands: [3]Operand{Pop()}}, only: cisc,
		depth0: 2, cyc: [NumArch]uint32{6, 5}, pc: [NumArch]uint32{4, 5}, depth: 1},

	// Blocks: every listed idiom on the ISAs whose compiler emits it, its
	// fast path with every tail and each guard clause's fallback. A
	// fallback faults where the idiom's own instructions do.
	{name: "block push push alu, pop frame", only: cisc, kind: blockPushPushALU,
		seq: []Instr{mov(Frame(8), Push()), mov(Imm(2), Push()), stk(OpSub), mov(Pop(), Frame(12))},
		cyc: [NumArch]uint32{33, 29}, pc: [NumArch]uint32{21, 25},
		mem: []semWord{{512, 38}, {516, 2}, {268, 38}}},
	{name: "block push push alu, pop reg", only: cisc, kind: blockPushPushALU, regs: [16]uint32{1: 4},
		seq: []Instr{mov(Reg(1), Push()), mov(Imm(3), Push()), stk(OpAdd), mov(Pop(), Reg(3))},
		cyc: [NumArch]uint32{29, 25}, pc: [NumArch]uint32{19, 23}, r3: 7,
		mem: []semWord{{512, 7}}},
	{name: "block push push alu, temp word off memory", only: cisc, kind: blockPushPushALU, clause: guardTemp,
		seq:   []Instr{mov(Imm(1), Push()), mov(Imm(2), Push()), stk(OpAdd)},
		setup: func(c *CPU) { c.TempBase = 4092 },
		trap:  TrapFault, fault: FaultStack, at: 1, cyc: [NumArch]uint32{12, 10}, pc: [NumArch]uint32{14, 16},
		depth: 1, mem: []semWord{{4092, 1}}},
	// Only the second frame word is off memory.
	{name: "block push push alu, frame off memory", only: cisc, kind: blockPushPushALU, clause: guardFrame,
		seq:   []Instr{mov(Frame(8), Push()), mov(Frame(12), Push()), stk(OpAdd)},
		setup: func(c *CPU) { c.FP = 4084 },
		trap:  TrapFault, fault: FaultStack, at: 1, cyc: [NumArch]uint32{16, 14}, pc: [NumArch]uint32{10, 12},
		depth: 2, mem: []semWord{{512, 0}, {516, 0}}},
	// FP+8 is the first temp word: the second push reads the first.
	{name: "block push push alu, frame word on a temp word", only: cisc, kind: blockPushPushALU,
		seq:   []Instr{mov(Imm(5), Push()), mov(Frame(8), Push()), stk(OpMul)},
		setup: func(c *CPU) { c.FP = 504 },
		cyc:   [NumArch]uint32{34, 29}, pc: [NumArch]uint32{16, 19},
		depth: 1, mem: []semWord{{512, 25}, {516, 5}}},
	{name: "block push push alu, div by zero", only: cisc, kind: blockPushPushALU, clause: guardDiv,
		seq:  []Instr{mov(Frame(8), Push()), mov(Reg(1), Push()), stk(OpDiv)},
		trap: TrapFault, fault: FaultDivZero, at: 2, cyc: [NumArch]uint32{42, 36}, pc: [NumArch]uint32{13, 16},
		mem: []semWord{{512, 40}, {516, 0}}},
	{name: "block push alu, brnz pop taken", only: cisc, kind: blockPushALU, depth0: 2,
		seq: []Instr{mov(Imm(5), Push()), stk(OpMul), {Op: OpBrnz, N: 1, Operands: [3]Operand{Pop()}}},
		cyc: [NumArch]uint32{33, 28}, pc: [NumArch]uint32{16, 20},
		depth: 1, mem: []semWord{{520, 5}, {516, 15}}},
	{name: "block push alu, depth 0", only: cisc, kind: blockPushALU, clause: guardDepth,
		seq:  []Instr{mov(Imm(5), Push()), stk(OpAdd)},
		trap: TrapFault, fault: FaultStack, at: 1, cyc: [NumArch]uint32{15, 13}, pc: [NumArch]uint32{11, 13},
		mem: []semWord{{512, 5}}},
	{name: "block push alu, temp word off memory", only: cisc, kind: blockPushALU, clause: guardTemp, depth0: 1,
		seq:   []Instr{mov(Imm(5), Push()), stk(OpAdd)},
		setup: func(c *CPU) { c.TempBase = 4092 },
		trap:  TrapFault, fault: FaultStack, cyc: [NumArch]uint32{6, 5}, pc: [NumArch]uint32{7, 8}, depth: 1},
	{name: "block push alu, frame off memory", only: cisc, kind: blockPushALU, clause: guardFrame, depth0: 1,
		seq:   []Instr{mov(Frame(8), Push()), stk(OpAdd)},
		setup: func(c *CPU) { c.FP = 4094 },
		trap:  TrapFault, fault: FaultStack, cyc: [NumArch]uint32{8, 7}, pc: [NumArch]uint32{5, 6},
		depth: 2, mem: []semWord{{516, 0}}},
	{name: "block push alu, mod by zero", only: cisc, kind: blockPushALU, clause: guardDiv, depth0: 2,
		seq:  []Instr{mov(Reg(1), Push()), stk(OpMod)},
		trap: TrapFault, fault: FaultDivZero, at: 1, cyc: [NumArch]uint32{36, 31}, pc: [NumArch]uint32{8, 10},
		depth: 1, mem: []semWord{{520, 0}}},
	// A zero top is a divisor only to div and mod.
	{name: "block pop pop alu push, pop reg, brz reg taken", only: []ID{SPARC}, kind: blockPopPopALUPush, depth0: 3,
		seq: []Instr{mov(Pop(), Reg(2)), mov(Pop(), Reg(1)), rrr(OpMul), mov(Reg(3), Push()),
			mov(Pop(), Reg(4)), {Op: OpBrz, N: 1, Operands: [3]Operand{Reg(4)}}},
		cyc: [NumArch]uint32{2: 15}, pc: [NumArch]uint32{2: 28},
		depth: 1, set: map[int]uint32{1: 3, 2: 0, 4: 0}, mem: []semWord{{516, 0}}},
	{name: "block pop pop alu push, depth 1", only: []ID{SPARC}, kind: blockPopPopALUPush, clause: guardDepth,
		depth0: 1, regs: [16]uint32{1: 0x55},
		seq:  []Instr{mov(Pop(), Reg(2)), mov(Pop(), Reg(1)), rrr(OpSub), mov(Reg(3), Push())},
		trap: TrapFault, fault: FaultStack, at: 1, cyc: [NumArch]uint32{2: 4}, pc: [NumArch]uint32{2: 8},
		set: map[int]uint32{1: 0, 2: 10}},
	{name: "block pop pop alu push, temp word off memory", only: []ID{SPARC}, kind: blockPopPopALUPush,
		clause: guardTemp, depth0: 2, regs: [16]uint32{2: 0x55},
		seq:   []Instr{mov(Pop(), Reg(2)), mov(Pop(), Reg(1)), rrr(OpSub), mov(Reg(3), Push())},
		setup: func(c *CPU) { c.TempBase = 4092 },
		trap:  TrapFault, fault: FaultStack, cyc: [NumArch]uint32{2: 2}, pc: [NumArch]uint32{2: 4},
		depth: 1, set: map[int]uint32{2: 0}},
	{name: "block pop pop alu push, div by zero", only: []ID{SPARC}, kind: blockPopPopALUPush, clause: guardDiv,
		depth0: 3, regs: [16]uint32{3: 0x55},
		seq:  []Instr{mov(Pop(), Reg(2)), mov(Pop(), Reg(1)), rrr(OpDiv), mov(Reg(3), Push())},
		trap: TrapFault, fault: FaultDivZero, at: 2, cyc: [NumArch]uint32{2: 22}, pc: [NumArch]uint32{2: 12},
		r3: 0x55, depth: 1, set: map[int]uint32{1: 3, 2: 0}},
	{name: "block mov push", only: []ID{SPARC}, kind: blockMovPush, depth0: 2,
		seq: []Instr{mov(Imm(9), Reg(1)), mov(Reg(1), Push())},
		cyc: [NumArch]uint32{2: 3}, pc: [NumArch]uint32{2: 12},
		depth: 3, set: map[int]uint32{1: 9}, mem: []semWord{{520, 9}}},
	{name: "block mov push, temp word off memory", only: []ID{SPARC}, kind: blockMovPush, clause: guardTemp, depth0: 1,
		seq:   []Instr{mov(Imm(9), Reg(1)), mov(Reg(1), Push())},
		setup: func(c *CPU) { c.TempBase = 4092 },
		trap:  TrapFault, fault: FaultStack, at: 1, cyc: [NumArch]uint32{2: 3}, pc: [NumArch]uint32{2: 12},
		depth: 1, set: map[int]uint32{1: 9}},
}

// guardClause is a clause of a block's entry guard (block.compile).
type guardClause uint8

const (
	guardPass  guardClause = iota
	guardDepth             // the entry depth does not cover the block's pops
	guardTemp              // a temp-stack word it touches is not in memory
	guardFrame             // a frame word it touches is not in memory
	guardDiv               // its divisor is zero
)

// guardOf reports the first clause of bk's guard that fails in e's state,
// given the index b of the lowest temp word bk touches and its address at.
func guardOf(bk *block, e *fexec, b int32, at uint32) guardClause {
	switch {
	case b < 0:
		return guardDepth
	case !e.inRange(at, bk.top):
		return guardTemp
	case bk.frame && !e.inRange(e.fp+bk.flo, bk.fspan):
		return guardFrame
	case bk.divReg >= 0 && e.r[bk.divReg&0xf] == 0 || bk.divTop && e.word(at+4) == 0:
		return guardDiv
	}
	return guardPass
}

// blockClauses lists the guard clauses each block kind can fail: every
// kind needs a fast-path row and a fallback row for each.
var blockClauses = [numBlockKinds][]guardClause{
	blockPushPushALU:   {guardTemp, guardFrame, guardDiv},
	blockPushALU:       {guardDepth, guardTemp, guardFrame, guardDiv},
	blockPopPopALUPush: {guardDepth, guardTemp, guardDiv},
	blockMovPush:       {guardTemp},
}

// tailOf names a block's tail.
func tailOf(bk *block) string {
	switch {
	case bk.br && bk.dst.Mode == ModeReg:
		return "pop reg; brz reg"
	case bk.br:
		return "brz pop"
	case bk.pop && bk.dst.Mode == ModeReg:
		return "pop reg"
	case bk.pop:
		return "pop frame"
	}
	return "none"
}

// TestOpSemantics runs every row through Step (one instruction; a block
// row through RunLegacy) and Run (the row's instructions followed by
// "ret; ret", fused). Every op needs a row on every ISA, every operand
// shape Fuse compiles to a flat form needs one on every ISA that encodes
// it, and every block kind needs a fast-path row, a row per guard clause
// it can fail and, over all kinds, a row per tail.
func TestOpSemantics(t *testing.T) {
	covered := map[ID]map[Op]bool{}
	shapesCovered := map[ID]map[opShapeKey]bool{}
	var blocksCovered [numBlockKinds]map[guardClause]bool
	tails := map[string]bool{}
	for _, row := range semRows {
		for _, s := range AllSpecs() {
			if row.only != nil && !slices.Contains(row.only, s.ID) {
				continue
			}
			if covered[s.ID] == nil {
				covered[s.ID] = map[Op]bool{}
				shapesCovered[s.ID] = map[opShapeKey]bool{}
			}
			if row.seq == nil {
				covered[s.ID][row.in.Op] = true
				shapesCovered[s.ID][shapeKeyOf(&row.in)] = true
			} else if bk := fusers[s.ID].match(row.seq); bk != nil && bk.kind == row.kind {
				if blocksCovered[bk.kind] == nil {
					blocksCovered[bk.kind] = map[guardClause]bool{}
				}
				blocksCovered[bk.kind][row.clause] = true
				if row.clause == guardPass {
					tails[tailOf(bk)] = true
				}
			}
			t.Run(row.name+"/"+s.Name, func(t *testing.T) { row.check(t, s) })
		}
	}
	for k := range numBlockKinds {
		for _, c := range append([]guardClause{guardPass}, blockClauses[k]...) {
			if !blocksCovered[k][c] {
				t.Errorf("block kind %d: no row takes guard clause %d", k, c)
			}
		}
	}
	for _, tail := range []string{"none", "pop reg", "pop frame", "brz pop", "pop reg; brz reg"} {
		if !tails[tail] {
			t.Errorf("no block row takes the fast path with tail %q", tail)
		}
	}
	for _, s := range AllSpecs() {
		for op := Op(0); op < NumOp; op++ {
			if !covered[s.ID][op] && (op != OpUnlq || s.HasAtomicUnlink) {
				t.Errorf("%s: no row covers %v", s.Name, op)
			}
		}
		for _, in := range encodableShapes(s) {
			b := fuser{s: s, flat: true}
			if b.fuseFlat(&in) != nil && !shapesCovered[s.ID][shapeKeyOf(&in)] {
				t.Errorf("%s: no row covers the flat form of %v", s.Name, in)
			}
		}
	}
}

// opShapeKey is an instruction's op and operand modes.
type opShapeKey struct {
	op    Op
	modes [3]Mode
}

func shapeKeyOf(in *Instr) opShapeKey {
	k := opShapeKey{op: in.Op}
	for i := range int(in.N) {
		k.modes[i] = in.Operands[i].Mode
	}
	return k
}

// encodableShapes returns one instruction of every operand shape s
// encodes: every op with every source mode in each source position and
// every destination mode in its destination.
func encodableShapes(s *Spec) []Instr {
	srcs := []Operand{Imm(1), Reg(1), Frame(8), SelfOp(0), Lit(0), Pop()}
	dsts := []Operand{Reg(3), Frame(12), SelfOp(4), Push()}
	var out []Instr
	for op := Op(0); op < NumOp; op++ {
		sh := shapes[op]
		ins := []Instr{{Op: op, N: byte(sh.nOperands)}}
		for i := range sh.nOperands {
			pos := srcs
			if i == sh.dstIdx {
				pos = dsts
			}
			var next []Instr
			for _, in := range ins {
				for _, o := range pos {
					in.Operands[i] = o
					next = append(next, in)
				}
			}
			ins = next
		}
		for _, in := range ins {
			if _, err := Encode(s, nil, in); err == nil {
				out = append(out, in)
			}
		}
	}
	return out
}

func (row *semRow) check(t *testing.T, s *Spec) {
	seq := row.seq
	if seq == nil {
		seq = []Instr{row.in}
	}
	var code []byte
	var starts []uint32
	var err error
	for _, in := range append(slices.Clone(seq), Instr{Op: OpRet}, Instr{Op: OpRet}) {
		starts = append(starts, uint32(len(code)))
		if code, err = Encode(s, code, in); err != nil {
			t.Fatal(err)
		}
	}
	for i, in := range seq {
		if shapes[in.Op].hasTarget {
			if err := PatchTarget(s, code, starts[i], uint16(len(code))-uint16(retSize[s.ID])); err != nil {
				t.Fatal(err)
			}
		}
	}

	mem0, cpu0 := semFixture(s)
	cpu0.Regs = row.regs
	if row.fIn {
		cpu0.Regs[1] = s.Float.Enc(math.Float32frombits(row.regs[1]))
		cpu0.Regs[2] = s.Float.Enc(math.Float32frombits(row.regs[2]))
	}
	cpu0.TempDepth, cpu0.Preempt = row.depth0, row.preempt
	if row.setup != nil {
		row.setup(&cpu0)
	}

	want := cpu0
	want.Regs[3] = row.r3
	if row.fOut {
		want.Regs[3] = s.Float.Enc(math.Float32frombits(row.r3))
	}
	for r, v := range row.set {
		want.Regs[r] = v
	}
	want.TempDepth = row.depth
	if row.trap != TrapFault {
		want.PC = row.pc[s.ID]
	} else {
		want.PC = starts[row.at]
	}
	wantMem := slices.Clone(mem0)
	for _, w := range row.mem {
		s.ByteOrd.PutUint32(wantMem[w.addr:], w.val)
	}
	var wantTrap *Trap
	if row.trap != TrapNone {
		wantTrap = &Trap{Kind: row.trap, A: row.ta, B: row.tb, PC: row.pc[s.ID], Fault: row.fault}
	}

	compare := func(how string, tr *Trap, cyc uint64, cpu CPU, mem []byte, wantTrap *Trap, wantCyc uint64, want CPU) {
		t.Helper()
		if (tr == nil) != (wantTrap == nil) || (tr != nil && *tr != *wantTrap) {
			t.Errorf("%s: trap %+v, want %+v", how, tr, wantTrap)
		}
		if cyc != wantCyc {
			t.Errorf("%s: %d cycles, want %d", how, cyc, wantCyc)
		}
		if cpu != want {
			t.Errorf("%s: cpu\n%+v, want\n%+v", how, cpu, want)
		}
		if !bytes.Equal(mem, wantMem) {
			for a := range mem {
				if mem[a] != wantMem[a] {
					t.Errorf("%s: first memory difference at %d: % x, want % x", how, a,
						mem[a&^3:a&^3+4], wantMem[a&^3:a&^3+4])
					break
				}
			}
		}
	}

	if row.seq == nil {
		cpu, mem := cpu0, slices.Clone(mem0)
		tr, c, err := Step(s, &cpu, code, mem)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		compare("Step", tr, uint64(c), cpu, mem, wantTrap, uint64(row.cyc[s.ID]), want)
	} else {
		// Fuse compiles the whole sequence into one block of the row's
		// kind, whose guard fails the row's clause in the starting state,
		// and the block runs its instructions' own closures exactly when
		// a clause fails.
		pd, err := Predecode(s, code, 0)
		if err != nil {
			t.Fatal(err)
		}
		bk := fusers[s.ID].match(pd.instrs)
		if bk == nil || bk.kind != row.kind || bk.n != len(seq) {
			t.Fatalf("Fuse compiles %v into block %+v, want one block of kind %d", seq, bk, row.kind)
		}
		e := fexec{mem: slices.Clone(mem0), fp: cpu0.FP, tempBase: cpu0.TempBase, mc: uint64(s.MemCycles),
			be: bigEndian(s), r: cpu0.Regs, depth: cpu0.TempDepth}
		b := cpu0.TempDepth - bk.pops
		if c := guardOf(bk, &e, b, e.tempBase+4*uint32(b)); c != row.clause {
			t.Errorf("guard clause %d fails, want %d", c, row.clause)
		}
		fellBack := false
		for i := range bk.n {
			op := fusers[s.ID].fuseInstr(&pd.instrs[i])
			bk.ops = append(bk.ops, func(e *fexec) { fellBack = true; op(e) })
		}
		bk.compile()(&e)
		if fellBack != (row.clause != guardPass) {
			t.Errorf("the block ran its fallback: %v, want %v", fellBack, row.clause != guardPass)
		}
	}

	// Run and RunLegacy enter the kernel at the first trailing ret unless
	// the row's instructions do.
	wantN, wantCyc := row.at+1, uint64(row.cyc[s.ID])
	if wantTrap == nil {
		wantN, wantCyc = len(seq)+1, wantCyc+uint64(retCyc[s.ID])
		want.PC += retSize[s.ID]
		wantTrap = &Trap{Kind: TrapRet, PC: want.PC}
	}
	runs := map[string]func(*Spec, *CPU, []byte, []byte, int) (*Trap, uint64, int, error){"Run": Run}
	if row.seq != nil {
		runs["RunLegacy"] = RunLegacy
	}
	for how, run := range runs {
		cpu, mem := cpu0, slices.Clone(mem0)
		tr, cyc, n, err := run(s, &cpu, code, mem, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if n != wantN {
			t.Errorf("%s: %d instructions, want %d", how, n, wantN)
		}
		compare(how, tr, cyc, cpu, mem, wantTrap, wantCyc, want)
	}
}
