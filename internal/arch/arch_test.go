package arch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func TestOpcodeMappingInvertible(t *testing.T) {
	for _, s := range AllSpecs() {
		seen := map[byte]Op{}
		for op := Op(0); op < NumOp; op++ {
			b := s.opcodeByte(op)
			if prev, dup := seen[b]; dup {
				t.Fatalf("%s: ops %v and %v share opcode byte %#x", s.Name, prev, op, b)
			}
			seen[b] = op
			back, err := s.opFromByte(b)
			if err != nil || back != op {
				t.Fatalf("%s: roundtrip %v -> %#x -> %v (%v)", s.Name, op, b, back, err)
			}
		}
	}
}

func TestOpcodeBytesDifferAcrossArchs(t *testing.T) {
	// The same op must not have the same opcode byte everywhere, otherwise
	// the "different instruction sets" dimension would be fake.
	differs := 0
	for op := Op(0); op < NumOp; op++ {
		v := VAXSpec.opcodeByte(op)
		m := M68KSpec.opcodeByte(op)
		s := SPARCSpec.opcodeByte(op)
		if v != m || m != s {
			differs++
		}
	}
	if differs < int(NumOp)-2 {
		t.Errorf("only %d/%d opcodes differ across architectures", differs, NumOp)
	}
}

func TestModInverse(t *testing.T) {
	for _, a := range []byte{1, 3, 5, 7, 11, 13, 255} {
		if got := a * modInverse(a); got != 1 {
			t.Errorf("modInverse(%d): a*inv = %d", a, got)
		}
	}
}

// sampleInstrs returns a representative set of encodable instructions for
// the given spec.
func sampleInstrs(s *Spec) []Instr {
	regA, regB, regC := byte(1), byte(2), byte(3)
	var ins []Instr
	add := func(i Instr) { ins = append(ins, i) }
	add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Imm(0xdeadbeef), Reg(regA)}})
	add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Reg(regA), Reg(regB)}})
	add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Frame(40), Reg(regA)}})
	add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Reg(regA), Frame(44)}})
	add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{SelfOp(8), Reg(regB)}})
	add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Reg(regB), SelfOp(12)}})
	add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Lit(3), Reg(regC)}})
	add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Pop(), Reg(regA)}})
	add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Reg(regA), Push()}})
	add(Instr{Op: OpAdd, N: 3, Operands: [3]Operand{Reg(regA), Reg(regB), Reg(regC)}})
	add(Instr{Op: OpScc, CC: byte(ir.CmpLE), N: 3, Operands: [3]Operand{Reg(regA), Reg(regB), Reg(regC)}})
	add(Instr{Op: OpFMul, N: 3, Operands: [3]Operand{Reg(regA), Reg(regB), Reg(regC)}})
	add(Instr{Op: OpJmp, Target: 0x1234})
	add(Instr{Op: OpBrz, N: 1, Operands: [3]Operand{Reg(regA)}, Target: 0x42})
	add(Instr{Op: OpBrnz, N: 1, Operands: [3]Operand{Reg(regB)}, Target: 0x43})
	add(Instr{Op: OpALoad, N: 3, Operands: [3]Operand{Reg(regA), Reg(regB), Reg(regC)}})
	add(Instr{Op: OpAStor, N: 3, Operands: [3]Operand{Reg(regA), Reg(regB), Reg(regC)}})
	add(Instr{Op: OpSLen, N: 2, Operands: [3]Operand{Reg(regA), Reg(regB)}})
	add(Instr{Op: OpPoll})
	add(Instr{Op: OpRet})
	add(Instr{Op: OpTrap, TrapKind: TrapPrint, TrapA: 7, TrapB: 2})
	if s.Style == EncVariableCISC {
		// CISC-only richness: memory-to-memory and stack-mode ALU ops.
		add(Instr{Op: OpAdd, N: 3, Operands: [3]Operand{Pop(), Pop(), Push()}})
		add(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Frame(16), Frame(20)}})
		add(Instr{Op: OpSub, N: 3, Operands: [3]Operand{Frame(8), Imm(7), Push()}})
		add(Instr{Op: OpSScc, CC: byte(ir.CmpEQ), N: 3, Operands: [3]Operand{Pop(), Pop(), Push()}})
		add(Instr{Op: OpBrz, N: 1, Operands: [3]Operand{Pop()}, Target: 0x21})
	}
	if s.HasAtomicUnlink {
		add(Instr{Op: OpUnlq})
	}
	return ins
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, s := range AllSpecs() {
		var code []byte
		var err error
		ins := sampleInstrs(s)
		var starts []uint32
		for _, in := range ins {
			starts = append(starts, uint32(len(code)))
			code, err = Encode(s, code, in)
			if err != nil {
				t.Fatalf("%s: encode %v: %v", s.Name, in, err)
			}
		}
		for i, in := range ins {
			got, err := Decode(s, code, starts[i])
			if err != nil {
				t.Fatalf("%s: decode %v at %d: %v", s.Name, in, starts[i], err)
			}
			want := in
			want.Size = got.Size
			if got.String() != want.String() {
				t.Errorf("%s: roundtrip %q -> %q", s.Name, want, got)
			}
		}
		if s.Style == EncFixedRISC {
			for i, in := range ins {
				exp := uint32(4)
				if in.Op == OpTrap || (in.Op == OpMov && in.Operands[0].Mode == ModeImm) {
					exp = 8
				}
				got, _ := Decode(s, code, starts[i])
				if got.Size != exp {
					t.Errorf("%s: %v size %d, want %d", s.Name, in, got.Size, exp)
				}
			}
		}
	}
}

func TestEncodingLengthsDifferAcrossArchs(t *testing.T) {
	in := Instr{Op: OpMov, N: 2, Operands: [3]Operand{Frame(8), Reg(1)}}
	sizes := map[ID]int{}
	for _, s := range AllSpecs() {
		code, err := Encode(s, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		sizes[s.ID] = len(code)
	}
	if sizes[VAX] == sizes[M68K] && sizes[M68K] == sizes[SPARC] {
		t.Errorf("identical instruction sizes across archs: %v", sizes)
	}
}

func TestRISCRejectsComplexModes(t *testing.T) {
	bad := []Instr{
		{Op: OpAdd, N: 3, Operands: [3]Operand{Pop(), Pop(), Push()}},
		{Op: OpMov, N: 2, Operands: [3]Operand{Frame(4), Frame(8)}},
		{Op: OpSScc, CC: 0, N: 3, Operands: [3]Operand{Pop(), Pop(), Push()}},
		{Op: OpUnlq},
	}
	for _, in := range bad {
		if _, err := Encode(SPARCSpec, nil, in); err == nil {
			t.Errorf("sparc: expected encode error for %v", in)
		}
	}
}

func TestPatchTarget(t *testing.T) {
	for _, s := range AllSpecs() {
		for _, in := range []Instr{
			{Op: OpJmp, Target: 0},
			{Op: OpBrz, N: 1, Operands: [3]Operand{Reg(2)}, Target: 0},
		} {
			code, err := Encode(s, nil, in)
			if err != nil {
				t.Fatal(err)
			}
			if err := PatchTarget(s, code, 0, 0xbeef&0x7fff); err != nil {
				t.Fatalf("%s: patch: %v", s.Name, err)
			}
			got, err := Decode(s, code, 0)
			if err != nil || got.Target != 0xbeef&0x7fff {
				t.Errorf("%s: patched target = %#x (%v)", s.Name, got.Target, err)
			}
		}
	}
}

func TestVAXFloatRoundtrip(t *testing.T) {
	f := VAXFloat{}
	cases := []float32{0, 1, -1, 0.5, 3.14159, -123456.78, 1e-20, 1e20, 7}
	for _, v := range cases {
		got := f.Dec(f.Enc(v))
		if v == 0 && got != 0 {
			t.Errorf("vaxf: 0 -> %g", got)
			continue
		}
		if v != 0 {
			rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
			if rel > 1e-6 {
				t.Errorf("vaxf roundtrip %g -> %g (rel err %g)", v, got, rel)
			}
		}
	}
}

func TestVAXFloatBitsDifferFromIEEE(t *testing.T) {
	f := VAXFloat{}
	i := IEEEFloat{}
	for _, v := range []float32{1, 2.5, -7.25, 1000} {
		if f.Enc(v) == i.Enc(v) {
			t.Errorf("VAX F bits equal IEEE bits for %g — format conversion would be a no-op", v)
		}
	}
}

func TestVAXFloatQuick(t *testing.T) {
	f := VAXFloat{}
	err := quick.Check(func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		// Saturation cases excluded: stay in a safely representable range.
		if v != 0 && (math.Abs(float64(v)) > 1e30 || math.Abs(float64(v)) < 1e-30) {
			return true
		}
		got := f.Dec(f.Enc(v))
		if v == 0 {
			return got == 0
		}
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		return rel < 1e-6
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// buildTestMem lays out a small memory image with a frame, temp area,
// self object, literal table and two strings, for executor tests.
type testMem struct {
	mem      []byte
	cpu      CPU
	strAddrs []uint32
}

func newTestMem(s *Spec, strs ...string) *testMem {
	m := &testMem{mem: make([]byte, 4096)}
	m.cpu.FP = 256       // frame at 256..511
	m.cpu.TempBase = 512 // temps at 512..767
	m.cpu.Self = 768     // object header at 768
	m.cpu.LitBase = 1024
	next := uint32(1280)
	for i, str := range strs {
		addr := next
		s.ByteOrd.PutUint32(m.mem[addr:], 0) // header
		s.ByteOrd.PutUint32(m.mem[addr+4:], uint32(len(str)))
		copy(m.mem[addr+8:], str)
		next = addr + 8 + uint32((len(str)+3)&^3)
		m.strAddrs = append(m.strAddrs, addr)
		s.ByteOrd.PutUint32(m.mem[m.cpu.LitBase+uint32(4*i):], addr)
	}
	return m
}

// run encodes and executes the instructions, returning the final trap.
func (m *testMem) run(t *testing.T, s *Spec, ins []Instr) *Trap {
	t.Helper()
	var code []byte
	var err error
	for _, in := range ins {
		code, err = Encode(s, code, in)
		if err != nil {
			t.Fatalf("%s: encode %v: %v", s.Name, in, err)
		}
	}
	code, err = Encode(s, code, Instr{Op: OpRet})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := Run(s, &m.cpu, code, m.mem, 10000)
	if err != nil {
		t.Fatalf("%s: run: %v", s.Name, err)
	}
	if tr == nil {
		t.Fatalf("%s: no trap", s.Name)
	}
	return tr
}

func TestExecArithmeticAllArchs(t *testing.T) {
	for _, s := range AllSpecs() {
		m := newTestMem(s)
		// r4 = (7+5)*3 - 10/2 = 31; r5 = 31 % 4 = 3; r6 = -r5 = -3; r7=|r6|
		ins := []Instr{
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(7), Reg(1)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(5), Reg(2)}},
			{Op: OpAdd, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(4)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(3), Reg(2)}},
			{Op: OpMul, N: 3, Operands: [3]Operand{Reg(4), Reg(2), Reg(4)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(10), Reg(1)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(2), Reg(2)}},
			{Op: OpDiv, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(3)}},
			{Op: OpSub, N: 3, Operands: [3]Operand{Reg(4), Reg(3), Reg(4)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(4), Reg(2)}},
			{Op: OpMod, N: 3, Operands: [3]Operand{Reg(4), Reg(2), Reg(5)}},
			{Op: OpNeg, N: 2, Operands: [3]Operand{Reg(5), Reg(6)}},
			{Op: OpAbs, N: 2, Operands: [3]Operand{Reg(6), Reg(7)}},
		}
		tr := m.run(t, s, ins)
		if tr.Kind != TrapRet {
			t.Fatalf("%s: trap %v", s.Name, tr.Kind)
		}
		if got := int32(m.cpu.Regs[4]); got != 31 {
			t.Errorf("%s: r4 = %d, want 31", s.Name, got)
		}
		if got := int32(m.cpu.Regs[5]); got != 3 {
			t.Errorf("%s: r5 = %d, want 3", s.Name, got)
		}
		if got := int32(m.cpu.Regs[6]); got != -3 {
			t.Errorf("%s: r6 = %d, want -3", s.Name, got)
		}
		if got := int32(m.cpu.Regs[7]); got != 3 {
			t.Errorf("%s: r7 = %d, want 3", s.Name, got)
		}
	}
}

func TestExecFloatsPerFormat(t *testing.T) {
	for _, s := range AllSpecs() {
		m := newTestMem(s)
		a := s.Float.Enc(2.5)
		b := s.Float.Enc(4.0)
		ins := []Instr{
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(a), Reg(1)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(b), Reg(2)}},
			{Op: OpFMul, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(4)}},
			{Op: OpFSub, N: 3, Operands: [3]Operand{Reg(4), Reg(2), Reg(5)}},
			{Op: OpFScc, CC: byte(ir.CmpGT), N: 3, Operands: [3]Operand{Reg(4), Reg(5), Reg(6)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(3), Reg(1)}},
			{Op: OpCvt, N: 2, Operands: [3]Operand{Reg(1), Reg(7)}},
		}
		m.run(t, s, ins)
		if got := s.Float.Dec(m.cpu.Regs[4]); got != 10.0 {
			t.Errorf("%s: fmul = %g, want 10", s.Name, got)
		}
		if got := s.Float.Dec(m.cpu.Regs[5]); got != 6.0 {
			t.Errorf("%s: fsub = %g, want 6", s.Name, got)
		}
		if m.cpu.Regs[6] != 1 {
			t.Errorf("%s: fscc = %d, want 1", s.Name, m.cpu.Regs[6])
		}
		if got := s.Float.Dec(m.cpu.Regs[7]); got != 3.0 {
			t.Errorf("%s: cvt = %g, want 3", s.Name, got)
		}
	}
}

func TestExecStackModesCISC(t *testing.T) {
	for _, s := range []*Spec{VAXSpec, M68KSpec} {
		m := newTestMem(s)
		// push 10; push 3; sub pops b=3, a=10 -> 7
		ins := []Instr{
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(10), Push()}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(3), Push()}},
			{Op: OpSub, N: 3, Operands: [3]Operand{Pop(), Pop(), Push()}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Pop(), Reg(4)}},
		}
		m.run(t, s, ins)
		if got := int32(m.cpu.Regs[4]); got != 7 {
			t.Errorf("%s: stack sub = %d, want 7 (operand pop order wrong?)", s.Name, got)
		}
		if m.cpu.TempDepth != 0 {
			t.Errorf("%s: temp depth = %d, want 0", s.Name, m.cpu.TempDepth)
		}
	}
}

func TestExecFrameAndSelfEndianness(t *testing.T) {
	for _, s := range AllSpecs() {
		m := newTestMem(s)
		ins := []Instr{
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(0x11223344), Reg(1)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Reg(1), Frame(8)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Reg(1), SelfOp(0)}},
		}
		m.run(t, s, ins)
		// Raw bytes must follow the architecture byte order.
		fb := m.mem[m.cpu.FP+8 : m.cpu.FP+12]
		want := []byte{0x44, 0x33, 0x22, 0x11}
		if s.ByteOrd == binary.BigEndian {
			want = []byte{0x11, 0x22, 0x33, 0x44}
		}
		for i := range want {
			if fb[i] != want[i] {
				t.Errorf("%s: frame bytes = % x, want % x", s.Name, fb, want)
				break
			}
		}
		sb := m.mem[m.cpu.Self+ObjDataOff : m.cpu.Self+ObjDataOff+4]
		if s.ByteOrd.Uint32(sb) != 0x11223344 {
			t.Errorf("%s: self slot = %#x", s.Name, s.ByteOrd.Uint32(sb))
		}
	}
}

func TestExecStringsAndLiterals(t *testing.T) {
	for _, s := range AllSpecs() {
		m := newTestMem(s, "apple", "banana")
		ins := []Instr{
			{Op: OpMov, N: 2, Operands: [3]Operand{Lit(0), Reg(1)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Lit(1), Reg(2)}},
			{Op: OpSLen, N: 2, Operands: [3]Operand{Reg(1), Reg(4)}},
			{Op: OpSScc, CC: byte(ir.CmpLT), N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(5)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(1), Reg(3)}},
			{Op: OpSIdx, N: 3, Operands: [3]Operand{Reg(1), Reg(3), Reg(6)}},
		}
		m.run(t, s, ins)
		if m.cpu.Regs[4] != 5 {
			t.Errorf("%s: slen = %d", s.Name, m.cpu.Regs[4])
		}
		if m.cpu.Regs[5] != 1 {
			t.Errorf("%s: apple < banana = %d", s.Name, m.cpu.Regs[5])
		}
		if m.cpu.Regs[6] != 'p' {
			t.Errorf("%s: sidx = %c", s.Name, m.cpu.Regs[6])
		}
	}
}

func TestExecArrays(t *testing.T) {
	for _, s := range AllSpecs() {
		m := newTestMem(s)
		// Build a 3-element array at 2048.
		arr := uint32(2048)
		s.ByteOrd.PutUint32(m.mem[arr+4:], 3)
		ins := []Instr{
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(arr), Reg(1)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(2), Reg(2)}},
			{Op: OpMov, N: 2, Operands: [3]Operand{Imm(99), Reg(3)}},
			{Op: OpAStor, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(3)}},
			{Op: OpALoad, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(4)}},
			{Op: OpALen, N: 2, Operands: [3]Operand{Reg(1), Reg(5)}},
		}
		m.run(t, s, ins)
		if m.cpu.Regs[4] != 99 || m.cpu.Regs[5] != 3 {
			t.Errorf("%s: aload=%d alen=%d", s.Name, m.cpu.Regs[4], m.cpu.Regs[5])
		}
	}
}

func TestExecFaults(t *testing.T) {
	for _, s := range AllSpecs() {
		cases := []struct {
			name string
			ins  []Instr
			want FaultCode
		}{
			{"div0", []Instr{
				{Op: OpMov, N: 2, Operands: [3]Operand{Imm(1), Reg(1)}},
				{Op: OpMov, N: 2, Operands: [3]Operand{Imm(0), Reg(2)}},
				{Op: OpDiv, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(3)}},
			}, FaultDivZero},
			{"bounds", []Instr{
				{Op: OpMov, N: 2, Operands: [3]Operand{Imm(2048), Reg(1)}},
				{Op: OpMov, N: 2, Operands: [3]Operand{Imm(50), Reg(2)}},
				{Op: OpALoad, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(3)}},
			}, FaultBounds},
			{"nil", []Instr{
				{Op: OpMov, N: 2, Operands: [3]Operand{Imm(0), Reg(1)}},
				{Op: OpSLen, N: 2, Operands: [3]Operand{Reg(1), Reg(2)}},
			}, FaultNilRef},
		}
		for _, c := range cases {
			m := newTestMem(s)
			s.ByteOrd.PutUint32(m.mem[2048+4:], 3)
			tr := m.run(t, s, c.ins)
			if tr.Kind != TrapFault || tr.Fault != c.want {
				t.Errorf("%s/%s: trap %v fault %v, want %v", s.Name, c.name, tr.Kind, tr.Fault, c.want)
			}
		}
	}
}

func TestExecBranchesAndLoops(t *testing.T) {
	for _, s := range AllSpecs() {
		m := newTestMem(s)
		// r4 = sum 1..5 via loop with brnz.
		var code []byte
		var err error
		emit := func(in Instr) uint32 {
			start := uint32(len(code))
			code, err = Encode(s, code, in)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			return start
		}
		emit(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Imm(5), Reg(1)}})
		emit(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Imm(0), Reg(4)}})
		top := uint32(len(code))
		emit(Instr{Op: OpAdd, N: 3, Operands: [3]Operand{Reg(4), Reg(1), Reg(4)}})
		emit(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Imm(1), Reg(2)}})
		emit(Instr{Op: OpSub, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(1)}})
		emit(Instr{Op: OpPoll})
		emit(Instr{Op: OpBrnz, N: 1, Operands: [3]Operand{Reg(1)}, Target: uint16(top)})
		emit(Instr{Op: OpRet})
		tr, _, _, err := Run(s, &m.cpu, code, m.mem, 10000)
		if err != nil || tr == nil || tr.Kind != TrapRet {
			t.Fatalf("%s: %v %v", s.Name, tr, err)
		}
		if m.cpu.Regs[4] != 15 {
			t.Errorf("%s: sum = %d, want 15", s.Name, m.cpu.Regs[4])
		}
	}
}

func TestExecPollPreempt(t *testing.T) {
	for _, s := range AllSpecs() {
		m := newTestMem(s)
		m.cpu.Preempt = true
		var code []byte
		code, _ = Encode(s, code, Instr{Op: OpPoll})
		code, _ = Encode(s, code, Instr{Op: OpRet})
		tr, _, _, err := Run(s, &m.cpu, code, m.mem, 10)
		if err != nil || tr == nil || tr.Kind != TrapYield {
			t.Fatalf("%s: want yield trap, got %v %v", s.Name, tr, err)
		}
		// PC must be past the poll: resuming continues with ret.
		m.cpu.Preempt = false
		tr, _, _, err = Run(s, &m.cpu, code, m.mem, 10)
		if err != nil || tr == nil || tr.Kind != TrapRet {
			t.Fatalf("%s: resume: got %v %v", s.Name, tr, err)
		}
	}
}

func TestExecTrapOperands(t *testing.T) {
	for _, s := range AllSpecs() {
		m := newTestMem(s)
		var code []byte
		code, _ = Encode(s, code, Instr{Op: OpTrap, TrapKind: TrapCall, TrapA: 300, TrapB: 2})
		tr, _, _, err := Run(s, &m.cpu, code, m.mem, 10)
		if err != nil || tr == nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if tr.Kind != TrapCall || tr.A != 300 || tr.B != 2 {
			t.Errorf("%s: trap = %+v", s.Name, tr)
		}
		if tr.PC == 0 || tr.PC != m.cpu.PC {
			t.Errorf("%s: trap PC %d vs cpu PC %d", s.Name, tr.PC, m.cpu.PC)
		}
	}
}

func TestExecUnlinkQOnlyVAX(t *testing.T) {
	m := newTestMem(VAXSpec)
	var code []byte
	code, err := Encode(VAXSpec, code, Instr{Op: OpUnlq})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := Run(VAXSpec, &m.cpu, code, m.mem, 10)
	if err != nil || tr == nil || tr.Kind != TrapMonExitA {
		t.Fatalf("vax unlq: %v %v", tr, err)
	}
}

func TestDisassembleRoundtrip(t *testing.T) {
	for _, s := range AllSpecs() {
		var code []byte
		var err error
		for _, in := range sampleInstrs(s) {
			code, err = Encode(s, code, in)
			if err != nil {
				t.Fatal(err)
			}
		}
		d := Disassemble(s, code)
		if strings.Contains(d, "undecodable") {
			t.Errorf("%s: disassembly failed:\n%s", s.Name, d)
		}
		pd, err := Predecode(s, code, 0)
		if err != nil || pd.NumInstrs() != len(sampleInstrs(s)) {
			t.Errorf("%s: predecoded %v (err %v), want %d instrs", s.Name, pd, err, len(sampleInstrs(s)))
		}
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range AllSpecs() {
		fails := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			buf := make([]byte, 16)
			rng.Read(buf)
			if _, err := Decode(s, buf, 0); err != nil {
				fails++
			}
		}
		if fails < trials/3 {
			t.Errorf("%s: only %d/%d garbage decodes failed", s.Name, fails, trials)
		}
	}
}
