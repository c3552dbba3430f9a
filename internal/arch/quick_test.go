package arch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

// genInstr draws a random instruction that is legal on spec.
func genInstr(rng *rand.Rand, s *Spec) Instr {
	reg := func() Operand { return Reg(byte(rng.Intn(16))) }
	anyOperand := func() Operand {
		if s.Style == EncFixedRISC {
			return reg()
		}
		switch rng.Intn(6) {
		case 0:
			return Imm(rng.Uint32())
		case 1:
			return reg()
		case 2:
			return Frame(uint16(rng.Intn(1 << 12)))
		case 3:
			return SelfOp(uint16(rng.Intn(1 << 12)))
		case 4:
			return Lit(uint16(rng.Intn(256)))
		default:
			return Pop()
		}
	}
	dstOperand := func() Operand {
		if s.Style == EncFixedRISC {
			return reg()
		}
		switch rng.Intn(4) {
		case 0:
			return reg()
		case 1:
			return Frame(uint16(rng.Intn(1 << 12)))
		case 2:
			return SelfOp(uint16(rng.Intn(1 << 12)))
		default:
			return Push()
		}
	}
	ops3 := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpFAdd,
		OpFSub, OpFMul, OpFDiv, OpALoad, OpSIdx}
	terminators := []Instr{{Op: OpPoll}, {Op: OpRet}}
	if s.HasAtomicUnlink {
		terminators = append(terminators, Instr{Op: OpUnlq})
	}
	ops2 := []Op{OpNeg, OpAbs, OpNot, OpFNeg, OpCvt, OpALen, OpSLen}
	switch rng.Intn(8) {
	case 0: // mov
		in := Instr{Op: OpMov, N: 2}
		if s.Style == EncFixedRISC {
			// One memory operand max: load or store form.
			if rng.Intn(2) == 0 {
				src := [...]Operand{Imm(rng.Uint32()), Frame(uint16(rng.Intn(4096))),
					SelfOp(uint16(rng.Intn(4096))), Lit(uint16(rng.Intn(256))), Pop(), reg()}[rng.Intn(6)]
				in.Operands = [3]Operand{src, reg()}
			} else {
				dst := [...]Operand{Frame(uint16(rng.Intn(4096))),
					SelfOp(uint16(rng.Intn(4096))), Push()}[rng.Intn(3)]
				in.Operands = [3]Operand{reg(), dst}
			}
		} else {
			in.Operands = [3]Operand{anyOperand(), dstOperand()}
		}
		return in
	case 1:
		if rng.Intn(8) == 0 { // astor reads all three operands
			return Instr{Op: OpAStor, N: 3, Operands: [3]Operand{anyOperand(), anyOperand(), anyOperand()}}
		}
		op := ops3[rng.Intn(len(ops3))]
		return Instr{Op: op, N: 3, Operands: [3]Operand{anyOperand(), anyOperand(), dstOperand()}}
	case 2:
		op := ops2[rng.Intn(len(ops2))]
		return Instr{Op: op, N: 2, Operands: [3]Operand{anyOperand(), dstOperand()}}
	case 3:
		cc := byte(rng.Intn(6))
		op := []Op{OpScc, OpFScc, OpSScc}[rng.Intn(3)]
		return Instr{Op: op, CC: cc, N: 3, Operands: [3]Operand{anyOperand(), anyOperand(), dstOperand()}}
	case 4:
		return Instr{Op: OpJmp, Target: uint16(rng.Intn(1 << 15))}
	case 5:
		op := []Op{OpBrz, OpBrnz}[rng.Intn(2)]
		src := reg()
		if s.Style != EncFixedRISC && rng.Intn(2) == 0 {
			src = Pop()
		}
		return Instr{Op: op, N: 1, Operands: [3]Operand{src}, Target: uint16(rng.Intn(1 << 15))}
	case 6:
		return Instr{Op: OpTrap, TrapKind: TrapKind(1 + rng.Intn(int(NumTrap)-2)),
			TrapA: uint16(rng.Uint32()), TrapB: uint16(rng.Uint32())}
	default:
		return terminators[rng.Intn(len(terminators))]
	}
}

// TestQuickEncodeDecodeRoundtrip: every legal random instruction survives
// encode/decode on every architecture, at every alignment within a stream.
func TestQuickEncodeDecodeRoundtrip(t *testing.T) {
	for _, s := range AllSpecs() {
		s := s
		cfg := &quick.Config{
			MaxCount: 300,
			Values: func(vs []reflect.Value, rng *rand.Rand) {
				n := 1 + rng.Intn(8)
				ins := make([]Instr, n)
				for i := range ins {
					ins[i] = genInstr(rng, s)
				}
				vs[0] = reflect.ValueOf(ins)
			},
		}
		prop := func(ins []Instr) bool {
			var code []byte
			var err error
			starts := make([]uint32, len(ins))
			for i, in := range ins {
				starts[i] = uint32(len(code))
				code, err = Encode(s, code, in)
				if err != nil {
					t.Logf("%s: encode %v: %v", s.Name, in, err)
					return false
				}
			}
			for i, in := range ins {
				got, err := Decode(s, code, starts[i])
				if err != nil {
					t.Logf("%s: decode %v: %v", s.Name, in, err)
					return false
				}
				want := in
				want.Size = got.Size
				if got.String() != want.String() {
					t.Logf("%s: %q != %q", s.Name, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestQuickStepNeverPanics: executing arbitrary (even garbage) bytes either
// decodes and steps or returns an error — never panics or writes outside
// memory.
func TestQuickStepNeverPanics(t *testing.T) {
	for _, s := range AllSpecs() {
		s := s
		prop := func(code []byte, fp, tb uint16) bool {
			mem := make([]byte, 1<<14)
			cpu := CPU{FP: uint32(fp), TempBase: uint32(tb)}
			for i := 0; i < 32; i++ {
				tr, _, err := Step(s, &cpu, code, mem)
				if err != nil || tr != nil {
					return true
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

var _ = ir.VKInt // quick generators share the ir kinds vocabulary
