package arch

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

func fuseCountdown(t testing.TB, s *Spec, iters uint32) ([]byte, *Predecoded, *Fused) {
	t.Helper()
	code := buildCountdown(t, s, iters)
	pd, err := Predecode(s, code, 0)
	if err != nil {
		t.Fatal(err)
	}
	fz := Fuse(s, pd, PlanFusion(pd))
	if fz == nil {
		t.Fatal("countdown loop did not fuse")
	}
	return code, pd, fz
}

// The countdown loop tiles into four runs: the entry mov (the loop top
// is a branch target, so it starts a run of its own), the loop body up
// to its poll (mov, sub, poll), the back branch and the ret. Every
// decoded instruction is in a run.
func TestFusePlanCountdown(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			_, pd, fz := fuseCountdown(t, s, 10)
			lens := fz.RunLens()
			if len(lens) != 4 || lens[0] != 1 || lens[1] != 3 || lens[2] != 1 || lens[3] != 1 {
				t.Fatalf("run lengths = %v, want [1 3 1 1] (mov | mov, sub, poll | brnz | ret)", lens)
			}
			if pd.NumInstrs() != 6 {
				t.Fatalf("decoded %d instructions, want 6", pd.NumInstrs())
			}
		})
	}
}

// A trapping op in straight-line code ends its run and belongs to it:
// its trap is delivered from the run's normal exit, with the PC advanced.
// Stop PCs themselves are no boundary — the instruction after the poll
// starts a run only because the poll ended one. Fuse refuses a plan that
// would put such an op in a run's interior.
func TestFusePlanSplitsAtStops(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			var code []byte
			for _, in := range []Instr{
				{Op: OpMov, N: 2, Operands: [3]Operand{Imm(1), Reg(1)}},
				{Op: OpPoll},
				{Op: OpMov, N: 2, Operands: [3]Operand{Imm(2), Reg(2)}},
				{Op: OpAdd, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(3)}},
				{Op: OpRet},
			} {
				var err error
				if code, err = Encode(s, code, in); err != nil {
					t.Fatal(err)
				}
			}
			pd, err := Predecode(s, code, 0)
			if err != nil {
				t.Fatal(err)
			}
			plan := PlanFusion(pd)
			idx := 0
			for _, r := range plan.Runs {
				if pd.indexAt(r.Head) != int32(idx) {
					t.Fatalf("run at %#x does not start at instruction %d: plan %v", r.Head, idx, plan.Runs)
				}
				for k := 0; k < int(r.N); k++ {
					if last := k == int(r.N)-1; endsRun(pd.instrs[idx+k].Op) && !last {
						t.Errorf("%v in the interior of run at %#x", pd.instrs[idx+k].Op, r.Head)
					}
				}
				idx += int(r.N)
			}
			if idx != pd.NumInstrs() {
				t.Errorf("plan covers %d of %d instructions", idx, pd.NumInstrs())
			}
			if len(plan.Runs) != 2 || plan.Runs[0].N != 2 || plan.Runs[1].N != 3 {
				t.Errorf("plan = %v, want [mov, poll | mov, add, ret]", plan.Runs)
			}
			if fz := Fuse(s, pd, &FusePlan{Runs: []PlanRun{{Head: 0, N: 5}}}); fz != nil {
				t.Error("Fuse accepted a plan with the poll inside a run")
			}
			if fz := Fuse(s, pd, &FusePlan{Runs: plan.Runs[:1]}); fz != nil {
				t.Error("Fuse accepted a plan that does not cover the function")
			}
		})
	}
}

// Run the countdown to completion under fused and legacy dispatch and
// compare every observable.
func TestFusedMatchesLegacyToCompletion(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			code, _, fz := fuseCountdown(t, s, 1000)
			mem1 := make([]byte, 4096)
			mem2 := make([]byte, 4096)
			cpu1 := CPU{FP: 256, TempBase: 512}
			cpu2 := cpu1
			tr1, cy1, n1, err1 := RunFused(s, fz, &cpu1, mem1, 1<<30)
			tr2, cy2, n2, err2 := RunLegacy(s, &cpu2, code, mem2, 1<<30)
			if err1 != nil || err2 != nil {
				t.Fatalf("errors: %v %v", err1, err2)
			}
			if tr1 == nil || tr2 == nil || *tr1 != *tr2 {
				t.Fatalf("traps: %+v vs %+v", tr1, tr2)
			}
			if cy1 != cy2 || n1 != n2 || cpu1 != cpu2 {
				t.Errorf("state: %d/%d/%+v vs %d/%d/%+v", cy1, n1, cpu1, cy2, n2, cpu2)
			}
			if !bytes.Equal(mem1, mem2) {
				t.Errorf("memory images differ")
			}
		})
	}
}

// A thread resumes only at a run head — PC 0, a branch target, or the
// instruction after a kernel entry (a call's return address, a stop).
// Sweep every byte offset as a start PC: from a run head the fused
// runner matches the legacy loop byte for byte; from any other offset —
// mid-run, mid-encoding, past the end — it refuses with an error before
// executing anything.
func TestFusedResumeSweepMatchesLegacy(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			code, _, fz := fuseCountdown(t, s, 5)
			heads := 0
			for pc := uint32(0); pc <= uint32(len(code)); pc++ {
				mem1 := make([]byte, 4096)
				mem2 := make([]byte, 4096)
				cpu1 := CPU{PC: pc, FP: 256, TempBase: 512, Regs: [16]uint32{1: 7, 2: 7}}
				cpu2 := cpu1
				tr1, cy1, n1, err1 := RunFused(s, fz, &cpu1, mem1, 200)
				if fz.runAt(pc) == nil {
					if err1 == nil || tr1 != nil || cy1 != 0 || n1 != 0 || cpu1 != cpu2 {
						t.Errorf("pc=%d heads no run: trap %+v, %d cycles, %d instrs, error %v; want an error and nothing executed",
							pc, tr1, cy1, n1, err1)
					}
					continue
				}
				heads++
				tr2, cy2, n2, err2 := RunLegacy(s, &cpu2, code, mem2, 200)
				if err1 != nil || err2 != nil {
					t.Fatalf("pc=%d: errors %v vs %v", pc, err1, err2)
				}
				if cy1 != cy2 || n1 != n2 {
					t.Errorf("pc=%d: cycles/instrs %d/%d vs %d/%d", pc, cy1, n1, cy2, n2)
				}
				if (tr1 == nil) != (tr2 == nil) || (tr1 != nil && *tr1 != *tr2) {
					t.Errorf("pc=%d: traps %+v vs %+v", pc, tr1, tr2)
				}
				if cpu1 != cpu2 {
					t.Errorf("pc=%d: cpu %+v vs %+v", pc, cpu1, cpu2)
				}
				if !bytes.Equal(mem1, mem2) {
					t.Errorf("pc=%d: memory images differ", pc)
				}
			}
			if heads != fz.NumRuns() {
				t.Errorf("swept %d run heads, want %d", heads, fz.NumRuns())
			}
		})
	}
}

// The budget never stops a thread between bus stops: on every budget,
// with and without a pending reschedule, both tiers run to the same
// trap — the first poll at or past the budget yields — with the same
// state, and neither returns a nil trap without an error.
func TestFusedBudgetMatchesLegacy(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			code, _, fz := fuseCountdown(t, s, 100)
			for budget := 0; budget <= 12; budget++ {
				for _, preempt := range []bool{false, true} {
					mem1 := make([]byte, 4096)
					mem2 := make([]byte, 4096)
					cpu1 := CPU{FP: 256, TempBase: 512, Preempt: preempt}
					cpu2 := cpu1
					tr1, cy1, n1, err1 := RunFused(s, fz, &cpu1, mem1, budget)
					tr2, cy2, n2, err2 := RunLegacy(s, &cpu2, code, mem2, budget)
					if err1 != nil || err2 != nil || tr1 == nil || tr2 == nil {
						t.Fatalf("budget=%d preempt=%v: traps %+v %+v, errors %v %v", budget, preempt, tr1, tr2, err1, err2)
					}
					if *tr1 != *tr2 || tr1.Kind != TrapYield {
						t.Errorf("budget=%d preempt=%v: traps %+v vs %+v, want one yield", budget, preempt, *tr1, *tr2)
					}
					if cy1 != cy2 || n1 != n2 || cpu1 != cpu2 {
						t.Errorf("budget=%d preempt=%v: %d/%d/%+v vs %d/%d/%+v",
							budget, preempt, cy1, n1, cpu1, cy2, n2, cpu2)
					}
					if !preempt && n1 <= budget {
						t.Errorf("budget=%d: yielded after %d instructions, before the budget was spent", budget, n1)
					}
				}
			}
		})
	}
}

// TestQuickFusedMatchesLegacy: random legal instruction streams, fused
// against legacy, entered at a random run head with a random budget and
// preemption flag. Both tiers compile every op through fuseInstr, so what
// this checks is fusion itself: run tiling, head-only entry, the register
// file held across runs, fault and trap exits, the per-run budget rule,
// and the flat all-register forms (which only the fused tier compiles)
// against the general forms. Streams include faulting memory modes, stack
// over- and underflow, div-zero, branches to instruction starts and past
// the code, and every kernel-entry op. Running off the code is an error
// on both tiers (with different texts: an undecodable PC against one that
// heads no run). A second generator (genBlockStream) strings together the
// stack idioms Fuse compiles into blocks, in a memory so small that most
// guards fail somewhere.
func TestQuickFusedMatchesLegacy(t *testing.T) {
	for _, s := range AllSpecs() {
		rng := rand.New(rand.NewSource(0x5eed + int64(s.ID)))
		for iter := 0; iter < 300; iter++ {
			n := 2 + rng.Intn(10)
			var code []byte
			var starts []uint32
			var err error
			for i := 0; i < n && err == nil; i++ {
				starts = append(starts, uint32(len(code)))
				code, err = Encode(s, code, genInstr(rng, s))
			}
			if err != nil {
				continue
			}
			// Branches land on an instruction start or past the code: the
			// compiler never branches into an encoding, which the fused
			// runner refuses and the legacy loop decodes as garbage.
			for _, at := range starts {
				in, _ := Decode(s, code, at)
				if !shapes[in.Op].hasTarget || int(in.Target) >= len(code) {
					continue
				}
				snap := starts[0]
				for _, st := range starts {
					if st <= uint32(in.Target) {
						snap = st
					}
				}
				if err := PatchTarget(s, code, at, uint16(snap)); err != nil {
					t.Fatal(err)
				}
			}
			fz := fuseStream(t, s, code)
			// Small random words everywhere, so array and string headers
			// read plausible lengths and the non-faulting paths run too.
			mem := make([]byte, 1<<14)
			for a := 0; a < len(mem); a += 4 {
				s.ByteOrd.PutUint32(mem[a:], rng.Uint32()%2048)
			}
			// Registers: small values (plausible addresses and indices)
			// mixed with the sign edges, so a compare or an arithmetic op
			// that loses its sign differs between the flat and the general
			// forms.
			var regs [16]uint32
			for i := range regs {
				regs[i] = rng.Uint32() % 1024
				if rng.Intn(2) == 0 {
					regs[i] = [...]uint32{0, 1, 0xffffffff, 0x80000000, 0x7fffffff}[rng.Intn(5)]
				}
			}
			cpu := CPU{PC: fz.runs[rng.Intn(fz.NumRuns())].head, FP: 256, TempBase: 512, LitBase: 1024, Self: 2048,
				TempDepth: int32(rng.Intn(4)), Regs: regs, Preempt: rng.Intn(2) == 0}
			budget := rng.Intn(12) // around the streams' length, so polls land on both sides of it
			diffTiers(t, s, fz, code, cpu, mem, budget, iter)
		}

		blocks, faults := [numBlockKinds]int{}, 0
		for iter := 0; iter < 10000; iter++ {
			code := genBlockStream(rng, s)
			fz := fuseStream(t, s, code)
			for ri := range fz.runs {
				fr := &fz.runs[ri]
				for i, k := fr.lo, fr.ilo; k < fr.ihi; i, k = i+int32(fz.width[k]), k+1 {
					if fz.width[k] > 1 {
						blocks[fusers[s.ID].match(fz.p.instrs[i:fr.hi]).kind]++
					}
				}
			}
			// FP and TempBase near the end of a small memory, so frame and
			// temp-stack words alias and fall off it.
			mem := make([]byte, 64+4*rng.Intn(11))
			for a := 0; a < len(mem); a += 4 {
				s.ByteOrd.PutUint32(mem[a:], [...]uint32{0, 1, 3, 0xfffffffe, 0x80000000}[rng.Intn(5)])
			}
			tb := uint32(len(mem) - 4*rng.Intn(8))
			fp := tb - uint32(2*rng.Intn(12))
			var regs [16]uint32
			for i := range regs {
				regs[i] = [...]uint32{0, 1, 7, 0xffffffff, 0x80000000}[rng.Intn(5)]
			}
			cpu := CPU{FP: fp, TempBase: tb, TempDepth: int32(rng.Intn(4)), Regs: regs}
			if tr := diffTiers(t, s, fz, code, cpu, mem, 1<<20, iter); tr != nil && tr.Kind == TrapFault {
				faults++
			}
		}
		t.Logf("%s: blocks compiled per kind %v; %d of 10000 stack-idiom streams faulted", s.Name, blocks, faults)
		for k, n := range blocks {
			if n == 0 && (s.Style != EncFixedRISC || blockKind(k) >= blockPopPopALUPush) {
				t.Errorf("%s: the stack-idiom streams compiled no block of kind %d", s.Name, k)
			}
		}
	}
}

// fusers are the fusers Fuse compiles with, one per ISA.
var fusers = [NumArch]*fuser{VAX: {s: VAXSpec, flat: true}, M68K: {s: M68KSpec, flat: true}, SPARC: {s: SPARCSpec, flat: true}}

func fuseStream(t *testing.T, s *Spec, code []byte) *Fused {
	t.Helper()
	pd, err := Predecode(s, code, 0)
	if err != nil {
		t.Fatalf("%s: encoded stream does not predecode: %v\ncode: %x", s.Name, err, code)
	}
	fz := Fuse(s, pd, PlanFusion(pd))
	if fz == nil {
		t.Fatalf("%s: predecoded stream did not fuse\ncode: %x", s.Name, code)
	}
	return fz
}

// diffTiers runs code from cpu on both tiers, each on its own copy of mem,
// fails the test on any observable that differs and returns the trap.
func diffTiers(t *testing.T, s *Spec, fz *Fused, code []byte, cpu CPU, mem []byte, budget, iter int) *Trap {
	t.Helper()
	cpu1, cpu2 := cpu, cpu
	mem1, mem2 := slices.Clone(mem), slices.Clone(mem)
	tr1, cy1, n1, err1 := RunFused(s, fz, &cpu1, mem1, budget)
	tr2, cy2, n2, err2 := RunLegacy(s, &cpu2, code, mem2, budget)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s iter %d: error mismatch: %v vs %v\ncode: %x", s.Name, iter, err1, err2, code)
	}
	if cy1 != cy2 || n1 != n2 {
		t.Fatalf("%s iter %d: cycles/instrs %d/%d vs %d/%d\ncode: %x", s.Name, iter, cy1, n1, cy2, n2, code)
	}
	if (tr1 == nil) != (tr2 == nil) || (tr1 != nil && *tr1 != *tr2) {
		t.Fatalf("%s iter %d: traps %+v vs %+v\ncode: %x", s.Name, iter, tr1, tr2, code)
	}
	if cpu1 != cpu2 {
		t.Fatalf("%s iter %d: cpu\n%+v\n%+v\ncode: %x", s.Name, iter, cpu1, cpu2, code)
	}
	if !bytes.Equal(mem1, mem2) {
		t.Fatalf("%s iter %d: memory images differ\ncode: %x", s.Name, iter, code)
	}
	return tr2
}

// genBlockStream strings together one to four of the stack idioms Fuse
// compiles into blocks (block.go), each with a random tail, from a few
// registers, small frame displacements (half-word ones too, so a frame
// word can straddle two temp words) and immediates that include a zero
// divisor; operands the ISA cannot encode are dropped, which leaves
// broken idioms in the stream too. It ends in ret, which every branch
// targets: a branch back would loop to the runaway bound.
func genBlockStream(rng *rand.Rand, s *Spec) []byte {
	reg := func() Operand { return Reg(byte(1 + rng.Intn(3))) }
	frame := func() Operand { return Frame(uint16(2 * rng.Intn(12))) }
	src := func() Operand {
		switch rng.Intn(3) {
		case 0:
			return Imm([...]uint32{0, 1, 7, 0xffffffff}[rng.Intn(4)])
		case 1:
			return reg()
		}
		return frame()
	}
	alu := func(a, b, c Operand) Instr {
		op := [...]Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpScc}[rng.Intn(8)]
		return Instr{Op: op, CC: byte(rng.Intn(6)), N: 3, Operands: [3]Operand{a, b, c}}
	}
	brz := func(o Operand) Instr {
		return Instr{Op: [...]Op{OpBrz, OpBrnz}[rng.Intn(2)], N: 1, Operands: [3]Operand{o}}
	}
	var ins []Instr
	for k := 1 + rng.Intn(4); k > 0; k-- {
		switch rng.Intn(4) {
		case 0:
			ins = append(ins, mov(src(), Push()), mov(src(), Push()), alu(Pop(), Pop(), Push()))
		case 1:
			ins = append(ins, mov(src(), Push()), alu(Pop(), Pop(), Push()))
		case 2:
			x, y, z := reg(), reg(), reg()
			ins = append(ins, mov(Pop(), x), mov(Pop(), y), alu(y, x, z), mov(z, Push()))
		default:
			a := reg()
			ins = append(ins, mov(Imm(uint32(rng.Intn(3))), a), mov(a, Push()))
		}
		switch rng.Intn(4) {
		case 0:
			if rng.Intn(2) == 0 {
				ins = append(ins, mov(Pop(), reg()))
			} else {
				ins = append(ins, mov(Pop(), frame()))
			}
		case 1:
			ins = append(ins, brz(Pop()))
		case 2:
			w := reg()
			ins = append(ins, mov(Pop(), w), brz(w))
		}
	}
	var code []byte
	var at []uint32
	for _, in := range append(ins, Instr{Op: OpRet}) {
		next, err := Encode(s, code, in)
		if err != nil {
			continue
		}
		if shapes[in.Op].hasTarget {
			at = append(at, uint32(len(code)))
		}
		code = next
	}
	for _, pc := range at {
		if err := PatchTarget(s, code, pc, uint16(len(code))-uint16(retSize[s.ID])); err != nil {
			panic(err)
		}
	}
	return code
}
