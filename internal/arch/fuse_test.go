package arch

import (
	"bytes"
	"math/rand"
	"testing"
)

func fuseCountdown(t testing.TB, s *Spec, iters uint32) ([]byte, *Predecoded, *Fused) {
	t.Helper()
	code := buildCountdown(t, s, iters)
	pd, err := Predecode(s, code)
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
			pd, err := Predecode(s, code)
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

// Steady-state fused dispatch must not allocate: closures are built once
// at Fuse time and all mutable state — the yield trap included — lives in
// the reusable FusedRunner.
func TestFusedDispatchSteadyStateAllocs(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			_, _, fz := fuseCountdown(t, s, 1_000_000)
			mem := make([]byte, 4096)
			var cpu CPU
			var rn FusedRunner // lives in the node, outside the slice loop
			got := testing.AllocsPerRun(100, func() {
				cpu = CPU{FP: 256, TempBase: 512}
				tr, _, n, err := rn.Run(s, fz, &cpu, mem, 5000)
				if err != nil || tr == nil || tr.Kind != TrapYield || n <= 5000 {
					t.Fatalf("stop after %d instructions: %v %v, want a yield past the budget", n, tr, err)
				}
			})
			if got != 0 {
				t.Errorf("fused dispatch allocates %.1f allocs/run, want 0", got)
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
// this checks is fusion itself: run tiling, head-only entry, register
// slots and their write-back on the end, fault and trap exits, the
// per-run budget rule, and the flat all-register forms (which only the
// fused tier compiles) against the general forms. Streams include
// faulting memory modes, stack over- and underflow, div-zero, branches to
// instruction starts and past the code, and every kernel-entry op.
// Running off the code is an error on both tiers (with different texts:
// an undecodable PC against one that heads no run).
func TestQuickFusedMatchesLegacy(t *testing.T) {
	for _, s := range AllSpecs() {
		s := s
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
			pd, err := Predecode(s, code)
			if err != nil {
				t.Fatalf("%s iter %d: encoded stream does not predecode: %v\ncode: %x", s.Name, iter, err, code)
			}
			fz := Fuse(s, pd, PlanFusion(pd))
			if fz == nil {
				t.Fatalf("%s iter %d: predecoded stream did not fuse\ncode: %x", s.Name, iter, code)
			}
			// Small random words everywhere, so array and string headers
			// read plausible lengths and the non-faulting paths run too.
			mem1 := make([]byte, 1<<14)
			for a := 0; a < len(mem1); a += 4 {
				s.ByteOrd.PutUint32(mem1[a:], rng.Uint32()%2048)
			}
			mem2 := append([]byte(nil), mem1...)
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
			cpu1 := CPU{PC: fz.runs[rng.Intn(fz.NumRuns())].head, FP: 256, TempBase: 512, LitBase: 1024, Self: 2048,
				TempDepth: int32(rng.Intn(4)), Regs: regs, Preempt: rng.Intn(2) == 0}
			cpu2 := cpu1
			budget := rng.Intn(12) // around the streams' length, so polls land on both sides of it
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
		}
	}
}
