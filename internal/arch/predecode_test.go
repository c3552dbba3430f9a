package arch

import (
	"bytes"
	"testing"
)

// buildCountdown emits the standard countdown loop used by the dispatch
// benchmarks: mov imm→r1; top: mov 1→r2; sub; brnz top; ret.
func buildCountdown(t testing.TB, s *Spec, iters uint32) []byte {
	t.Helper()
	var code []byte
	var err error
	emit := func(in Instr) {
		code, err = Encode(s, code, in)
		if err != nil {
			t.Fatal(err)
		}
	}
	emit(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Imm(iters), Reg(1)}})
	top := uint32(len(code))
	emit(Instr{Op: OpMov, N: 2, Operands: [3]Operand{Imm(1), Reg(2)}})
	emit(Instr{Op: OpSub, N: 3, Operands: [3]Operand{Reg(1), Reg(2), Reg(1)}})
	emit(Instr{Op: OpBrnz, N: 1, Operands: [3]Operand{Reg(1)}, Target: uint16(top)})
	emit(Instr{Op: OpRet})
	return code
}

// Dispatch stays allocation-free however a slice cuts the predecoded
// grid: entering a run at an interior member and leaving it when a tiny
// budget expires takes the same write-back exits as a whole run, with
// nothing built per call. (Traps allocate their *Trap — that is a
// kernel-entry event, not steady state — so the loop never finishes
// here.)
func TestPredecodedDispatchSteadyStateAllocs(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			_, _, fz := fuseCountdown(t, s, 1_000_000)
			mem := make([]byte, 4096)
			// The CPU and the runner live outside the measured closure, as
			// they do in the kernel (thread structure and node).
			var cpu CPU
			var rn FusedRunner
			got := testing.AllocsPerRun(100, func() {
				cpu = CPU{FP: 256, TempBase: 512}
				for n, budget := 0, 1; n < 5000; budget = budget%7 + 1 {
					tr, _, did, err := rn.Run(s, fz, &cpu, mem, budget)
					if err != nil || tr != nil || did != budget {
						t.Fatalf("unexpected stop after %d of %d: %v %v", did, budget, tr, err)
					}
					n += did
				}
			})
			if got != 0 {
				t.Errorf("steady-state dispatch allocates %.1f allocs/run, want 0", got)
			}
			if rn.StepFallbackInstrs != 0 {
				t.Errorf("%d instructions fell back to Step on the decode grid", rn.StepFallbackInstrs)
			}
		})
	}
}

// A PC that does not start a predecoded instruction (a computed jump
// into the middle of an encoding) is the one case the fused program does
// not cover: the runner hands it to Step, counts it, and behaves exactly
// like the legacy loop.
func TestPredecodedFallbackMatchesLegacy(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			code, _, fz := fuseCountdown(t, s, 3)
			// Start mid-instruction: PC 1 is inside the first mov on every
			// ISA (smallest encoding is 4 bytes).
			mem1 := make([]byte, 4096)
			mem2 := make([]byte, 4096)
			cpu1 := CPU{PC: 1, FP: 256, TempBase: 512}
			cpu2 := cpu1
			var rn FusedRunner
			tr1, cy1, n1, err1 := rn.Run(s, fz, &cpu1, mem1, 100)
			tr2, cy2, n2, err2 := RunLegacy(s, &cpu2, code, mem2, 100)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error mismatch: %v vs %v", err1, err2)
			}
			if err1 != nil && err1.Error() != err2.Error() {
				t.Fatalf("error text mismatch: %v vs %v", err1, err2)
			}
			if cy1 != cy2 || n1 != n2 {
				t.Errorf("cycles/instrs: %d/%d vs %d/%d", cy1, n1, cy2, n2)
			}
			if (tr1 == nil) != (tr2 == nil) {
				t.Fatalf("trap mismatch: %+v vs %+v", tr1, tr2)
			}
			if tr1 != nil && *tr1 != *tr2 {
				t.Errorf("trap: %+v vs %+v", *tr1, *tr2)
			}
			if cpu1 != cpu2 {
				t.Errorf("cpu state: %+v vs %+v", cpu1, cpu2)
			}
			if !bytes.Equal(mem1, mem2) {
				t.Errorf("memory images differ")
			}
			if rn.StepFallbackInstrs == 0 {
				t.Errorf("off-grid entry was not counted as a Step fallback")
			}
		})
	}
}

// Run, the one-shot convenience, predecodes, plans and fuses a stream
// and must match the legacy loop to completion; a stream that does not
// predecode end to end (a truncated trailing encoding) still runs, on
// the legacy loop, up to the same ret.
func TestPredecodedMatchesLegacyToCompletion(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			code := buildCountdown(t, s, 1000)
			truncated := append(append([]byte(nil), code...), code[0])
			if _, err := Predecode(s, truncated); err == nil {
				t.Fatal("stream with a truncated trailing encoding predecoded")
			}
			for _, code := range [][]byte{code, truncated} {
				mem1 := make([]byte, 4096)
				mem2 := make([]byte, 4096)
				cpu1 := CPU{FP: 256, TempBase: 512}
				cpu2 := cpu1
				tr1, cy1, n1, err1 := Run(s, &cpu1, code, mem1, 1<<30)
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
			}
		})
	}
}
