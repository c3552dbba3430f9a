package arch

import (
	"bytes"
	"testing"
)

// buildCountdown emits the standard countdown loop used by the dispatch
// tests, in the compiler's shape with a loop-bottom poll:
// mov imm→r1; top: mov 1→r2; sub; poll; brnz top; ret.
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
	emit(Instr{Op: OpPoll})
	emit(Instr{Op: OpBrnz, N: 1, Operands: [3]Operand{Reg(1)}, Target: uint16(top)})
	emit(Instr{Op: OpRet})
	return code
}

// Dispatch stays allocation-free however tiny the budget: each Run rolls
// forward to the first poll past it and yields there, and the next one
// resumes at the run head after the poll, with nothing built per call —
// the yield trap included, which the runner owns.
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
					if err != nil || tr == nil || tr.Kind != TrapYield || did <= budget {
						t.Fatalf("stop after %d instructions on budget %d: %v %v, want a yield past the budget", did, budget, tr, err)
					}
					n += did
				}
			})
			if got != 0 {
				t.Errorf("steady-state dispatch allocates %.1f allocs/run, want 0", got)
			}
		})
	}
}

// A PC that does not start a predecoded instruction (a computed jump
// into the middle of an encoding) heads no run, so the fused runner
// refuses it with an error before executing anything; the kernel records
// that as an internal fault.
func TestPredecodedFallbackMatchesLegacy(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			_, _, fz := fuseCountdown(t, s, 3)
			// Start mid-instruction: PC 1 is inside the first mov on every
			// ISA (smallest encoding is 4 bytes).
			mem := make([]byte, 4096)
			cpu := CPU{PC: 1, FP: 256, TempBase: 512}
			before := cpu
			var rn FusedRunner
			tr, cy, n, err := rn.Run(s, fz, &cpu, mem, 100)
			if err == nil || tr != nil {
				t.Fatalf("off-grid entry: trap %+v, error %v; want an error", tr, err)
			}
			if cy != 0 || n != 0 || cpu != before || !bytes.Equal(mem, make([]byte, 4096)) {
				t.Errorf("off-grid entry executed: %d cycles, %d instrs, cpu %+v", cy, n, cpu)
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
			if _, err := Predecode(s, truncated, 0); err == nil {
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

// EndingAt names the instruction a thread stopped at pc has just executed:
// one ends at every instruction boundary after PC 0, the end of the code
// included, and none at PC 0, inside an encoding or past the code.
func TestPredecodedEndingAt(t *testing.T) {
	for _, s := range AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			code := buildCountdown(t, s, 3)
			pd, err := Predecode(s, code, 0)
			if err != nil {
				t.Fatal(err)
			}
			if pd.CodeLen() != len(code) {
				t.Errorf("CodeLen %d, want %d", pd.CodeLen(), len(code))
			}
			ends := map[uint32]Instr{} // end PC -> the instruction ending there
			for pc := uint32(0); int(pc) < len(code); {
				in, err := Decode(s, code, pc)
				if err != nil {
					t.Fatal(err)
				}
				pc += in.Size
				ends[pc] = in
			}
			for pc := uint32(0); int(pc) <= len(code)+1; pc++ {
				in, ok := pd.EndingAt(pc)
				if want, wantOK := ends[pc]; ok != wantOK || in != want {
					t.Errorf("pc %#x: EndingAt = %v, %v; want %v, %v", pc, in, ok, want, wantOK)
				}
			}
		})
	}
}
