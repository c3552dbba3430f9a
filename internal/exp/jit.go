// The emjit dispatch study: the same compute-bound register loop run to
// completion on every ISA under the two dispatch tiers — the legacy
// byte-at-a-time reference emulator (arch.Step) and the fused
// superinstruction dispatcher — with emulated MIPS (simulated
// instructions per host wall-clock second) measured for each. Both tiers
// run the closures arch's one op compiler builds; the reference decodes
// and compiles every instruction it steps, the fused tier compiles each
// once and dispatches a run per lookup, and that is the cost measured.
//
// The simulated observables (trap, cycles, instruction count, final
// registers) are asserted identical across the tiers inside the
// experiment, and the deterministic fields of BENCH_jit.json (instrs,
// cycles, fused run structure) are baseline-gated. The MIPS numbers are
// host wall-clock and therefore carry the "host" field prefix, which
// the baseline comparator skips (see CompareBenchJSON).

package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/arch"
)

// jitIters picks the loop trip count: 6 instructions per iteration, so
// ~150k iterations is ~0.9M simulated instructions per arm — enough to
// swamp timer granularity while keeping one legacy rep near 0.2 s of
// host time.
const jitIters = 150_000

// jitLoop builds the compute kernel: an all-register multiply-accumulate
// countdown, legal on every ISA including the register-only RISC rules
// (immediates enter via mov). The body is one fused run — six
// instructions between the loop-top branch target and the back-branch —
// between the one-instruction entry and ret runs.
func jitLoop(s *arch.Spec, iters uint32) ([]byte, error) {
	var code []byte
	var err error
	emit := func(in arch.Instr) {
		if err != nil {
			return
		}
		code, err = arch.Encode(s, code, in)
	}
	emit(arch.Instr{Op: arch.OpMov, N: 2, Operands: [3]arch.Operand{arch.Imm(iters), arch.Reg(1)}})
	top := uint32(len(code))
	emit(arch.Instr{Op: arch.OpMov, N: 2, Operands: [3]arch.Operand{arch.Imm(3), arch.Reg(3)}})
	emit(arch.Instr{Op: arch.OpMul, N: 3, Operands: [3]arch.Operand{arch.Reg(1), arch.Reg(3), arch.Reg(4)}})
	emit(arch.Instr{Op: arch.OpAdd, N: 3, Operands: [3]arch.Operand{arch.Reg(4), arch.Reg(2), arch.Reg(2)}})
	emit(arch.Instr{Op: arch.OpMov, N: 2, Operands: [3]arch.Operand{arch.Imm(1), arch.Reg(5)}})
	emit(arch.Instr{Op: arch.OpSub, N: 3, Operands: [3]arch.Operand{arch.Reg(1), arch.Reg(5), arch.Reg(1)}})
	emit(arch.Instr{Op: arch.OpBrnz, N: 1, Operands: [3]arch.Operand{arch.Reg(1)}, Target: uint16(top)})
	emit(arch.Instr{Op: arch.OpRet})
	return code, err
}

// jitObs is the simulated outcome of one arm — everything that must be
// identical across dispatch tiers.
type jitObs struct {
	trap   arch.Trap
	cycles uint64
	instrs int
	regs   [16]uint32
}

// jitTime runs the workload once per rep and returns the best wall time
// with the (rep-invariant) observables. Best-of is the standard defense
// against scheduler noise in throughput measurement.
func jitTime(reps int, run func() (jitObs, error)) (jitObs, time.Duration, error) {
	var best time.Duration
	var obs jitObs
	for i := 0; i < reps; i++ {
		start := time.Now()
		o, err := run()
		wall := time.Since(start)
		if err != nil {
			return jitObs{}, 0, err
		}
		if i == 0 {
			obs = o
		} else if o != obs {
			return jitObs{}, 0, fmt.Errorf("rep %d: observables changed across reps: %+v vs %+v", i, o, obs)
		}
		if i == 0 || wall < best {
			best = wall
		}
	}
	return obs, best, nil
}

// JitResult is one ISA's two-tier measurement, and one row of
// BENCH_jit.json. The host-prefixed fields are wall-clock measurements the
// baseline gate skips; everything else is deterministic simulation output.
type JitResult struct {
	Arch           string  `json:"arch"`
	Instrs         int     `json:"instrs"`
	Cycles         uint64  `json:"cycles"`
	FusedRuns      int     `json:"fused_runs"`
	FusedCoverage  float64 `json:"fused_coverage"` // fraction of decoded instructions inside fused runs
	HostMIPSLegacy float64 `json:"host_mips_legacy"`
	HostMIPSFused  float64 `json:"host_mips_fused"`
}

func mips(instrs int, wall time.Duration) float64 {
	return float64(instrs) / wall.Seconds() / 1e6
}

// JitStudy measures the two dispatch tiers on every ISA and returns the
// rows plus the workload's description line.
func JitStudy() ([]JitResult, string, error) {
	desc := fmt.Sprintf("all-register multiply-accumulate countdown, %d iterations", jitIters)
	var out []JitResult
	for _, s := range arch.AllSpecs() {
		code, err := jitLoop(s, jitIters)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", s.Name, err)
		}
		pd, err := arch.Predecode(s, code, 0)
		if err != nil {
			return nil, "", fmt.Errorf("%s: predecode: %w", s.Name, err)
		}
		fz := arch.Fuse(s, pd, arch.PlanFusion(pd))
		if fz == nil {
			return nil, "", fmt.Errorf("%s: compute loop did not fuse", s.Name)
		}
		covered := 0
		for _, n := range fz.RunLens() {
			covered += n
		}

		const budget = 1 << 30
		mem := make([]byte, 4096)
		finish := func(tr *arch.Trap, cpu *arch.CPU, cy uint64, n int, err error) (jitObs, error) {
			if err != nil {
				return jitObs{}, err
			}
			if tr == nil || tr.Kind != arch.TrapRet {
				return jitObs{}, fmt.Errorf("unexpected trap %+v", tr)
			}
			return jitObs{trap: *tr, cycles: cy, instrs: n, regs: cpu.Regs}, nil
		}
		var rn arch.FusedRunner
		arms := []struct {
			name string
			run  func() (jitObs, error)
		}{
			{"legacy", func() (jitObs, error) {
				cpu := arch.CPU{FP: 256, TempBase: 512}
				tr, cy, n, err := arch.RunLegacy(s, &cpu, code, mem, budget)
				return finish(tr, &cpu, cy, n, err)
			}},
			{"fused", func() (jitObs, error) {
				cpu := arch.CPU{FP: 256, TempBase: 512}
				tr, cy, n, err := rn.Run(s, fz, &cpu, mem, budget)
				return finish(tr, &cpu, cy, n, err)
			}},
		}
		var obs [2]jitObs
		var wall [2]time.Duration
		for i, arm := range arms {
			o, w, err := jitTime(5, arm.run)
			if err != nil {
				return nil, "", fmt.Errorf("%s %s: %w", s.Name, arm.name, err)
			}
			obs[i], wall[i] = o, w
		}
		if obs[1] != obs[0] {
			return nil, "", fmt.Errorf("%s: dispatch tiers disagree on observables:\nlegacy %+v\nfused  %+v",
				s.Name, obs[0], obs[1])
		}
		out = append(out, JitResult{
			Arch:           s.Name,
			Instrs:         obs[0].instrs,
			Cycles:         obs[0].cycles,
			FusedRuns:      fz.NumRuns(),
			FusedCoverage:  float64(covered) / float64(pd.NumInstrs()),
			HostMIPSLegacy: mips(obs[0].instrs, wall[0]),
			HostMIPSFused:  mips(obs[1].instrs, wall[1]),
		})
	}
	return out, desc, nil
}

// FormatJit renders the human-readable report.
func FormatJit(rs []JitResult) string {
	var b strings.Builder
	b.WriteString("emjit dispatch study: compute-bound register loop, emulated MIPS per tier\n")
	fmt.Fprintf(&b, "%-8s %9s %11s %6s %6s %9s %9s %9s\n",
		"arch", "instrs", "cycles", "runs", "cover", "legacy", "fused", "fd/lg")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-8s %9d %11d %6d %5.0f%% %9.1f %9.1f %8.2fx\n",
			r.Arch, r.Instrs, r.Cycles, r.FusedRuns, 100*r.FusedCoverage,
			r.HostMIPSLegacy, r.HostMIPSFused, r.HostMIPSFused/r.HostMIPSLegacy)
	}
	b.WriteString("traps, cycles, instruction counts and final registers verified identical\n" +
		"across both tiers on every ISA (MIPS are host wall-clock)\n")
	return b.String()
}
