package arch_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
)

// Steady-state fused dispatch must not allocate: closures and blocks are
// built once at Fuse time and all mutable state — the register file and
// the yield trap included — lives in the reusable FusedRunner. Two loops
// per ISA: the all-register countdown, and the compiled Walker.run of
// testdata/walker.em (the code benchWalkerChunk runs), whose temp-stack
// code dispatches through blocks.
func TestFusedDispatchSteadyStateAllocs(t *testing.T) {
	const chunk = 200
	src, err := os.ReadFile(filepath.Join("testdata", "walker.em"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	walker := prog.Object("Walker")
	for _, s := range arch.AllSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			fz := arch.FuseCountdown(t, s, 1_000_000)
			mem := make([]byte, 4096)
			var cpu arch.CPU
			var rn arch.FusedRunner // lives in the node, outside the slice loop
			got := testing.AllocsPerRun(100, func() {
				cpu = arch.CPU{FP: 256, TempBase: 512}
				tr, _, n, err := rn.Run(s, fz, &cpu, mem, 5000)
				if err != nil || tr == nil || tr.Kind != arch.TrapYield || n <= 5000 {
					t.Fatalf("stop after %d instructions: %v %v, want a yield past the budget", n, tr, err)
				}
			})
			if got != 0 {
				t.Errorf("countdown: fused dispatch allocates %.1f allocs/run, want 0", got)
			}

			fc := walker.PerArch[s.ID].Funcs[walker.FuncIndex("run")]
			wfz, act := fc.Fused(s), fc.Template
			const fp = 256
			wmem := make([]byte, fp+int(act.Size))
			got = testing.AllocsPerRun(20, func() {
				cpu = arch.CPU{FP: fp, TempBase: fp + uint32(act.TempOff)}
				for v, val := range [...]uint32{0, 1, chunk} { // start, hops, chunk
					if h := act.Vars[v]; h.InReg {
						cpu.Regs[h.Reg] = val
					} else {
						s.ByteOrd.PutUint32(wmem[fp+h.Off:], val)
					}
				}
				tr, _, _, err := rn.Run(s, wfz, &cpu, wmem, 1<<30)
				if err != nil || tr == nil || tr.Kind != arch.TrapNodes {
					t.Fatalf("walker: %v %v, want the nodes() trap after the chunk loop", tr, err)
				}
			})
			if got != 0 {
				t.Errorf("walker: fused dispatch allocates %.1f allocs/run, want 0", got)
			}
		})
	}
}
