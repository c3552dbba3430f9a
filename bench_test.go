// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Wall-clock ns/op
// measures this implementation; the custom metrics (sim-ms, conversion
// calls, work units) are the simulated quantities that reproduce the
// paper's numbers — EXPERIMENTS.md records paper-vs-measured per cell.
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Table 1: one benchmark per machine pair and system.
func BenchmarkTable1(b *testing.B) {
	prog, err := core.Compile(exp.Mobile13Source)
	if err != nil {
		b.Fatal(err)
	}
	for _, pair := range exp.Table1Pairs() {
		for _, mode := range []kernel.ConvMode{kernel.ModeOriginal, kernel.ModeEnhanced} {
			if mode == kernel.ModeOriginal && pair.A.Family != pair.B.Family {
				continue
			}
			name := fmt.Sprintf("%s/%s", sanitize(pair.Label), mode)
			pair := pair
			mode := mode
			b.Run(name, func(b *testing.B) {
				var simMS float64
				var calls uint64
				for i := 0; i < b.N; i++ {
					cl, err := kernel.NewCluster(prog, []netsim.MachineModel{pair.A, pair.B}, kernel.Config{Mode: mode})
					if err != nil {
						b.Fatal(err)
					}
					cl.Start(nil)
					if err := cl.Run(80_000_000); err != nil {
						b.Fatal(err)
					}
					lines := cl.PrintedLines()
					if len(lines) != 2 || lines[1] != "1624" {
						b.Fatalf("workload corrupted: %v", lines)
					}
					elapsed, _ := strconv.Atoi(lines[0])
					simMS = float64(elapsed) / 25
					calls = cl.ConvStats().Calls
				}
				b.ReportMetric(simMS, "sim-ms/2moves")
				b.ReportMetric(float64(calls), "conv-calls")
			})
		}
	}
}

func sanitize(s string) string {
	s = strings.ReplaceAll(s, "<->", "_")
	return strings.ReplaceAll(s, "/", "-")
}

// Figure 2: the same program at each level of the specialization hierarchy.
func BenchmarkFigure2(b *testing.B) {
	info, prog, err := core.CompileWith(exp.Fig2Workload, codegen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("source-interpreter", func(b *testing.B) {
		var steps uint64
		for i := 0; i < b.N; i++ {
			s := interp.NewSource(info)
			s.Run()
			steps = s.RT().Steps
		}
		b.ReportMetric(float64(steps), "steps")
	})
	irProg := ir.Build(info)
	b.Run("bytecode-interpreter", func(b *testing.B) {
		var steps uint64
		for i := 0; i < b.N; i++ {
			bc := interp.NewBytecode(irProg)
			bc.Run()
			steps = bc.RT().Steps
		}
		b.ReportMetric(float64(steps), "steps")
	})
	for _, m := range []netsim.MachineModel{netsim.VAXstation2000, netsim.Sun3_100, netsim.SPARCstationSLC} {
		m := m
		b.Run("native-"+sanitize(m.Family), func(b *testing.B) {
			var simMS float64
			var instrs uint64
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem(prog, []netsim.MachineModel{m}, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Run(); err != nil {
					b.Fatal(err)
				}
				simMS = sys.ElapsedMS()
				instrs = sys.Cluster.Nodes[0].Instrs
			}
			b.ReportMetric(simMS, "sim-ms")
			b.ReportMetric(float64(instrs), "native-instrs")
		})
	}
}

// Figures 3+4: bridging-code synthesis for migration between differently
// optimized codes.
func BenchmarkFigure3Bridging(b *testing.B) {
	abstract, code1, code2, _, _ := exp.Figure3()
	stop := code1.IndexOf("switch()") + 1
	b.Run("synthesize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := exp.BuildBridge(abstract, code1, stop, code2)
			if err != nil {
				b.Fatal(err)
			}
			if len(plan.Bridge) != 3 {
				b.Fatalf("bridge = %v", plan.Bridge)
			}
		}
	})
	b.Run("synthesize-and-verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, _ := exp.BuildBridge(abstract, code1, stop, code2)
			tr := exp.RunWithMigration(code1, stop, plan)
			if err := tr.ExactlyOnce(abstract); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// §3.6 intra-node invariant: local vs migrated execution speed.
func BenchmarkIntraNode(b *testing.B) {
	for _, m := range []netsim.MachineModel{netsim.VAXstation2000, netsim.SPARCstationSLC} {
		m := m
		b.Run(sanitize(m.Family), func(b *testing.B) {
			var r *exp.IntraNodeResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = exp.IntraNode(m)
				if err != nil {
					b.Fatal(err)
				}
				if !r.EnhancedMatches {
					b.Fatalf("invariant violated: %+v", r)
				}
			}
			b.ReportMetric(r.LocalMS, "local-sim-ms")
			b.ReportMetric(r.MigratedMS, "migrated-sim-ms")
		})
	}
}

// Conversion-routine ablation (§3.6: the paper guesses efficient routines
// halve the penalty) and the homogeneous fast path ([SC88]): one row per
// ConvMode of exp.ConversionStudy.
func BenchmarkConversionAblation(b *testing.B) {
	var rs []exp.ConvResult
	var err error
	for i := 0; i < b.N; i++ {
		rs, err = exp.ConversionStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rs {
		b.ReportMetric(r.MovesMS, r.Mode.String()+"-sim-ms/2moves")
		b.ReportMetric(float64(r.ConvCalls), r.Mode.String()+"-conv-calls")
	}
}

// Engineering micro-benchmarks of this implementation.

// BenchmarkEmulatorFused is the countdown loop under the emulator the
// kernel runs: fused superinstruction dispatch (one compiled run per
// loop body, the register file held for the whole Run call), fused once
// and run with a long-lived FusedRunner as a node does. The
// all-register countdown is the best case; the walker sub-benchmarks run
// what the compiler emits for compute_ring's chunk loop instead, whose
// temp-stack idioms dispatch as blocks.
func BenchmarkEmulatorFused(b *testing.B) {
	benchWalkerChunk(b)
	for _, spec := range arch.AllSpecs() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			mem := make([]byte, 4096)
			var code []byte
			var err error
			emit := func(in arch.Instr) {
				code, err = arch.Encode(spec, code, in)
				if err != nil {
					b.Fatal(err)
				}
			}
			emit(arch.Instr{Op: arch.OpMov, N: 2, Operands: [3]arch.Operand{arch.Imm(100000), arch.Reg(1)}})
			top := uint32(len(code))
			emit(arch.Instr{Op: arch.OpMov, N: 2, Operands: [3]arch.Operand{arch.Imm(1), arch.Reg(2)}})
			emit(arch.Instr{Op: arch.OpSub, N: 3, Operands: [3]arch.Operand{arch.Reg(1), arch.Reg(2), arch.Reg(1)}})
			emit(arch.Instr{Op: arch.OpBrnz, N: 1, Operands: [3]arch.Operand{arch.Reg(1)}, Target: uint16(top)})
			emit(arch.Instr{Op: arch.OpRet})
			pd, err := arch.Predecode(spec, code, 0)
			if err != nil {
				b.Fatal(err)
			}
			fz := arch.Fuse(spec, pd, arch.PlanFusion(pd))
			if fz == nil {
				b.Fatal("countdown loop did not fuse")
			}
			var rn arch.FusedRunner
			b.ResetTimer()
			instrs := 0
			for i := 0; i < b.N; i++ {
				cpu := arch.CPU{FP: 256, TempBase: 512}
				tr, _, n, err := rn.Run(spec, fz, &cpu, mem, 1<<30)
				if err != nil || tr == nil || tr.Kind != arch.TrapRet {
					b.Fatalf("%v %v", tr, err)
				}
				instrs += n
			}
			instrsPerOp := float64(instrs) / float64(b.N)
			secsPerOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(instrsPerOp/secsPerOp/1e6, "emulated-MIPS")
		})
	}
}

// benchWalkerChunk runs the compiled Walker.run of
// internal/arch/testdata/walker.em (the compute_ring walker) for one hop
// on each ISA, from its entry to the nodes() trap that follows the chunk
// loop: temp-stack pushes and pops, frame slots and one poll per
// iteration, the code the benchmark's compute_ring workload spends its
// time in.
func benchWalkerChunk(b *testing.B) {
	const chunk = 2000
	src, err := os.ReadFile(filepath.Join("internal", "arch", "testdata", "walker.em"))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := core.Compile(string(src))
	if err != nil {
		b.Fatal(err)
	}
	walker := prog.Object("Walker")
	for _, spec := range arch.AllSpecs() {
		b.Run("walker/"+spec.Name, func(b *testing.B) {
			fc := walker.PerArch[spec.ID].Funcs[walker.FuncIndex("run")]
			fz := fc.Fused(spec)
			act := fc.Template
			const fp = 256
			mem := make([]byte, fp+int(act.Size))
			var rn arch.FusedRunner
			b.ResetTimer()
			instrs := 0
			for i := 0; i < b.N; i++ {
				cpu := arch.CPU{FP: fp, TempBase: fp + uint32(act.TempOff)}
				for v, val := range []uint32{0, 1, chunk} { // start, hops, chunk
					if h := act.Vars[v]; h.InReg {
						cpu.Regs[h.Reg] = val
					} else {
						spec.ByteOrd.PutUint32(mem[fp+h.Off:], val)
					}
				}
				tr, _, n, err := rn.Run(spec, fz, &cpu, mem, 1<<30)
				if err != nil || tr == nil || tr.Kind != arch.TrapNodes {
					b.Fatalf("%v %v", tr, err)
				}
				instrs += n
			}
			secsPerOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(instrs)/float64(b.N)/secsPerOp/1e6, "emulated-MIPS")
		})
	}
}

func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(exp.Mobile13Source); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireMoveRoundtrip(b *testing.B) {
	// Marshal+unmarshal of a representative Move message (the enhanced
	// system's biggest wire structure).
	msg := &wire.Msg{Src: 0, Dst: 1, Seq: 42, Payload: &wire.Move{
		Object: 100, CodeOID: 2,
		Data: []wire.Value{wire.IntV(1), wire.RefV(7), wire.StringV([]byte("payload")), wire.RealBitsV(0x40490fdb)},
		Frags: []wire.Fragment{{
			FragID: 9, LinkNode: 0, LinkFrag: 3, Executing: true,
			Acts: []wire.MIActivation{{
				CodeOID: 2, FuncIndex: 1, Stop: 4,
				Vars: []wire.Value{wire.IntV(1), wire.IntV(2), wire.RealBitsV(0x3f800000),
					wire.IntV(4), wire.StringV([]byte("thirteen")), wire.IntV(6), wire.IntV(7),
					wire.RealBitsV(0x41000000), wire.IntV(9), wire.IntV(10), wire.IntV(11),
					wire.IntV(12), wire.IntV(13)},
				Temps: []wire.Value{wire.IntV(5)},
			}},
		}},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := msg.Marshal()
		if _, err := wire.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConverters(b *testing.B) {
	codec := arch.VAXFloat{}
	for _, mk := range []struct {
		name string
		r    wire.Regime
	}{
		{"per-value", wire.PerValue},
		{"batched", wire.Batched},
		{"raw", wire.Raw},
	} {
		mk := mk
		b.Run(mk.name, func(b *testing.B) {
			c := wire.NewConverter(mk.r)
			for i := 0; i < b.N; i++ {
				v := c.RealToWire(uint32(i), codec)
				if _, err := c.RealFromWire(v, codec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Full-pipeline throughput: compile + run the counter workload end to end
// on one node of each architecture.
func BenchmarkEndToEnd(b *testing.B) {
	prog, err := core.Compile(exp.Fig2Workload)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []netsim.MachineModel{netsim.VAXstation2000, netsim.SPARCstationSLC} {
		m := m
		b.Run(sanitize(m.Family), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem(prog, []netsim.MachineModel{m}, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// threadHopSource is the Table 1 thread (13 variables in the moving
// activation) hopping round every machine of the network, %d hops.
const threadHopSource = `
object Mobile
  operation hop(trips: Int, salt: Int) -> (r: Int)
    var n: Int <- nodes()
    var v1: Int <- 101
    var v2: Int <- 202
    var v3: Real <- 3.25
    var v4: Bool <- true
    var v5: String <- "thirteen"
    var v6: Int <- 606
    var v7: Int <- 707
    var v8: Real <- 8.5
    var i: Int <- 1
    while i <= trips do
      move self to node(i %% n)
      i <- i + 1
    end
    if v4 then
      r <- v1 + v2 + v6 + v7 + v5.size() + salt
    end
  end
end Mobile
object Main
  process
    var m: Mobile <- new Mobile
    print(m.hop(%d, 1))
  end process
end Main
`

// Host cost of the paper's mechanism: one op is one thread hop (convert
// out, ship, re-specialize, re-lay the stack) round the Figure 1 network.
// Set-up is outside the timer; b.N hops run in one simulation.
func BenchmarkThreadHop(b *testing.B) {
	sys := threadHopSystem(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	checkThreadHops(b, sys)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "hostns/hop")
}

func threadHopSystem(tb testing.TB, hops int) *core.System {
	prog, err := core.Compile(fmt.Sprintf(threadHopSource, hops))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.NewSystem(prog, core.Figure1Network(), core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

func checkThreadHops(tb testing.TB, sys *core.System) {
	if got := sys.Lines(); len(got) != 1 || got[0] != "1625" {
		tb.Fatalf("workload corrupted: %v", got)
	}
}

// TestThreadHopAllocBudget pins the move path's share of the allocation
// budget (DESIGN.md §11): a hop of the Table 1 thread allocates at most 7
// objects on the host, end to end (6.2 measured: the decode is the
// destination inbox's, not the hop's). Bootstrap, code loading and plan
// compilation are amortized over the run's 5000 hops.
func TestThreadHopAllocBudget(t *testing.T) {
	const hops = 5000
	sys := threadHopSystem(t, hops)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	checkThreadHops(t, sys)
	if got := float64(after.Mallocs-before.Mallocs) / hops; got > 7 {
		t.Errorf("%.1f allocs per thread hop, want <= 7", got)
	}
}

// Host cost of the event core alone: one op schedules an event and runs the
// next, with a few dozen pending (the depth the workloads run at).
func BenchmarkSimEvent(b *testing.B) {
	sim := netsim.NewSim()
	noop := func() {}
	for i := 0; i < 32; i++ {
		sim.AtNode(i%4, netsim.Micros(i), noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.AtNode(i%4, netsim.Micros(40+i%7), noop)
		sim.Step()
	}
}

// reliableFrameSource makes %d remote invocations of a one-instruction
// operation: under a chaos plan each is two reliable frames.
const reliableFrameSource = `
object Svc
  operation bump(x: Int) -> (r: Int)
    r <- x + 1
  end
end Svc
object Main
  process
    var s: Svc <- new Svc
    move s to node(1)
    var i: Int <- 0
    var acc: Int <- 0
    while i < %d do
      acc <- s.bump(acc)
      i <- i + 1
    end
    print(acc)
  end process
end Main
`

// Host cost of the reliable link: one op is one LData→LAck cycle — a CRC'd
// data frame sent, delivered in order, acknowledged and retired — under a
// chaos plan that injects nothing (so no frame is ever retransmitted). The
// cycles come in pairs, the Invoke and the Return of b.N/2 remote
// invocations, and include the kernel's handling of both messages.
func BenchmarkReliableFrame(b *testing.B) {
	calls := (b.N + 1) / 2
	prog, err := core.Compile(fmt.Sprintf(reliableFrameSource, calls))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(prog, []netsim.MachineModel{netsim.SPARCstationSLC, netsim.VAXstation2000},
		core.Options{Chaos: &chaos.Plan{Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := sys.Lines(); len(got) != 1 || got[0] != strconv.Itoa(calls) {
		b.Fatalf("workload corrupted: %v", got)
	}
	for _, c := range sys.MetricsSnapshot().Counters {
		if c.Name == "retransmits" && c.Value != 0 {
			b.Fatalf("%d retransmissions under a plan that injects nothing", c.Value)
		}
	}
}

// Ablations promised in DESIGN.md §6.

func BenchmarkAblationBusStopDensity(b *testing.B) {
	var r *exp.BusStopDensityResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.BusStopDensity()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.WithPollsMS, "with-polls-sim-ms")
	b.ReportMetric(r.WithoutPollsMS, "without-polls-sim-ms")
	b.ReportMetric(r.OverheadPct, "poll-overhead-%")
}

func BenchmarkAblationRegisterHomes(b *testing.B) {
	var rs []exp.RegisterHomesResult
	var err error
	for i := 0; i < b.N; i++ {
		rs, err = exp.RegisterHomes()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rs {
		name := strings.Fields(r.Variant)[0]
		b.ReportMetric(r.ComputeMS, name+"-compute-sim-ms")
	}
}
