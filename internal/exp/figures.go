// Figure and claim reproductions beyond Table 1.

package exp

import (
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/netsim"
)

// Fig2Workload is the program run at every level of the thread-state
// specialization hierarchy.
const Fig2Workload = `
object Work
  operation crunch(n: Int) -> (r: Int)
    var i: Int <- 0
    var acc: Int <- 0
    while i < n do
      acc <- acc + i * 3 - i / 2 + i % 7
      i <- i + 1
    end
    r <- acc
  end
end Work
object Main
  process
    var w: Work <- new Work
    print(w.crunch(20000))
  end process
end Main
`

// Fig2Row is one level of the hierarchy, and one row of BENCH_fig2.json.
type Fig2Row struct {
	Level    string  `json:"level"`
	Hardware string  `json:"thread_state"`
	Work     uint64  `json:"work_units"` // engine-specific work units (steps / instructions)
	SimMS    float64 `json:"sim_ms"`     // 0 for machine-independent levels
	Output   string  `json:"output"`
}

// Figure2 runs the same program as interpreted source, as byte code, and as
// native code on each simulated ISA, demonstrating the specialization
// hierarchy: source and byte code are machine independent (trivially
// mobile, slower); native code is machine dependent (fast, and mobile only
// through the bus-stop conversion this system implements).
func Figure2() ([]Fig2Row, error) {
	info, prog, err := core.CompileWith(Fig2Workload, codegen.Options{})
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row

	src := interp.NewSource(info)
	src.Run()
	rows = append(rows, Fig2Row{
		Level: "source (AST interpretation)", Output: strings.Join(src.RT().Output, "\n"),
		Work: src.RT().Steps, Hardware: "machine independent",
	})

	bc := interp.NewBytecode(ir.Build(info))
	bc.Run()
	rows = append(rows, Fig2Row{
		Level: "byte code (BC-Emerald style)", Output: strings.Join(bc.RT().Output, "\n"),
		Work: bc.RT().Steps, Hardware: "machine independent",
	})

	for _, m := range []netsim.MachineModel{netsim.VAXstation2000, netsim.Sun3_100, netsim.SPARCstationSLC} {
		sys, err := core.NewSystem(prog, []netsim.MachineModel{m}, core.Options{Mode: kernel.ModeEnhanced})
		if err != nil {
			return nil, err
		}
		if err := sys.Run(); err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Row{
			Level:  fmt.Sprintf("native code (%s)", m.Name),
			Output: sys.Output(), Work: sys.Cluster.Nodes[0].Instrs,
			SimMS: sys.ElapsedMS(), Hardware: m.Name,
		})
	}
	return rows, nil
}

// FormatFigure2 renders the hierarchy comparison.
func FormatFigure2(rows []Fig2Row) string {
	var b strings.Builder
	b.WriteString("Figure 2: thread-state specialization hierarchy (same program, three levels)\n")
	fmt.Fprintf(&b, "%-32s %-22s %14s %12s\n", "level", "thread state", "work units", "sim time")
	for _, r := range rows {
		sim := "-"
		if r.SimMS > 0 {
			sim = fmt.Sprintf("%.1f ms", r.SimMS)
		}
		fmt.Fprintf(&b, "%-32s %-22s %14d %12s\n", r.Level, r.Hardware, r.Work, sim)
	}
	b.WriteString("All levels print identical output; migration at the machine-independent\n")
	b.WriteString("levels is trivial, and the dotted MD->MI->MD arrows of Figure 2 are the\n")
	b.WriteString("kernel's bus-stop thread-state conversion exercised in Table 1.\n")
	return b.String()
}

// Figure34 renders the bridging-code example (Figures 3 and 4).
func Figure34() (string, error) {
	abstract, code1, code2, _, _ := Figure3()
	stop := code1.IndexOf("switch()") + 1
	plan, err := BuildBridge(abstract, code1, stop, code2)
	if err != nil {
		return "", err
	}
	tr := RunWithMigration(code1, stop, plan)
	if err := tr.ExactlyOnce(abstract); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 3: differently optimized instances derived by code motion\n")
	fmt.Fprintf(&b, "  %s\n  %s\n  %s\n", abstract, code1, code2)
	fmt.Fprintf(&b, "Figure 4: thread stopped at the visible point after switch() in code1,\n")
	fmt.Fprintf(&b, "migrating to a processor running code2:\n")
	fmt.Fprintf(&b, "  %s\n", plan)
	fmt.Fprintf(&b, "executed trace: %v (each operation exactly once)\n", tr.Log)
	return b.String(), nil
}

// IntraNodeResult holds the §3.6 intra-node performance invariant data.
type IntraNodeResult struct {
	Arch            string
	LocalMS         float64 // compute phase, thread created locally
	MigratedMS      float64 // compute phase after migrating in
	LocalInstrs     uint64
	MigratedInstrs  uint64
	OriginalSysMS   float64 // same phase on the original system
	EnhancedMatches bool
}

// intraNodeSrc measures a pure-compute phase; variant "moved" first
// migrates the worker (and its thread) onto the measuring node.
func intraNodeSrc(moved bool) string {
	pre := ""
	if moved {
		pre = "move self to node(1)\n      move self to node(0)"
	}
	return fmt.Sprintf(`
object Worker
  operation run(n: Int) -> (r: Int)
    %s
    var t0: Int <- timems()
    var i: Int <- 0
    var acc: Int <- 0
    while i < n do
      acc <- acc + i * i %% 13
      i <- i + 1
    end
    var t1: Int <- timems()
    print(t1 - t0)
    r <- acc
  end
end Worker
object Main
  process
    var w: Worker <- new Worker
    print(w.run(30000))
  end process
end Main
`, pre)
}

// IntraNode verifies the paper's central performance claim: a migrated
// thread executes exactly the same instructions at exactly the same speed
// as a locally created one, and the enhanced system's local speed equals
// the original system's (§3.6: "Measurements on both systems verify this
// trivially").
func IntraNode(m netsim.MachineModel) (*IntraNodeResult, error) {
	phase := func(sys *core.System) (float64, error) {
		lines := sys.Lines()
		if len(lines) != 2 {
			return 0, fmt.Errorf("unexpected output %v", lines)
		}
		var ms float64
		if _, err := fmt.Sscanf(lines[0], "%f", &ms); err != nil {
			return 0, err
		}
		return ms, nil
	}

	pair := []netsim.MachineModel{m, netsim.SPARCstationSLC}
	local, err := core.RunSource(intraNodeSrc(false), pair, core.Options{Mode: kernel.ModeEnhanced})
	if err != nil {
		return nil, err
	}
	moved, err := core.RunSource(intraNodeSrc(true), pair, core.Options{Mode: kernel.ModeEnhanced})
	if err != nil {
		return nil, err
	}
	orig, err := core.RunSource(intraNodeSrc(false), []netsim.MachineModel{m, m}, core.Options{Mode: kernel.ModeOriginal})
	if err != nil {
		return nil, err
	}
	res := &IntraNodeResult{Arch: m.Name}
	if res.LocalMS, err = phase(local); err != nil {
		return nil, err
	}
	if res.MigratedMS, err = phase(moved); err != nil {
		return nil, err
	}
	if res.OriginalSysMS, err = phase(orig); err != nil {
		return nil, err
	}
	res.LocalInstrs = local.Cluster.Nodes[0].Instrs
	res.MigratedInstrs = moved.Cluster.Nodes[0].Instrs
	// timems() has millisecond resolution, so phases can differ by one
	// quantization step; beyond that the invariant is exact.
	within := func(a, b float64) bool {
		d := a - b
		return d >= -1 && d <= 1
	}
	res.EnhancedMatches = within(res.LocalMS, res.MigratedMS) &&
		within(res.LocalMS, res.OriginalSysMS)
	return res, nil
}

// ConvResult summarizes the §3.6 conversion-cost observations for one
// mode, and is one row of BENCH_conv.json.
type ConvResult struct {
	Mode         kernel.ConvMode `json:"mode"`
	MovesMS      float64         `json:"two_move_ms"`
	ConvCalls    uint64          `json:"conv_calls"`
	WireBytes    uint64          `json:"wire_bytes"`
	CallsPerByte float64         `json:"calls_per_byte"`
}

// ConversionStudy reruns the Table 1 workload under each conversion regime,
// every one on the SPARC↔SPARC pair, so the fast path takes its raw branch
// throughout (kernel.TestConvRegimes pins its unlike-ISA branch).
func ConversionStudy() ([]ConvResult, error) {
	var out []ConvResult
	for _, mode := range []kernel.ConvMode{
		kernel.ModeOriginal, kernel.ModeEnhanced, kernel.ModeEnhancedBatched, kernel.ModeEnhancedFastPath,
	} {
		sys, err := core.RunSource(Mobile13Source,
			[]netsim.MachineModel{netsim.SPARCstationSLC, netsim.SPARCstationSLC}, core.Options{Mode: mode})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		moves, err := mobile13Moves(sys)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		r := ConvResult{
			Mode:      mode,
			MovesMS:   moves,
			ConvCalls: sys.Cluster.ConvStats().Calls,
			WireBytes: sys.Cluster.Net.PayloadLen,
		}
		if r.WireBytes > 0 {
			r.CallsPerByte = float64(r.ConvCalls) / float64(r.WireBytes)
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatConversionStudy renders the ablation.
func FormatConversionStudy(rs []ConvResult) string {
	var b strings.Builder
	b.WriteString("Conversion-routine ablation (SPARC<->SPARC, ms per two thread moves):\n")
	fmt.Fprintf(&b, "%-22s %12s %14s %16s\n", "mode", "2-move ms", "conv calls", "calls/byte")
	var orig, enh, batched float64
	for _, r := range rs {
		fmt.Fprintf(&b, "%-22s %12.1f %14d %16.2f\n", r.Mode, r.MovesMS, r.ConvCalls, r.CallsPerByte)
		switch r.Mode {
		case kernel.ModeOriginal:
			orig = r.MovesMS
		case kernel.ModeEnhanced:
			enh = r.MovesMS
		case kernel.ModeEnhancedBatched:
			batched = r.MovesMS
		}
	}
	if enh > orig && batched > orig {
		fmt.Fprintf(&b, "penalty: per-value %.0f%%, batched %.0f%% — the paper guessed efficient\n",
			(enh-orig)/orig*100, (batched-orig)/orig*100)
		fmt.Fprintf(&b, "routines would cut the penalty by ~50%%; measured reduction: %.0f%%\n",
			(enh-batched)/(enh-orig)*100)
	}
	return b.String()
}
