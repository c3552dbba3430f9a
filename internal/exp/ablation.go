// Ablations of the design choices DESIGN.md calls out (beyond the
// conversion-routine study in ConversionStudy).

package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
	"repro/internal/netsim"
)

// compileOpts compiles source with explicit codegen options.
func compileOpts(src string, opts codegen.Options) (*codegen.Program, error) {
	ast, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := types.Check(ast)
	if err != nil {
		return nil, err
	}
	return codegen.CompileWithOptions(ir.Build(info), opts)
}

// runSimMS compiles and runs src on machines, returning total simulated ms.
func runSimMS(src string, opts codegen.Options, cfg kernel.Config,
	machines []netsim.MachineModel) (float64, *kernel.Cluster, error) {
	prog, err := compileOpts(src, opts)
	if err != nil {
		return 0, nil, err
	}
	cl, err := kernel.NewCluster(prog, machines, cfg)
	if err != nil {
		return 0, nil, err
	}
	cl.Start(nil)
	if err := cl.Run(120_000_000); err != nil {
		return 0, nil, err
	}
	if len(cl.Faults) > 0 {
		return 0, nil, fmt.Errorf("fault: %s", cl.Faults[0].Msg)
	}
	return cl.Sim.Now().MS(), cl, nil
}

// ---------------------------------------------------------------- polls

// BusStopDensityResult quantifies the cost of bottom-of-loop poll
// instructions: the price paid in intra-node time for being preemptible and
// migratable at loop bottoms (§3.2: "most of the user code polls are
// free" — polls are cheap flag checks).
type BusStopDensityResult struct {
	WithPollsMS    float64
	WithoutPollsMS float64
	OverheadPct    float64
	StopsWith      int
	StopsWithout   int
}

// BusStopDensity runs a loop-heavy compute workload with and without
// loop-bottom polls on one SPARC node.
func BusStopDensity() (*BusStopDensityResult, error) {
	machines := []netsim.MachineModel{netsim.SPARCstationSLC}
	with, _, err := runSimMS(Fig2Workload, codegen.Options{}, kernel.Config{}, machines)
	if err != nil {
		return nil, err
	}
	without, _, err := runSimMS(Fig2Workload, codegen.Options{OmitLoopPolls: true}, kernel.Config{}, machines)
	if err != nil {
		return nil, err
	}
	countStops := func(opts codegen.Options) (int, error) {
		prog, err := compileOpts(Fig2Workload, opts)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, oc := range prog.Objects {
			for _, fc := range oc.PerArch[arch.SPARC].Funcs {
				n += fc.Stops.Len()
			}
		}
		return n, nil
	}
	r := &BusStopDensityResult{WithPollsMS: with, WithoutPollsMS: without}
	r.OverheadPct = (with - without) / without * 100
	if r.StopsWith, err = countStops(codegen.Options{}); err != nil {
		return nil, err
	}
	if r.StopsWithout, err = countStops(codegen.Options{OmitLoopPolls: true}); err != nil {
		return nil, err
	}
	return r, nil
}

// ---------------------------------------------------------------- homes

// homesVariant builds spec copies with a different number of register
// variable homes (avoiding the scratch registers each back end reserves).
func homesVariant(name string, vaxHomes, m68kHomes, sparcHomes []byte) []*arch.Spec {
	cp := func(s *arch.Spec, homes []byte) *arch.Spec {
		c := *s
		c.HomeRegs = homes
		return &c
	}
	_ = name
	return []*arch.Spec{
		cp(arch.VAXSpec, vaxHomes),
		cp(arch.M68KSpec, m68kHomes),
		cp(arch.SPARCSpec, sparcHomes),
	}
}

// RegisterHomesResult compares variable-home policies.
type RegisterHomesResult struct {
	Variant    string
	ComputeMS  float64 // intra-node compute phase
	TwoMovesMS float64 // Table 1 workload, SPARC<->VAX pair
}

// RegisterHomes measures how the number of callee-saved register homes
// trades intra-node speed (registers are faster than activation-record
// slots) against nothing at all on the migration path — conversion work is
// per variable, not per home, which is exactly why the paper's design can
// afford register allocation.
func RegisterHomes() ([]RegisterHomesResult, error) {
	variants := []struct {
		name  string
		specs []*arch.Spec
	}{
		{"memory-only (0 homes)", homesVariant("none", nil, nil, nil)},
		{"paper defaults (4/6/8)", nil},
		{"wide (8/10/11)", homesVariant("wide",
			[]byte{4, 5, 6, 7, 8, 9, 10, 11},
			[]byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
			[]byte{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})},
	}
	var out []RegisterHomesResult
	for _, v := range variants {
		opts := codegen.Options{Specs: v.specs}
		var cfg kernel.Config
		if v.specs != nil {
			cfg.SpecOverride = func(id arch.ID) *arch.Spec {
				for _, s := range v.specs {
					if s.ID == id {
						return s
					}
				}
				return arch.SpecOf(id)
			}
		}
		computeMS, _, err := runSimMS(intraNodeSrc(false), opts, cfg,
			[]netsim.MachineModel{netsim.SPARCstationSLC, netsim.SPARCstationSLC})
		if err != nil {
			return nil, fmt.Errorf("%s compute: %w", v.name, err)
		}
		// Migration cost on a heterogeneous pair.
		prog, err := compileOpts(Mobile13Source, opts)
		if err != nil {
			return nil, err
		}
		cl, err := kernel.NewCluster(prog,
			[]netsim.MachineModel{netsim.SPARCstationSLC, netsim.VAXstation2000}, cfg)
		if err != nil {
			return nil, err
		}
		cl.Start(nil)
		if err := cl.Run(120_000_000); err != nil {
			return nil, err
		}
		if len(cl.Faults) > 0 {
			return nil, fmt.Errorf("%s: fault: %s", v.name, cl.Faults[0].Msg)
		}
		lines := cl.PrintedLines()
		if len(lines) != 2 || lines[1] != "1624" {
			return nil, fmt.Errorf("%s: workload corrupted: %v", v.name, lines)
		}
		elapsed, _ := strconv.Atoi(lines[0])
		out = append(out, RegisterHomesResult{
			Variant:    v.name,
			ComputeMS:  computeMS,
			TwoMovesMS: float64(elapsed) / mobile13Trips,
		})
	}
	return out, nil
}

// FormatAblations renders both studies.
func FormatAblations(bs *BusStopDensityResult, homes []RegisterHomesResult) string {
	var b strings.Builder
	b.WriteString("Ablation: bus-stop density (bottom-of-loop polls, SPARC)\n")
	fmt.Fprintf(&b, "  with polls: %.1f ms   without: %.1f ms   poll overhead: %.1f%%\n",
		bs.WithPollsMS, bs.WithoutPollsMS, bs.OverheadPct)
	fmt.Fprintf(&b, "  bus stops: %d -> %d (loop-bottom stops removed; no migration there)\n",
		bs.StopsWith, bs.StopsWithout)
	b.WriteString("\nAblation: register variable homes (intra-node compute vs 2-move cost)\n")
	fmt.Fprintf(&b, "  %-26s %14s %14s\n", "variant", "compute", "2 moves")
	for _, h := range homes {
		fmt.Fprintf(&b, "  %-26s %11.1f ms %11.1f ms\n", h.Variant, h.ComputeMS, h.TwoMovesMS)
	}
	b.WriteString("  more homes = faster local code; migration cost is per variable, not\n")
	b.WriteString("  per home (the templates hide where variables live), as the paper argues.\n")
	return b.String()
}
