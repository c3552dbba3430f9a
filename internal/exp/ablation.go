// Ablations of the design choices DESIGN.md calls out (beyond the
// conversion-routine study in ConversionStudy).

package exp

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/netsim"
)

// runWith compiles src under opts and runs it on machines; a fault is an
// error.
func runWith(src string, opts codegen.Options, machines ...netsim.MachineModel) (*core.System, error) {
	_, prog, err := core.CompileWith(src, opts)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(prog, machines, core.Options{})
	if err != nil {
		return nil, err
	}
	return sys, sys.Run()
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
	measure := func(opts codegen.Options) (ms float64, stops int, err error) {
		sys, err := runWith(Fig2Workload, opts, netsim.SPARCstationSLC)
		if err != nil {
			return 0, 0, err
		}
		for _, oc := range sys.Cluster.Prog.Objects {
			for _, fc := range oc.PerArch[arch.SPARC].Funcs {
				stops += fc.Stops.Len()
			}
		}
		return sys.ElapsedMS(), stops, nil
	}
	r := &BusStopDensityResult{}
	var err error
	if r.WithPollsMS, r.StopsWith, err = measure(codegen.Options{}); err != nil {
		return nil, err
	}
	if r.WithoutPollsMS, r.StopsWithout, err = measure(codegen.Options{OmitLoopPolls: true}); err != nil {
		return nil, err
	}
	r.OverheadPct = (r.WithPollsMS - r.WithoutPollsMS) / r.WithoutPollsMS * 100
	return r, nil
}

// ---------------------------------------------------------------- homes

// homesVariant builds spec copies with a different number of register
// variable homes (avoiding the scratch registers each back end reserves).
func homesVariant(vaxHomes, m68kHomes, sparcHomes []byte) []*arch.Spec {
	cp := func(s *arch.Spec, homes []byte) *arch.Spec {
		c := *s
		c.HomeRegs = homes
		return &c
	}
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
		{"memory-only (0 homes)", homesVariant(nil, nil, nil)},
		{"paper defaults (4/6/8)", nil},
		{"wide (8/10/11)", homesVariant(
			[]byte{4, 5, 6, 7, 8, 9, 10, 11},
			[]byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
			[]byte{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})},
	}
	var out []RegisterHomesResult
	for _, v := range variants {
		opts := codegen.Options{Specs: v.specs}
		compute, err := runWith(intraNodeSrc(false), opts, netsim.SPARCstationSLC, netsim.SPARCstationSLC)
		if err != nil {
			return nil, fmt.Errorf("%s compute: %w", v.name, err)
		}
		// Migration cost on a heterogeneous pair.
		moves, err := runWith(Mobile13Source, opts, netsim.SPARCstationSLC, netsim.VAXstation2000)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		twoMoves, err := mobile13Moves(moves)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		out = append(out, RegisterHomesResult{
			Variant:    v.name,
			ComputeMS:  compute.ElapsedMS(),
			TwoMovesMS: twoMoves,
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
