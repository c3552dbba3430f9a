// Package core is the public face of the system: it wires the compiler
// pipeline (lexer → parser → type checker → IR → per-ISA code generation)
// to the runtime (simulated heterogeneous cluster) behind a small API.
//
// Typical use:
//
//	prog, err := core.Compile(src)
//	sys, err := core.NewSystem(prog, core.Figure1Network(), core.Options{})
//	err = sys.Run()
//	fmt.Println(sys.Output())
package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Diagnostics flattens a Compile error into one line per diagnostic. Parse
// and typecheck failures carry an ErrorList of every problem found; drivers
// should show them all, not just the first.
func Diagnostics(err error) []string {
	var pl parser.ErrorList
	if errors.As(err, &pl) {
		out := make([]string, 0, len(pl))
		for _, e := range pl {
			out = append(out, "parse: "+e.Error())
		}
		return out
	}
	var tl types.ErrorList
	if errors.As(err, &tl) {
		out := make([]string, 0, len(tl))
		for _, e := range tl {
			out = append(out, "typecheck: "+e.Error())
		}
		return out
	}
	return []string{err.Error()}
}

// Compile runs the whole compiler pipeline on Emerald-subset source,
// producing native code, templates and bus-stop tables for every
// architecture.
func Compile(src string) (*codegen.Program, error) {
	ast, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := types.Check(ast)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	return codegen.Compile(ir.Build(info))
}

// CompileInfo additionally returns the checked AST information (used by the
// source and byte-code interpreters).
func CompileInfo(src string) (*types.Info, *codegen.Program, error) {
	ast, err := parser.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	info, err := types.Check(ast)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck: %w", err)
	}
	p, err := codegen.Compile(ir.Build(info))
	if err != nil {
		return nil, nil, err
	}
	return info, p, nil
}

// Options configures a System.
type Options struct {
	// Mode selects original (homogeneous-only) vs enhanced conversion.
	Mode kernel.ConvMode
	// VetOnLoad makes every node statically vet a code object's mobility
	// metadata before loading it (see internal/vet), refusing programs
	// whose metadata would corrupt a migrating thread.
	VetOnLoad bool
	// Placement maps root objects to nodes (nil: all on node 0).
	Placement func(objName string, rootIdx int) int
	// MaxEvents bounds the simulation (0: a generous default).
	MaxEvents uint64
	// LegacyDispatch forces the byte-at-a-time reference emulator instead
	// of fused dispatch (identical observable behavior; the triage escape
	// hatch and the reference arm of the differential tests).
	LegacyDispatch bool
	// SliceInstrs overrides the scheduling-slice instruction budget
	// (0: the kernel default). The differential tests shrink it to force
	// constant preemption, exercising mid-run suspend/resume.
	SliceInstrs int
	// Trace receives kernel event lines.
	Trace func(string)
	// Chaos, when non-nil, injects a seeded deterministic fault plan
	// (frame drops, duplicates, delays, corruption, node crashes and
	// link partitions) and switches the kernel's migration protocol to
	// its crash-tolerant mode (see internal/chaos and DESIGN.md §10).
	Chaos *chaos.Plan
	// Parallel runs each node's events on its own goroutine, using the
	// network's minimum link latency as conservative lookahead. Observable
	// results (printed output, faults, events, spans, metrics, simulated
	// time) are identical to the sequential engine; see DESIGN.md §12.
	Parallel bool
	// AutoPolicy arms the adaptive-placement subsystem (internal/auto)
	// with the named policy (see auto.Names). The static facts the policy
	// needs — group-migration cohorts and immobile-reach pinned classes —
	// are computed here with internal/pta and handed to the kernel as
	// class-name lists. Placement requires the sequential engine: the
	// policy tick is a cluster-level simulation event.
	AutoPolicy string
	// AutoPeriodMicros overrides the policy tick period (0: the kernel
	// default).
	AutoPeriodMicros int64
	// AutoNoBatch disables cohort batching: each placement decision moves
	// only the named object (the control arm of the batching experiment).
	AutoNoBatch bool
	// NoSharpen disables live-set sharpening (Config.SharpenLiveSets):
	// statically dead frame slots then ship their stale payload instead of
	// the canonical zero. Observable behavior is identical either way; the
	// flag exists as the escape hatch and for the differential tests.
	NoSharpen bool
	// DirReplicas arms the replicated object directory (internal/dir) with
	// this many replicas per shard (clamped to the node count). 0 — the
	// default — leaves the directory off and every run byte-identical to
	// the pre-directory kernel.
	DirReplicas int
	// DirCompactPeriodMicros overrides the directory compactor tick period
	// (0: the kernel default).
	DirCompactPeriodMicros int64
	// DirLeaseMicros, when > 0 with the directory armed, makes shard
	// replicas grant that many simulated microseconds of read lease on
	// each lookup hit, letting repeat locates skip the shard query. 0 —
	// the default — keeps lookups lease-free.
	DirLeaseMicros int64
	// DirNoGroupDecrees disables batched group decrees: every member of a
	// migrated cohort commits its location record in its own single-slot
	// decree round (the pre-batching wire pattern).
	DirNoGroupDecrees bool
	// LinkLatencies adds per-link extra latency (simulated microseconds)
	// on top of the uniform network latency, giving the topology a
	// locality structure the directory's replica placement can exploit.
	LinkLatencies []kernel.LinkLatency
}

// System is a compiled program loaded on a simulated network.
type System struct {
	Cluster *kernel.Cluster
	opts    Options
}

// Figure1Network returns the paper's sample network (Figure 1): Sun-3,
// HP9000/300, SPARC and VAX workstations on one Ethernet.
func Figure1Network() []netsim.MachineModel {
	return []netsim.MachineModel{
		netsim.Sun3_100,
		netsim.HP9000_433s,
		netsim.SPARCstationSLC,
		netsim.VAXstation2000,
	}
}

// machineSpecs maps CLI machine names to their models (shared by the emrun
// and emtrace drivers).
var machineSpecs = map[string]netsim.MachineModel{
	"sparc": netsim.SPARCstationSLC,
	"sun3":  netsim.Sun3_100,
	"hp1":   netsim.HP9000_433s,
	"hp2":   netsim.HP9000_385,
	"vax":   netsim.VAXstation2000,
}

// MachineNames is the accepted -net machine list, for usage messages.
const MachineNames = "sparc, sun3, hp1, hp2, vax"

// ParseNetwork parses a comma-separated machine list (e.g. "sparc,vax")
// into machine models.
func ParseNetwork(spec string) ([]netsim.MachineModel, error) {
	var machines []netsim.MachineModel
	for _, name := range strings.Split(spec, ",") {
		m, ok := machineSpecs[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown machine %q (have %s)", name, MachineNames)
		}
		machines = append(machines, m)
	}
	return machines, nil
}

// ParseMode parses a conversion-mode name (enhanced, original, batched,
// fastpath).
func ParseMode(name string) (kernel.ConvMode, error) {
	switch name {
	case "enhanced":
		return kernel.ModeEnhanced, nil
	case "original":
		return kernel.ModeOriginal, nil
	case "batched":
		return kernel.ModeEnhancedBatched, nil
	case "fastpath":
		return kernel.ModeEnhancedFastPath, nil
	}
	return 0, fmt.Errorf("unknown mode %q (have enhanced, original, batched, fastpath)", name)
}

// NewSystem loads prog onto a cluster of the given machines.
func NewSystem(prog *codegen.Program, machines []netsim.MachineModel, opts Options) (*System, error) {
	cfg := kernel.DefaultConfig()
	cfg.Mode = opts.Mode
	cfg.Trace = opts.Trace
	if opts.Parallel {
		// The text sink is a plain callback with no locking; under the
		// parallel engine events are emitted from node goroutines, so the
		// sink is deferred: Run replays the merged event stream after the
		// run instead of rendering lines as they happen.
		cfg.Trace = nil
	}
	cfg.VetOnLoad = opts.VetOnLoad
	cfg.LegacyDispatch = opts.LegacyDispatch
	if opts.SliceInstrs > 0 {
		cfg.SliceInstrs = opts.SliceInstrs
	}
	cfg.Chaos = opts.Chaos
	cfg.SharpenLiveSets = !opts.NoSharpen
	cfg.DirReplicas = opts.DirReplicas
	cfg.DirCompactPeriodMicros = opts.DirCompactPeriodMicros
	cfg.DirLeaseMicros = opts.DirLeaseMicros
	cfg.DirNoGroupDecrees = opts.DirNoGroupDecrees
	cfg.LinkLatencies = opts.LinkLatencies
	if opts.AutoPolicy != "" {
		if opts.Parallel {
			return nil, fmt.Errorf("core: adaptive placement (-auto) requires the sequential engine")
		}
		cohorts, pinned, err := AutoFacts(prog)
		if err != nil {
			return nil, fmt.Errorf("core: placement analysis: %w", err)
		}
		cfg.AutoPolicy = opts.AutoPolicy
		cfg.AutoPeriodMicros = opts.AutoPeriodMicros
		cfg.AutoNoBatch = opts.AutoNoBatch
		cfg.AutoCohorts = cohorts
		cfg.AutoPinned = pinned
	}
	cl, err := kernel.NewCluster(prog, machines, cfg)
	if err != nil {
		return nil, err
	}
	return &System{Cluster: cl, opts: opts}, nil
}

// Run boots the program and drives the simulation until it quiesces.
func (s *System) Run() error {
	s.Cluster.Start(s.opts.Placement)
	limit := s.opts.MaxEvents
	if limit == 0 {
		limit = 50_000_000
	}
	var err error
	if s.opts.Parallel {
		err = s.Cluster.RunParallel(limit)
		if s.opts.Trace != nil {
			// Deferred text sink: replay the canonically merged event
			// stream in the exact format the live sink renders.
			for _, e := range s.Cluster.Rec.Events() {
				s.opts.Trace(fmt.Sprintf("[%8dµs] %s", e.At, e.Text()))
			}
		}
	} else {
		err = s.Cluster.Run(limit)
	}
	if err != nil {
		return err
	}
	if len(s.Cluster.Faults) > 0 {
		f := s.Cluster.Faults[0]
		if f.Err != nil {
			return fmt.Errorf("runtime fault on node %d: %s: %w", f.Node, f.Msg, f.Err)
		}
		return fmt.Errorf("runtime fault on node %d: %s", f.Node, f.Msg)
	}
	return nil
}

// Output returns everything the program printed, in order.
func (s *System) Output() string { return s.Cluster.OutputText() }

// Recorder returns the run's observability recorder (events, migration
// spans, metrics registry; see internal/obs).
func (s *System) Recorder() *obs.Recorder { return s.Cluster.Rec }

// MetricsSnapshot captures the cluster's metrics at the current simulated
// instant.
func (s *System) MetricsSnapshot() obs.Snapshot { return s.Cluster.MetricsSnapshot() }

// Lines returns the printed lines.
func (s *System) Lines() []string { return s.Cluster.PrintedLines() }

// ElapsedMS returns the simulated run time in milliseconds.
func (s *System) ElapsedMS() float64 { return s.Cluster.Sim.Now().MS() }

// RunSource is the one-call convenience: compile and run src on machines.
func RunSource(src string, machines []netsim.MachineModel, opts Options) (*System, error) {
	prog, err := Compile(src)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(prog, machines, opts)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(); err != nil {
		return sys, err
	}
	return sys, nil
}
