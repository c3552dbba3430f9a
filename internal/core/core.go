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
	_, p, err := CompileWith(src, codegen.Options{})
	return p, err
}

// CompileWith is the compiler pipeline: parse, type check, build the IR and
// generate code under opts (the ablation builds: no loop polls, other
// register homes). It also returns the checked AST information, which the
// source and byte-code interpreters run.
func CompileWith(src string, opts codegen.Options) (*types.Info, *codegen.Program, error) {
	ast, err := parser.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	info, err := types.Check(ast)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck: %w", err)
	}
	p, err := codegen.CompileWithOptions(ir.Build(info), opts)
	if err != nil {
		return nil, nil, err
	}
	return info, p, nil
}

// Options describes one run. It is kernel.Config itself — one declaration
// per knob, zero value = the shipped system — so a literal written for
// NewSystem is the very value the kernel takes; RegisterFlags gives the
// user-settable fields their command-line spelling.
type Options = kernel.Config

// System is a compiled program loaded on a simulated network.
type System struct {
	Cluster *kernel.Cluster
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

// NewSystem loads prog onto a cluster of the given machines.
func NewSystem(prog *codegen.Program, machines []netsim.MachineModel, opts Options) (*System, error) {
	cl, err := kernel.NewCluster(prog, machines, opts)
	if err != nil {
		return nil, err
	}
	return &System{Cluster: cl}, nil
}

// maxEvents is the event budget Run gives the simulation; exhausting it is
// an error.
const maxEvents = 50_000_000

// Run boots the program and drives the simulation until it quiesces.
func (s *System) Run() error {
	s.Cluster.Start(s.Cluster.Placement)
	if err := s.Cluster.Run(maxEvents); err != nil {
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
