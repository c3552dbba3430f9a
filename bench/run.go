// Untraced measurement: set-up (compile → analyse → vet → load) and whole-
// simulation reps, each scored against the workload's oracle.

package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
	"repro/internal/pta"
	"repro/internal/vet"
)

// setup is one pass through the set-up pipeline: the compiled program and
// the wall time of each public call.
type setup struct {
	prog  *codegen.Program
	irp   *ir.Program
	diags int
	// Stage durations, in pipeline order (see setupStages).
	stage [len(setupStages)]time.Duration
	total time.Duration
}

// setupStages names the set-up spans; the layer prefix is the module.
var setupStages = [...]string{"lang.parse", "lang.check", "ir.build", "codegen.compile", "pta.analyze", "vet.check", "kernel.load"}

// setUp runs parse → typecheck → ir.Build → codegen.Compile → pta.Analyze →
// vet.Check → NewSystem → Start once, timing each call. The system it loads
// is discarded: every rep loads its own.
func setUp(w *workload) (*setup, error) {
	s := &setup{}
	t := time.Now()
	lap := func(i int) {
		now := time.Now()
		s.stage[i] = now.Sub(t)
		s.total += s.stage[i]
		t = now
	}
	tree, err := parser.Parse(w.src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	lap(0)
	info, err := types.Check(tree)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	lap(1)
	s.irp = ir.Build(info)
	lap(2)
	if s.prog, err = codegen.Compile(s.irp); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	lap(3)
	if _, err := pta.Analyze(s.irp); err != nil {
		return nil, fmt.Errorf("pta: %w", err)
	}
	lap(4)
	diags := vet.Check(s.prog)
	if vet.HasErrors(diags) {
		return nil, fmt.Errorf("vet: %d diagnostics, first: %s", len(diags), diags[0].Msg)
	}
	s.diags = len(diags)
	lap(5)
	sys, err := core.NewSystem(s.prog, core.Figure1Network(), w.opts)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	sys.Cluster.Start(w.opts.Placement)
	lap(6)
	return s, nil
}

// observed is what one whole simulation produced. The simulator is
// deterministic, so every field must repeat exactly between reps and
// between the timed and the traced run.
type observed struct {
	simMS     float64
	frames    uint64
	wireBytes uint64
	events    uint64
	instrs    uint64
	output    string
}

func observe(sys *core.System) observed {
	o := observed{simMS: sys.ElapsedMS(), events: sys.Cluster.Sim.Events(), output: sys.Output()}
	nc := sys.Cluster.Net.Counters()
	o.frames, o.wireBytes = nc.Frames, nc.Bytes
	for _, n := range sys.Cluster.Nodes {
		o.instrs += n.Instrs
	}
	return o
}

// diff describes the first field in which two observations differ ("" when
// they agree).
func (o observed) diff(p observed) string {
	switch {
	case o.simMS != p.simMS:
		return fmt.Sprintf("sim_ms %v vs %v", o.simMS, p.simMS)
	case o.frames != p.frames:
		return fmt.Sprintf("frames %d vs %d", o.frames, p.frames)
	case o.wireBytes != p.wireBytes:
		return fmt.Sprintf("wire bytes %d vs %d", o.wireBytes, p.wireBytes)
	case o.events != p.events:
		return fmt.Sprintf("sim events %d vs %d", o.events, p.events)
	case o.instrs != p.instrs:
		return fmt.Sprintf("instructions %d vs %d", o.instrs, p.instrs)
	case o.output != p.output:
		return "printed output differs"
	}
	return ""
}

// opCount is the workload's op count for a run: fixed by the generator, or
// one per simulated instruction.
func (w *workload) opCount(o observed) int {
	if w.ops > 0 {
		return w.ops
	}
	return int(o.instrs)
}

// score returns how many of the run's ops failed: an op fails when the
// check line vouching for it is wrong or missing. A run that errored, or
// printed a line no check expects, fails all its ops.
func (w *workload) score(o observed, runErr error) (attempted, failed int) {
	attempted = w.opCount(o)
	if attempted == 0 {
		attempted = 1 // the run died before executing anything
	}
	if runErr != nil {
		return attempted, attempted
	}
	printed := map[string]int{}
	for _, l := range strings.Split(o.output, "\n") {
		printed[l]++
	}
	weight, bad := 0, 0
	for _, c := range w.checks {
		weight += c.ops
		if printed[c.line] > 0 {
			printed[c.line]--
		} else {
			bad += c.ops
		}
	}
	for l, n := range printed {
		if n > 0 && l != "" {
			return attempted, attempted
		}
	}
	// Weights are op counts except on compute_ring, where each walker
	// vouches for an equal share of the instructions.
	return attempted, int(int64(attempted) * int64(bad) / int64(weight))
}

// rep is one timed whole simulation.
type rep struct {
	wall, cpu  float64 // seconds
	allocBytes uint64
	mallocs    uint64
	obs        observed
	err        error
	// Go runtime over the rep: GC cycles and pause, heap obtained from the
	// OS by its end.
	gcCycles  uint32
	gcPauseNS uint64
	heapSys   uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timedRep loads the compiled program on a fresh Figure 1 cluster and runs
// it to quiescence with tracing off, timing NewSystem+Run. A load or run
// error is recorded, not fatal: it fails the rep's ops.
func timedRep(w *workload, prog *codegen.Program) *rep {
	r := &rep{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuSeconds(), time.Now()
	sys, err := core.NewSystem(prog, core.Figure1Network(), w.opts)
	if err == nil {
		err = sys.Run()
	}
	r.wall, r.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.mallocs = after.Mallocs - before.Mallocs
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	r.heapSys = after.HeapSys
	r.err = err
	if sys != nil {
		r.obs = observe(sys)
	}
	return r
}
