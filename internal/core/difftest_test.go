// The determinism matrix: a thread behaves the same whichever machine,
// dispatch tier or sharpening setting runs it, on every rerun, and beside a
// twin over the same compiled program. Each corpus program
// runs on each diffNets network once per base run shape; each variant reruns
// the base with one knob set and must project (observe) to the same fields.
// Each top-level test selects cells of the table and shares the base runs.
// Op values are arch.TestOpSemantics's, so the LegacyDispatch cells check
// fusion and blocks; 1-, 7- and 13-instruction slices make nearly every poll
// yield, so objects move while their threads are parked at bus stops.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// observables is the projection of one finished System: fields in diff's order,
// the first golden of them in the golden's hash format, and hooks' counters.
type observables struct {
	fields        []field
	golden        int
	sum           []byte // sha256 of the golden fields; set by compact
	marshaled     uint64 // frame-variable slots put on the wire
	canonicalized uint64 // of those, zeroed as pta-dead: NoSharpen changes it, so no field
	dropped       uint64 // events the recorder's rings dropped
}

// named is each name-value pair: field, program source, network, base.
type named[T any] struct {
	name string
	val  T
}

type field = named[[]byte]

func observe(t *testing.T, src string, machines []netsim.MachineModel, opts Options) *observables {
	t.Helper()
	sys, err := RunSource(src, machines, opts)
	return project(t, sys, err)
}

// observeTwins compiles src once and runs two systems over that program on
// two goroutines at once, projecting each.
func observeTwins(t *testing.T, src string, machines []netsim.MachineModel, opts Options) []*observables {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	systems, errs := make([]*System, 2), make([]error, 2)
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			systems[i], errs[i] = NewSystem(prog, machines, opts)
			if errs[i] == nil {
				errs[i] = systems[i].Run()
			}
		}()
	}
	wg.Wait()
	return []*observables{project(t, systems[0], errs[0]), project(t, systems[1], errs[1])}
}

// project is the observables of a finished run that ended in err.
func project(t *testing.T, sys *System, err error) *observables {
	t.Helper()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec := sys.Recorder()
	o := &observables{dropped: rec.Dropped()}
	var lines, faults, spans, metrics, chrome bytes.Buffer
	for _, l := range sys.Lines() {
		fmt.Fprintf(&lines, "line %q\n", l)
	}
	for _, f := range sys.Cluster.Faults {
		fmt.Fprintf(&faults, "fault node %d frag %d at %v: %s\n", f.Node, f.Frag, f.At, f.Msg)
	}
	o.fields = []field{{"lines", lines.Bytes()}, {"faults", faults.Bytes()}, {"elapsed", fmt.Appendf(nil, "elapsed %v\n", sys.ElapsedMS())}}
	for _, n := range sys.Cluster.Nodes {
		o.fields = append(o.fields,
			field{fmt.Sprintf("node %d", n.ID), fmt.Appendf(nil, "node %d cycles %d instrs %d mem %d\n", n.ID, n.CPU.Cycles, n.Instrs, len(n.Mem))},
			field{fmt.Sprintf("node %d memory", n.ID), n.Mem})
		o.marshaled += n.MarshaledVarSlots
		o.canonicalized += n.CanonicalizedVarSlots
	}
	for _, s := range rec.Spans() {
		fmt.Fprintf(&spans, "%+v\n", *s)
	}
	if err := errors.Join(obs.WriteMetricsJSON(&metrics, sys.MetricsSnapshot()), obs.WriteChromeTrace(&chrome, rec)); err != nil {
		t.Fatal(err)
	}
	o.fields = append(o.fields, field{"event log", obs.EventLog(rec)}, field{"spans", spans.Bytes()}, field{"metrics", metrics.Bytes()})
	o.golden = len(o.fields)
	o.fields = append(o.fields,
		field{"wire", fmt.Appendf(nil, "payload %d bytes, %d slots marshaled, %d events dropped", sys.Cluster.Net.PayloadLen, o.marshaled, o.dropped)},
		field{"chrome trace", chrome.Bytes()})
	return o
}

var seed = maphash.MakeSeed()

// compact is o with each value longer than a line replaced by its length
// and hash, and sum set: what a cached base run keeps, in a few kilobytes.
func (o *observables) compact() *observables {
	c, h := *o, sha256.New()
	c.fields = slices.Clone(o.fields)
	for i, f := range o.fields {
		if i < o.golden {
			h.Write(f.val)
		}
		if len(f.val) > 200 {
			c.fields[i].val = fmt.Appendf(nil, "%d bytes hashing to %x", len(f.val), maphash.Bytes(seed, f.val))
		}
	}
	c.sum = h.Sum(nil)
	return &c
}

// diff names the first field that differs between two compacted runs on one
// network, with both values; "" when none does.
func diff(got, want *observables) string {
	for i, w := range want.fields {
		if g := got.fields[i].val; !bytes.Equal(g, w.val) {
			return fmt.Sprintf("%s: %q vs %q", w.name, g, w.val)
		}
	}
	return ""
}

type base = named[Options]

// bases are the run shapes; a slice size changes the schedule, so is one.
func bases(t *testing.T) []base {
	plan, err := chaos.ParsePlan(chaosSmokePlan)
	if err != nil {
		t.Fatal(err)
	}
	return []base{
		{"default", Options{}},
		{"chaos", Options{Chaos: plan}},
		{"dir3", Options{DirReplicas: 3}},
		{"chaos+dir3", Options{Chaos: plan, DirReplicas: 3}},
		{"greedy", Options{AutoPolicy: "greedy-colocate"}},
		{"slice1", Options{SliceInstrs: 1}},
		{"slice7", Options{SliceInstrs: 7}},
		{"slice13", Options{SliceInstrs: 13}},
		{"trace", Options{Trace: func(string) {}}}, // a text sink changes nothing observed
	}
}

type variant struct {
	name  string
	set   func(*Options)
	twins bool                                       // run as observeTwins, diffing each twin
	check func(t *testing.T, base, got *observables) // after the diff
}

var (
	legacy    = variant{name: "LegacyDispatch", set: func(o *Options) { o.LegacyDispatch = true }}
	parallel  = variant{name: "Parallel", set: func(*Options) {}, twins: true}
	noSharpen = variant{name: "NoSharpen", set: func(o *Options) { o.NoSharpen = true }, check: func(t *testing.T, sharp, plain *observables) {
		if plain.canonicalized != 0 || sharp.canonicalized > sharp.marshaled {
			t.Errorf("canonicalized %d slots unsharpened; %d of %d sharpened", plain.canonicalized, sharp.canonicalized, sharp.marshaled)
		}
		canonicalized.Add(sharp.canonicalized)
	}}
	rerun = variant{name: "rerun", set: func(*Options) {}, check: func(t *testing.T, ref, _ *observables) {
		if ref.dropped > 0 {
			t.Errorf("%d events dropped; the event log is a tail", ref.dropped)
		}
	}}
	canonicalized atomic.Uint64 // by the sharpened side of NoSharpen's cells
)

func corpus(t *testing.T) (progs []named[string]) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, named[string]{filepath.Base(p), string(src)})
	}
	if len(progs) == 0 {
		t.Fatal("no example programs found")
	}
	return progs
}

// diffNets is one homogeneous cluster per ISA, plus the heterogeneous
// Figure 1 network so cross-ISA conversion runs in every cell.
var diffNets = []named[[]netsim.MachineModel]{
	{"vax", []netsim.MachineModel{netsim.VAXstation2000, netsim.VAXstation2000, netsim.VAXstation2000}},
	{"m68k", []netsim.MachineModel{netsim.Sun3_100, netsim.HP9000_433s, netsim.HP9000_385}},
	{"sparc", []netsim.MachineModel{netsim.SPARCstationSLC, netsim.SPARCstationSLC, netsim.SPARCstationSLC}},
	{"figure1", Figure1Network()},
}

// baseRuns holds each program/network/base run once per test binary.
var baseRuns sync.Map // cell name → *baseRun

type baseRun struct {
	once sync.Once
	o    *observables
}

func runBase(t *testing.T, cell, src string, machines []netsim.MachineModel, opts Options) *observables {
	e, _ := baseRuns.LoadOrStore(cell, new(baseRun))
	r := e.(*baseRun)
	r.once.Do(func() {
		if o := observe(t, src, machines, opts); len(o.fields[0].val) > 0 { // printed lines
			r.o = o.compact()
		}
	})
	if r.o == nil {
		t.Fatalf("base run %s failed or printed nothing", cell)
	}
	return r.o
}

// matrix checks v on the selected bases, one parallel subtest per cell.
func matrix(t *testing.T, v variant, selected func(base) bool, label func(base) string) {
	for _, prog := range corpus(t) {
		t.Run(prog.name, func(t *testing.T) {
			for _, net := range diffNets {
				t.Run(net.name, func(t *testing.T) {
					for _, b := range bases(t) {
						if !selected(b) {
							continue
						}
						t.Run(label(b), func(t *testing.T) {
							t.Parallel()
							cell := prog.name + "/" + net.name + "/" + b.name
							opts := b.val
							v.set(&opts)
							ref := runBase(t, cell, prog.val, net.val, b.val)
							var runs []*observables
							if v.twins {
								runs = observeTwins(t, prog.val, net.val, opts)
							} else {
								runs = []*observables{observe(t, prog.val, net.val, opts)}
							}
							for _, got := range runs {
								if d := diff(got.compact(), ref); d != "" {
									t.Fatalf("%s on %s differs from the base, first in %s", v.name, cell, d)
								}
								if v.check != nil {
									v.check(t, ref, got)
								}
							}
						})
					}
				})
			}
		})
	}
}

func all(base) bool        { return true }
func name(b base) string   { return b.name }
func isSlice(b base) bool  { return b.val.SliceInstrs != 0 }
func notSlice(b base) bool { return !isSlice(b) }
func slice(b base) string  { return strings.TrimPrefix(b.name, "slice") }

func TestDispatchDifferential(t *testing.T) {
	t.Parallel()
	matrix(t, legacy, notSlice, name)
}

func TestDispatchDifferentialTinySlice(t *testing.T) {
	t.Parallel()
	matrix(t, legacy, isSlice, slice)
}

// Clusters over one program share its fused code and spec copies, and
// nothing ties a cluster to one goroutine: each cell's twins, two systems
// over one compiled program running side by side, must each match the base.
// Under -race the cells are the data-race check for the state clusters
// share. The test does not run alongside the other selections, so its leak
// check counts only its own goroutines.
func TestParallelDifferential(t *testing.T) {
	before := runtime.NumGoroutine()
	matrix(t, parallel, all, name)
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutine leak: %d before the parallel cells, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Sharpening substitutes canonical zeros for pta-dead slots inside the same
// converter calls, so what is shipped is equal and the canonicalized count
// is the measured shrink, which must be nonzero somewhere.
func TestSharpenDifferential(t *testing.T) {
	t.Parallel()
	matrix(t, noSharpen, all, name)
	if canonicalized.Load() == 0 {
		t.Error("no run canonicalized a single slot; the sharpening differential is vacuous")
	}
}

// The export contract: a rerun exports the same bytes, and the event log
// is all of the run.
func TestEventStreamDeterministic(t *testing.T) {
	t.Parallel()
	matrix(t, rerun, all, name)
}

// TestObservablesGolden pins the default, chaos, dir3 and greedy base runs
// across commits; -update rewrites the golden file.
func TestObservablesGolden(t *testing.T) {
	t.Parallel()
	var got strings.Builder
	bs := bases(t)
	for _, prog := range corpus(t) {
		for _, net := range diffNets {
			for _, bn := range []string{"default", "chaos", "dir3", "greedy"} {
				b := bs[slices.IndexFunc(bs, func(b base) bool { return b.name == bn })]
				o := runBase(t, prog.name+"/"+net.name+"/"+b.name, prog.val, net.val, b.val)
				fmt.Fprintf(&got, "%s %s %s %x\n", prog.name, net.name, b.name, o.sum)
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "observables.golden"), []byte(got.String()))
}

var update = flag.Bool("update", false, "rewrite the .golden files")

func kilroySource(t *testing.T) string {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "kilroy.em"))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestChromeTraceGoldenTwoHop pins the Chrome trace of a two-hop kilroy
// tour; -update rewrites the golden file.
func TestChromeTraceGoldenTwoHop(t *testing.T) {
	o := observe(t, kilroySource(t), []netsim.MachineModel{netsim.SPARCstationSLC, netsim.VAXstation2000}, Options{})
	chrome := o.fields[slices.IndexFunc(o.fields, func(f field) bool { return f.name == "chrome trace" })].val
	// The golden bytes must stay a well-formed Chrome trace document with a
	// slice of each move phase: conversion out, wire, respecialization.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	for _, phase := range []string{"MD→MI", "wire", "MI→MD"} {
		if !slices.ContainsFunc(doc.TraceEvents, func(ev map[string]any) bool {
			name, _ := ev["name"].(string)
			return ev["ph"] == "X" && strings.HasPrefix(name, phase)
		}) {
			t.Errorf("two-hop trace is missing a %s phase slice", phase)
		}
	}
	checkGolden(t, filepath.Join("testdata", "kilroy_two_hop_trace.golden.json"), chrome)
}

// checkGolden compares got with the golden file at path (-update rewrites it).
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted (run with -update to accept):\ngot %d bytes:\n%.2000s\nwant %d bytes:\n%.2000s", path, len(got), got, len(want), want)
	}
}
