// Differential validation of the dispatch tiers: every example program,
// on every ISA (homogeneous clusters) plus the heterogeneous Figure 1
// network, must behave identically under the legacy byte-at-a-time
// emulator (arch.Step) and the fused superinstruction dispatcher — same
// printed lines, same per-node cycle and instruction counts, same
// faults, same final memory images, and a byte-identical rendered event
// stream (which embeds every trap-driven kernel event). Both tiers
// compile each op through arch's one definition, so what differs, and
// is checked here, is fusion: run tiling, head-only entry, register
// slots and their write-back, the per-run budget check and the flat
// all-register forms (op values are pinned in arch.TestOpSemantics).
// A second matrix
// shrinks the scheduling slice so that nearly every poll yields and
// objects move while their threads are parked, proving that a thread is
// only ever suspended, walked and resumed at a bus stop.
package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// dispatchRun is the full observable projection of one run.
type dispatchRun struct {
	lines    []string
	elapsed  float64
	faults   []string
	cycles   []uint64
	instrs   []uint64
	memSum   [][]byte // final memory image per node
	eventLog []byte
}

// dispatchArms enumerates the two dispatch tiers. Both arms of one
// (program, network, slice) cell must be byte-identical.
var dispatchArms = []struct {
	name string
	opts Options
}{
	{"fused", Options{}}, // the default path
	{"legacy", Options{LegacyDispatch: true}},
}

// captureDispatch runs src under opts and returns its observable
// projection, and the system for differentials that project more. A broken
// kernel invariant (say, a move walking a thread parked off a bus stop) is
// Run's error and fails this cell only.
func captureDispatch(t *testing.T, src string, machines []netsim.MachineModel, opts Options) (dispatchRun, *System) {
	t.Helper()
	sys, err := RunSource(src, machines, opts)
	if err != nil {
		t.Fatalf("run (%+v): %v", opts, err)
	}
	r := dispatchRun{
		lines:    sys.Lines(),
		elapsed:  sys.ElapsedMS(),
		eventLog: obs.EventLog(sys.Recorder()),
	}
	for _, f := range sys.Cluster.Faults {
		r.faults = append(r.faults, fmt.Sprintf("node %d frag %d at %v: %s", f.Node, f.Frag, f.At, f.Msg))
	}
	for _, n := range sys.Cluster.Nodes {
		r.cycles = append(r.cycles, n.CPU.Cycles)
		r.instrs = append(r.instrs, n.Instrs)
		r.memSum = append(r.memSum, append([]byte(nil), n.Mem...))
	}
	return r, sys
}

func diffDispatchRuns(t *testing.T, arm string, got, ref dispatchRun) {
	t.Helper()
	if len(got.lines) != len(ref.lines) {
		t.Fatalf("printed lines: %d (%s) vs %d (reference)\n%v\nvs\n%v",
			len(got.lines), arm, len(ref.lines), got.lines, ref.lines)
	}
	for i := range got.lines {
		if got.lines[i] != ref.lines[i] {
			t.Errorf("line %d: %q (%s) vs %q (reference)", i, got.lines[i], arm, ref.lines[i])
		}
	}
	if got.elapsed != ref.elapsed {
		t.Errorf("elapsed: %v ms (%s) vs %v ms (reference)", got.elapsed, arm, ref.elapsed)
	}
	if len(got.faults) != len(ref.faults) {
		t.Fatalf("faults: %v (%s) vs %v (reference)", got.faults, arm, ref.faults)
	}
	for i := range got.faults {
		if got.faults[i] != ref.faults[i] {
			t.Errorf("fault %d: %q vs %q", i, got.faults[i], ref.faults[i])
		}
	}
	for i := range got.cycles {
		if got.cycles[i] != ref.cycles[i] {
			t.Errorf("node %d cycles: %d (%s) vs %d (reference)", i, got.cycles[i], arm, ref.cycles[i])
		}
		if got.instrs[i] != ref.instrs[i] {
			t.Errorf("node %d instrs: %d (%s) vs %d (reference)", i, got.instrs[i], arm, ref.instrs[i])
		}
		// Equal lengths too: both arms must have grown memory the same way.
		if !bytes.Equal(got.memSum[i], ref.memSum[i]) {
			t.Errorf("node %d final memory image differs (%s: %d bytes, reference: %d)",
				i, arm, len(got.memSum[i]), len(ref.memSum[i]))
		}
	}
	if !bytes.Equal(got.eventLog, ref.eventLog) {
		t.Errorf("rendered event streams differ (%s vs reference)", arm)
	}
}

func diffNets() []struct {
	name     string
	machines []netsim.MachineModel
} {
	// One homogeneous cluster per ISA, plus the heterogeneous Figure 1
	// network so cross-ISA conversion paths run under every dispatcher.
	return []struct {
		name     string
		machines []netsim.MachineModel
	}{
		{"vax", []netsim.MachineModel{netsim.VAXstation2000, netsim.VAXstation2000, netsim.VAXstation2000}},
		{"m68k", []netsim.MachineModel{netsim.Sun3_100, netsim.HP9000_433s, netsim.HP9000_385}},
		{"sparc", []netsim.MachineModel{netsim.SPARCstationSLC, netsim.SPARCstationSLC, netsim.SPARCstationSLC}},
		{"figure1", Figure1Network()},
	}
}

func examplePrograms(t *testing.T) []string {
	t.Helper()
	progs, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	return progs
}

func TestDispatchDifferential(t *testing.T) {
	for _, pf := range examplePrograms(t) {
		srcBytes, err := os.ReadFile(pf)
		if err != nil {
			t.Fatalf("reading %s: %v", pf, err)
		}
		src := string(srcBytes)
		for _, net := range diffNets() {
			t.Run(filepath.Base(pf)+"/"+net.name, func(t *testing.T) {
				ref, _ := captureDispatch(t, src, net.machines, dispatchArms[0].opts)
				for _, arm := range dispatchArms[1:] {
					got, _ := captureDispatch(t, src, net.machines, arm.opts)
					diffDispatchRuns(t, arm.name, got, ref)
				}
				if len(ref.lines) == 0 {
					t.Error("program printed nothing; differential comparison is vacuous")
				}
			})
		}
	}
}

// TestDispatchDifferentialTinySlice reruns the matrix on every network
// with scheduling slices of 1, 7 and 13 instructions. The budget then
// expires at essentially every program point, so nearly every poll
// yields and objects move while their threads are parked there: a thread
// must be observed only at a bus stop (the end-of-run invariant check, and
// the walk of every move), and both tiers must agree on where each slice
// ends. Arms are compared only within one slice size: a different slice
// budget legitimately changes scheduling interleavings, so each cell has
// its own reference arm.
func TestDispatchDifferentialTinySlice(t *testing.T) {
	for _, pf := range examplePrograms(t) {
		srcBytes, err := os.ReadFile(pf)
		if err != nil {
			t.Fatalf("reading %s: %v", pf, err)
		}
		src := string(srcBytes)
		t.Run(filepath.Base(pf), func(t *testing.T) {
			for _, net := range diffNets() {
				for _, slice := range []int{1, 7, 13} {
					t.Run(fmt.Sprintf("%s/%d", net.name, slice), func(t *testing.T) {
						ref, _ := captureDispatch(t, src, net.machines, Options{SliceInstrs: slice})
						for _, arm := range dispatchArms[1:] {
							opts := arm.opts
							opts.SliceInstrs = slice
							got, _ := captureDispatch(t, src, net.machines, opts)
							diffDispatchRuns(t, arm.name, got, ref)
						}
					})
				}
			}
		})
	}
}
