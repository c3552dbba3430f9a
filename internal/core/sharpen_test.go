// Differential validation of live-set sharpening: every example program,
// on every ISA plus the heterogeneous Figure 1 network, must behave
// identically with sharpening on (the default) and off (Config.NoSharpen) —
// same printed lines, simulated time, faults, per-node cycle/instruction
// counts, final memory images, wire payload bytes and rendered event
// stream. Sharpening substitutes canonical zeros for pta-dead slots
// inside the same converter calls, so the marshaled slot counts are
// exactly equal; the measured shrink is the canonicalized fraction,
// which must be nonzero somewhere or the whole mechanism is vacuous.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// sharpenRun extends the dispatch projection with the conversion-side
// counters sharpening touches.
type sharpenRun struct {
	dispatchRun
	payload       uint64
	marshaled     uint64
	canonicalized uint64
}

func captureSharpen(t *testing.T, src string, machines []netsim.MachineModel, noSharpen bool) sharpenRun {
	t.Helper()
	sys, err := RunSource(src, machines, Options{NoSharpen: noSharpen})
	if err != nil {
		t.Fatalf("run (nosharpen=%v): %v", noSharpen, err)
	}
	if err := sys.Cluster.CheckStacks(); err != nil {
		t.Fatal(err)
	}
	r := sharpenRun{payload: uint64(sys.Cluster.Net.PayloadLen)}
	r.lines = sys.Lines()
	r.elapsed = sys.ElapsedMS()
	r.eventLog = obs.EventLog(sys.Recorder())
	for _, f := range sys.Cluster.Faults {
		r.faults = append(r.faults, fmt.Sprintf("node %d frag %d at %v: %s", f.Node, f.Frag, f.At, f.Msg))
	}
	for _, n := range sys.Cluster.Nodes {
		r.cycles = append(r.cycles, n.CPU.Cycles)
		r.instrs = append(r.instrs, n.Instrs)
		r.memSum = append(r.memSum, append([]byte(nil), n.Mem...))
		r.marshaled += n.MarshaledVarSlots
		r.canonicalized += n.CanonicalizedVarSlots
	}
	return r
}

func TestSharpenDifferential(t *testing.T) {
	progs, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	nets := []struct {
		name     string
		machines []netsim.MachineModel
	}{
		{"vax", []netsim.MachineModel{netsim.VAXstation2000, netsim.VAXstation2000, netsim.VAXstation2000}},
		{"m68k", []netsim.MachineModel{netsim.Sun3_100, netsim.HP9000_433s, netsim.HP9000_385}},
		{"sparc", []netsim.MachineModel{netsim.SPARCstationSLC, netsim.SPARCstationSLC, netsim.SPARCstationSLC}},
		{"figure1", Figure1Network()},
	}
	var totalCanon uint64
	for _, pf := range progs {
		srcBytes, err := os.ReadFile(pf)
		if err != nil {
			t.Fatalf("reading %s: %v", pf, err)
		}
		src := string(srcBytes)
		for _, net := range nets {
			t.Run(filepath.Base(pf)+"/"+net.name, func(t *testing.T) {
				sharp := captureSharpen(t, src, net.machines, false)
				plain := captureSharpen(t, src, net.machines, true)
				diffDispatchRuns(t, "sharpened", sharp.dispatchRun, plain.dispatchRun)
				if sharp.payload != plain.payload {
					t.Errorf("wire payload: %d bytes (sharpened) vs %d (unsharpened)",
						sharp.payload, plain.payload)
				}
				if sharp.marshaled != plain.marshaled {
					t.Errorf("marshaled slots: %d (sharpened) vs %d (unsharpened); sharpening must not change what is shipped",
						sharp.marshaled, plain.marshaled)
				}
				if plain.canonicalized != 0 {
					t.Errorf("unsharpened run canonicalized %d slots; the escape hatch is broken", plain.canonicalized)
				}
				if sharp.canonicalized > sharp.marshaled {
					t.Errorf("canonicalized %d of %d marshaled slots", sharp.canonicalized, sharp.marshaled)
				}
				if len(sharp.lines) == 0 {
					t.Error("program printed nothing; differential comparison is vacuous")
				}
				totalCanon += sharp.canonicalized
			})
		}
	}
	if totalCanon == 0 {
		t.Error("no run canonicalized a single slot; the sharpening differential is vacuous")
	}
}
