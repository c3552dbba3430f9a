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
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netsim"
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
	var r sharpenRun
	var sys *System
	r.dispatchRun, sys = captureDispatch(t, src, machines, Options{NoSharpen: noSharpen})
	r.payload = uint64(sys.Cluster.Net.PayloadLen)
	for _, n := range sys.Cluster.Nodes {
		r.marshaled += n.MarshaledVarSlots
		r.canonicalized += n.CanonicalizedVarSlots
	}
	return r
}

func TestSharpenDifferential(t *testing.T) {
	var totalCanon uint64
	for _, pf := range examplePrograms(t) {
		srcBytes, err := os.ReadFile(pf)
		if err != nil {
			t.Fatalf("reading %s: %v", pf, err)
		}
		src := string(srcBytes)
		for _, net := range diffNets() {
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
