// Differential validation of the parallel engine: every example program,
// on every ISA (homogeneous clusters) plus the heterogeneous Figure 1
// network, must behave identically under the sequential reference engine
// and the parallel per-node-goroutine engine — same printed lines, same
// simulated elapsed time, same faults, same per-node cycle and instruction
// counts, same final memory images, a byte-identical rendered event
// stream, a byte-identical metrics snapshot, and identical migration
// spans. Run under -race this doubles as the data-race check for the
// node-confined kernel state.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// captureParallel is captureDispatch with the engine choice instead of the
// dispatcher choice, plus the metrics and span projections.
func captureEngine(t *testing.T, src string, machines []netsim.MachineModel, parallel bool) (dispatchRun, []byte, []string) {
	t.Helper()
	sys, err := RunSource(src, machines, Options{Parallel: parallel})
	if err != nil {
		t.Fatalf("run (parallel=%v): %v", parallel, err)
	}
	if err := sys.Cluster.CheckStacks(); err != nil {
		t.Fatal(err)
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
	snap := sys.MetricsSnapshot()
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	var spans []string
	for _, s := range sys.Recorder().Spans() {
		spans = append(spans, s.String())
	}
	return r, snapJSON, spans
}

// checkGoroutines fails the test if a parallel run leaked node goroutines.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak after parallel run: %d before, %d after\n%s",
				before, n, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParallelDifferential(t *testing.T) {
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
	for _, pf := range progs {
		srcBytes, err := os.ReadFile(pf)
		if err != nil {
			t.Fatalf("reading %s: %v", pf, err)
		}
		src := string(srcBytes)
		for _, net := range nets {
			t.Run(filepath.Base(pf)+"/"+net.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				seq, seqSnap, seqSpans := captureEngine(t, src, net.machines, false)
				par, parSnap, parSpans := captureEngine(t, src, net.machines, true)
				checkGoroutines(t, before)
				diffDispatchRuns(t, "parallel", par, seq)
				if !bytes.Equal(parSnap, seqSnap) {
					t.Errorf("metrics snapshots differ:\npar %s\nseq %s", parSnap, seqSnap)
				}
				if len(parSpans) != len(seqSpans) {
					t.Fatalf("span count: %d (parallel) vs %d (sequential)", len(parSpans), len(seqSpans))
				}
				for i := range parSpans {
					if parSpans[i] != seqSpans[i] {
						t.Errorf("span %d: %q (parallel) vs %q (sequential)", i, parSpans[i], seqSpans[i])
					}
				}
				if len(seq.lines) == 0 {
					t.Error("program printed nothing; differential comparison is vacuous")
				}
			})
		}
	}
}
