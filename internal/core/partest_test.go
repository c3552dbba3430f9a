// Differential validation of the parallel engine: every example program,
// on every ISA (homogeneous clusters) plus the heterogeneous Figure 1
// network, must behave identically under the sequential reference engine
// and the parallel per-node-goroutine engine — same printed lines, same
// simulated elapsed time, same faults, same per-node cycle and instruction
// counts, same final memory images, a byte-identical rendered event
// stream, a byte-identical metrics snapshot, and identical migration
// spans — fault-free and under the chaos smoke plan, with the directory
// off and on. Run under -race this doubles as the data-race check for the
// node-confined kernel state.
package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
)

// captureEngine is captureDispatch plus the metrics and span projections.
func captureEngine(t *testing.T, src string, machines []netsim.MachineModel, opts Options) (dispatchRun, []byte, []string) {
	t.Helper()
	r, sys := captureDispatch(t, src, machines, opts)
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
	plan, err := chaos.ParsePlan(chaosSmokePlan)
	if err != nil {
		t.Fatal(err)
	}
	arms := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"chaos", Options{Chaos: plan}},
		{"dir3", Options{DirReplicas: 3}},
		{"chaos+dir3", Options{Chaos: plan, DirReplicas: 3}},
	}
	for _, pf := range examplePrograms(t) {
		srcBytes, err := os.ReadFile(pf)
		if err != nil {
			t.Fatalf("reading %s: %v", pf, err)
		}
		src := string(srcBytes)
		for _, net := range diffNets() {
			t.Run(filepath.Base(pf)+"/"+net.name, func(t *testing.T) {
				for _, arm := range arms {
					t.Run(arm.name, func(t *testing.T) { parallelMatches(t, src, net.machines, arm.opts) })
				}
			})
		}
	}
}

// parallelMatches runs src both ways under opts and compares everything
// the two engines must agree on.
func parallelMatches(t *testing.T, src string, machines []netsim.MachineModel, opts Options) {
	t.Helper()
	before := runtime.NumGoroutine()
	seq, seqSnap, seqSpans := captureEngine(t, src, machines, opts)
	opts.Parallel = true
	par, parSnap, parSpans := captureEngine(t, src, machines, opts)
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
}
