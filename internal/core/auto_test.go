// Adaptive-placement core tests: deterministic decision logs and the
// option-validation edges.

package core

import (
	"strings"
	"testing"

	"repro/internal/auto/workgen"
	"repro/internal/obs"
)

// TestAutoDecisionLogDeterministic: the same generated workload under the
// same policy must produce a byte-identical decision log and event log on
// every run (the CI race target runs this under -race, so the guarantee
// also holds with the runtime's scheduler shaking the host).
func TestAutoDecisionLogDeterministic(t *testing.T) {
	src := workgen.Generate(workgen.Config{Seed: 7, Services: 3, Sessions: 2, Requests: 12, Nodes: 3})
	run := func() (string, []byte) {
		sys, err := RunSource(src, Figure1Network(), Options{AutoPolicy: "greedy-colocate"})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return strings.Join(sys.Cluster.AutoDecisionLog(), "\n"), obs.EventLog(sys.Recorder())
	}
	log1, ev1 := run()
	log2, ev2 := run()
	if log1 != log2 {
		t.Errorf("decision logs differ:\n--- run1\n%s\n--- run2\n%s", log1, log2)
	}
	if string(ev1) != string(ev2) {
		t.Errorf("event logs differ (%d vs %d bytes)", len(ev1), len(ev2))
	}
	if log1 == "" {
		t.Error("policy made no decisions; the determinism check is vacuous")
	}
}

// TestAutoPolicyValidation: unknown policies are rejected up front.
func TestAutoPolicyValidation(t *testing.T) {
	src := "object Main\n  process\n    print(1)\n  end process\nend Main\n"
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(prog, Figure1Network(), Options{AutoPolicy: "nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
}
