// Cross-commit pin of everything a run lets anyone observe: for each corpus
// program on each differential network under four run shapes, one sha256 of
// the printed lines, faults, simulated time, per-node cycles and
// instructions, final memory images, rendered event log, migration spans and
// metrics snapshot. A refactor that claims to move nothing simulated leaves
// testdata/observables.golden byte-identical. Regenerate it with
//
//	go test ./internal/core -run TestObservablesGolden -update
package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
)

func TestObservablesGolden(t *testing.T) {
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
		{"greedy", Options{AutoPolicy: "greedy-colocate"}},
	}
	var got strings.Builder
	for _, pf := range examplePrograms(t) {
		src, err := os.ReadFile(pf)
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range diffNets() {
			for _, arm := range arms {
				sys, err := RunSource(string(src), net.machines, arm.opts)
				if err != nil {
					t.Fatalf("%s %s %s: %v", filepath.Base(pf), net.name, arm.name, err)
				}
				fmt.Fprintf(&got, "%s %s %s %x\n", filepath.Base(pf), net.name, arm.name, observablesSum(t, sys))
			}
		}
	}
	golden := filepath.Join("testdata", "observables.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got.String() != string(want) {
		t.Errorf("observables drifted from %s (run with -update to accept):\ngot:\n%swant:\n%s", golden, got.String(), want)
	}
}

// observablesSum hashes one finished run's observable projection.
func observablesSum(t *testing.T, sys *System) []byte {
	t.Helper()
	h := sha256.New()
	for _, l := range sys.Lines() {
		fmt.Fprintf(h, "line %q\n", l)
	}
	for _, f := range sys.Cluster.Faults {
		fmt.Fprintf(h, "fault node %d frag %d at %v: %s\n", f.Node, f.Frag, f.At, f.Msg)
	}
	fmt.Fprintf(h, "elapsed %v\n", sys.ElapsedMS())
	for _, n := range sys.Cluster.Nodes {
		fmt.Fprintf(h, "node %d cycles %d instrs %d mem %d\n", n.ID, n.CPU.Cycles, n.Instrs, len(n.Mem))
		h.Write(n.Mem)
	}
	rec := sys.Recorder()
	h.Write(obs.EventLog(rec))
	for _, s := range rec.Spans() {
		fmt.Fprintf(h, "%+v\n", *s)
	}
	if err := obs.WriteMetricsJSON(h, sys.MetricsSnapshot()); err != nil {
		t.Fatal(err)
	}
	return h.Sum(nil)
}
