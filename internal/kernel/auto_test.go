// Adaptive-placement kernel tests: the policy tick must drive batched
// cohort migrations, the batch path must survive a seeded fault plan with
// exactly-once installs, and a policy-free run must carry no trace of the
// subsystem.

package kernel

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// chattySrc is testdata/chatty.em: a Service with a Stats helper, born on
// node 0 and hammered by a caller on node 1. The placement facts golden in
// internal/auto reads the same file.
var chattySrc = func() string {
	src, err := os.ReadFile(filepath.Join("testdata", "chatty.em"))
	if err != nil {
		panic(err)
	}
	return string(src)
}()

// chattyWant is the program's location-independent output: 40 calls of
// x*2+1 for x=1..40 sum to 40*41 + 40 = 1680.
const chattyWant = "main up false\ncaller done sum=1680"

func autoConfig() Config { return Config{AutoPolicy: "greedy-colocate"} }

func countKind(c *Cluster, k obs.Kind) int {
	n := 0
	for _, e := range c.Rec.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestAutoPolicyBatchesCohort: the policy must colocate the chatty Service
// with its caller, and because Stats rides in the same cohort the transfer
// must go out as one MoveGroup.
func TestAutoPolicyBatchesCohort(t *testing.T) {
	models := []netsim.MachineModel{mSun3, mSPARC}
	c := runSrc(t, chattySrc, models, autoConfig())
	if got := c.OutputText(); got != chattyWant {
		t.Fatalf("output = %q, want %q", got, chattyWant)
	}
	if countKind(c, obs.EvAutoDecision) == 0 {
		t.Fatal("policy made no decisions on a 40-call hot loop")
	}
	if countKind(c, obs.EvMoveGroupOut) == 0 || countKind(c, obs.EvMoveGroupIn) == 0 {
		t.Fatal("no batched group transfer despite the {Service, Stats} cohort")
	}
	// The batch actually placed the pair: the service keeps working after
	// the move (the output check above) and colocation drops the remote
	// traffic, so there must be strictly fewer remote invokes than calls.
	var remote uint64
	for _, cp := range c.Rec.Metrics().CountersPrefix("remote_invokes") {
		remote += cp.Value
	}
	if remote >= 40 {
		t.Errorf("remote_invokes = %d; colocation never took effect", remote)
	}
}

// TestAutoGroupMoveChaosExactlyOnce: the batched transfer rides the
// crash-tolerant protocol — under drops, duplicates and corruption the
// program output is unchanged, every span installs exactly once, and the
// same seed reproduces a byte-identical event log.
func TestAutoGroupMoveChaosExactlyOnce(t *testing.T) {
	models := []netsim.MachineModel{mSun3, mSPARC}
	plan := func() *chaos.Plan {
		return &chaos.Plan{Seed: 11, Drop: 0.06, Dup: 0.05, Delay: 0.04, Corrupt: 0.03}
	}
	cfg := func() Config {
		c := autoConfig()
		c.Chaos = plan()
		return c
	}

	c1 := runSrc(t, chattySrc, models, cfg())
	if got := c1.OutputText(); got != chattyWant {
		t.Fatalf("chaos output = %q, want %q", got, chattyWant)
	}
	if countKind(c1, obs.EvMoveGroupOut) == 0 {
		t.Fatal("fault plan run never exercised a batched transfer")
	}
	if countKind(c1, obs.EvFaultInject) == 0 {
		t.Fatal("fault plan never bit; the test proves nothing")
	}

	c2 := runSrc(t, chattySrc, models, cfg())
	log1, log2 := obs.EventLog(c1.Rec), obs.EventLog(c2.Rec)
	if !bytes.Equal(log1, log2) {
		t.Errorf("same seed produced different event logs (%d vs %d bytes)", len(log1), len(log2))
	}
}

// TestAutoOffLeavesNoTrace: with no policy configured the run must contain
// no placement events, no policy-feed metrics, and no decision log.
func TestAutoOffLeavesNoTrace(t *testing.T) {
	models := []netsim.MachineModel{mSun3, mSPARC}
	c := runSrc(t, chattySrc, models, Config{})
	if got := c.OutputText(); got != chattyWant {
		t.Fatalf("output = %q, want %q", got, chattyWant)
	}
	for _, k := range []obs.Kind{obs.EvAutoDecision, obs.EvMoveGroupOut, obs.EvMoveGroupIn} {
		if n := countKind(c, k); n != 0 {
			t.Errorf("policy-free run emitted %d %v events", n, k)
		}
	}
	for _, cp := range c.Rec.Metrics().Snapshot(0).Counters {
		if strings.HasPrefix(cp.Name, "invoke_") || strings.HasPrefix(cp.Name, "auto_") ||
			strings.HasPrefix(cp.Name, "group_move") {
			t.Errorf("policy-free run recorded metric %s{%s}", cp.Name, cp.Labels)
		}
	}
	if log := c.AutoDecisionLog(); log != nil {
		t.Errorf("policy-free run has a decision log: %v", log)
	}
}
