// Chaos-protocol tests: the kernel's migration protocol must survive a
// seeded fault plan — dropped, duplicated, delayed and corrupted frames
// plus a mid-run crash/restart — and still produce exactly the fault-free
// program output, install every object exactly once, and emit a
// byte-identical event log for the same seed.

package kernel

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/ir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

func kilroySrc(t testing.TB) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "kilroy.em"))
	if err != nil {
		t.Fatalf("reading kilroy demo: %v", err)
	}
	return string(b)
}

func chaosConfig(plan *chaos.Plan) Config {
	cfg := Config{Chaos: plan}
	return cfg
}

// TestChaosKilroyIdentical is the headline acceptance test: kilroy under a
// plan with >5% drop, duplicates, delays, corruption and a crash/restart
// in the middle of the tour must print exactly what the fault-free run
// prints, and two runs with the same seed must produce byte-identical
// event logs.
func TestChaosKilroyIdentical(t *testing.T) {
	src := kilroySrc(t)
	models := []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}

	base := runSrc(t, src, models, Config{})
	baseOut := base.OutputText()
	elapsed := base.Sim.Now()

	plan := func() *chaos.Plan {
		return &chaos.Plan{
			Seed:    7,
			Drop:    0.06,
			Dup:     0.04,
			Delay:   0.05,
			Corrupt: 0.03,
			// Crash a mid-tour node a third of the way through the
			// fault-free schedule and bring it back well inside the
			// suspicion timeout, so the protocol recovers by
			// retransmission rather than degradation.
			Crashes: []chaos.Crash{{Node: 2, At: elapsed / 3, RestartAt: elapsed/3 + 80_000}},
		}
	}

	c1 := runSrc(t, src, models, chaosConfig(plan()))
	if got := c1.OutputText(); got != baseOut {
		t.Fatalf("chaos run output differs from fault-free run:\nfault-free:\n%s\nchaos:\n%s", baseOut, got)
	}

	// The plan must actually have bitten: injected faults and recovery
	// actions should both be present, or the test proves nothing.
	counts := map[obs.Kind]int{}
	for _, e := range c1.Rec.Events() {
		counts[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.EvFaultInject, obs.EvRetransmit, obs.EvNodeCrash, obs.EvNodeRestart} {
		if counts[k] == 0 {
			t.Errorf("expected at least one %v event under the fault plan", k)
		}
	}

	c2 := runSrc(t, src, models, chaosConfig(plan()))
	log1, log2 := obs.EventLog(c1.Rec), obs.EventLog(c2.Rec)
	if !bytes.Equal(log1, log2) {
		t.Errorf("same seed produced different event logs (%d vs %d bytes)", len(log1), len(log2))
	}
}

const probeSrc = `
object Probe
  operation ping() -> (r: String)
    r <- str(thisnode())
  end
end Probe

object Main
  process
    var p: Probe <- new Probe
    move p to node(1)
    print(p.ping())
  end process
end Main
`

// TestRetryPendingMovesAfterRecovery parks a move behind a crashed
// destination: node 1 is down from boot, so the Move cannot be delivered,
// the commit window expires once the destination is suspected, the move
// aborts and requeues, and the retry — scheduled after the destination's
// restart — completes it exactly once (one commit, and Run's residency
// check puts the probe on node 1 alone).
func TestRetryPendingMovesAfterRecovery(t *testing.T) {
	plan := &chaos.Plan{
		Seed:           1,
		Crashes:        []chaos.Crash{{Node: 1, At: 1, RestartAt: 150_000}},
		HeartbeatEvery: 10_000,
		SuspectAfter:   35_000,
		CommitTimeout:  25_000,
		RTOBase:        5_000,
		RTOMax:         20_000,
		MaxRetrans:     3,
		MoveRetry:      150_000,
	}
	c := runSrc(t, probeSrc, []netsim.MachineModel{mSun3, mSPARC}, chaosConfig(plan))

	// The parked call replays on abort, so ping answers locally (node 0).
	if got := c.OutputText(); got != "node0" {
		t.Fatalf("output = %q, want %q", got, "node0")
	}
	var aborts, commits int
	for _, e := range c.Rec.Events() {
		switch e.Kind {
		case obs.EvMoveAbort:
			aborts++
		case obs.EvMoveCommit:
			commits++
		}
	}
	if aborts == 0 {
		t.Error("expected the first move attempt to abort while node 1 was down")
	}
	if commits != 1 {
		t.Errorf("move commits = %d, want exactly 1 (the post-recovery retry)", commits)
	}
}

const deadNodeSrc = `
object Probe
  operation ping() -> (r: String)
    r <- str(thisnode())
  end
end Probe

object Main
  process
    var p: Probe <- new Probe
    move p to node(1)
    print(p.ping())
    var i: Int <- 0
    while i < 2500000 do
      i <- i + 1
    end
    print(p.ping())
  end process
end Main
`

// TestNodeDownFaultTyped kills the destination for good: the in-flight
// remote invocation must fail with a typed ErrNodeDown fault instead of
// hanging the simulation.
func TestNodeDownFaultTyped(t *testing.T) {
	// The crash lands deep inside the spin loop, long after the first
	// ping's round trip.
	plan := &chaos.Plan{
		Seed:           1,
		Crashes:        []chaos.Crash{{Node: 1, At: 250_000}}, // never restarts
		HeartbeatEvery: 20_000,
		SuspectAfter:   100_000,
		CommitTimeout:  60_000,
		RTOBase:        20_000,
		RTOMax:         80_000,
		MaxRetrans:     5,
	}
	p := compileSrc(t, deadNodeSrc)
	c, err := NewCluster(p, []netsim.MachineModel{mSPARC, mSPARC}, chaosConfig(plan))
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	c.Start(nil)
	if err := c.Run(5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The first ping reached node 1 before the crash.
	if got := c.OutputText(); got != "node1" {
		t.Fatalf("output = %q, want %q (first ping answered, second faulted)", got, "node1")
	}
	if len(c.Faults) == 0 {
		t.Fatal("expected a typed node-down fault, got none")
	}
	f := c.Faults[0]
	if !errors.Is(f.Err, ErrNodeDown) {
		t.Errorf("fault error = %v, want ErrNodeDown (msg %q)", f.Err, f.Msg)
	}
}

// TestRecvMoveDuplicateSuppressed re-delivers the same Move span twice:
// the second delivery must be dropped (and re-acked), not re-installed.
func TestRecvMoveDuplicateSuppressed(t *testing.T) {
	c := runSrc(t, probeSrc, []netsim.MachineModel{mSun3, mSPARC},
		chaosConfig(&chaos.Plan{Seed: 1}))
	n1 := c.Nodes[1]
	mv := &wire.Move{
		Object: oid.ForRuntime(0, 999), IsArray: true,
		ArrayElemKind: byte(ir.VKInt), Epoch: 1,
		Data:   []wire.Value{wire.IntV(4), wire.IntV(9)},
		SpanID: 424242,
	}
	n1.recvMove(0, mv)
	if o, ok := n1.objects[mv.Object]; !ok || !o.Resident {
		t.Fatal("first delivery did not install the array")
	}
	addr := n1.objects[mv.Object].Addr

	n1.recvMove(0, mv) // duplicate span: must be suppressed
	if got := n1.objects[mv.Object].Addr; got != addr {
		t.Errorf("duplicate Move re-installed the object (addr %#x -> %#x)", addr, got)
	}
	var dups int
	for _, e := range c.Rec.Events() {
		if e.Kind == obs.EvMoveDupDrop && e.Span == mv.SpanID {
			dups++
		}
	}
	if dups != 1 {
		t.Errorf("move-dup-drop events = %d, want 1", dups)
	}
}

// TestValidateMoveRejects feeds structurally bad Moves to recvMove: each
// must be refused with a negative MoveAck (the metric counts rejects) and
// never installed or panicked on.
func TestValidateMoveRejects(t *testing.T) {
	c := runSrc(t, probeSrc, []netsim.MachineModel{mSun3, mSPARC},
		chaosConfig(&chaos.Plan{Seed: 1}))
	n1 := c.Nodes[1]
	bad := []*wire.Move{
		// Hint naming a node outside the cluster.
		{Object: oid.ForRuntime(0, 800), IsArray: true, ArrayElemKind: byte(ir.VKInt),
			Data:   []wire.Value{wire.IntV(1)},
			Hints:  []wire.LocHint{{OID: oid.ForRuntime(0, 801), Node: 99}},
			SpanID: 910_001},
		// Array with an element kind beyond the VK range.
		{Object: oid.ForRuntime(0, 802), IsArray: true, ArrayElemKind: 200,
			Data: []wire.Value{wire.IntV(1)}, SpanID: 910_002},
		// Array claiming thread state.
		{Object: oid.ForRuntime(0, 803), IsArray: true, ArrayElemKind: byte(ir.VKInt),
			Data:   []wire.Value{wire.IntV(1)},
			Frags:  []wire.Fragment{{FragID: 1}},
			SpanID: 910_003},
	}
	// A fragment status past the last.
	probe := statusMove(t, n1, "Probe", wire.FragBlockedEntry+1)
	probe.SpanID = 910_004
	bad = append(bad, probe)
	for _, mv := range bad {
		n1.recvMove(0, mv)
		if o, ok := n1.objects[mv.Object]; ok && o.Resident {
			t.Errorf("malformed Move (span %d) was installed", mv.SpanID)
		}
		if n1.seenSpans[mv.SpanID] {
			t.Errorf("rejected span %d was marked seen; a corrected retry would be dropped", mv.SpanID)
		}
	}

	// Every status a move ships passes: runnable, waiting on a condition,
	// blocked in a call, queued at the monitor's entry.
	g := runSrc(t, `
object Gate
  monitor
    var open: Bool <- false
    var opened: Condition
    operation pass()
      while !open do
        wait opened
      end
    end
  end monitor
end Gate
object Main
  process
    var g: Gate <- new Gate
    print(g == nil)
  end process
end Main
`, []netsim.MachineModel{mSun3, mSPARC}, chaosConfig(&chaos.Plan{Seed: 1}))
	for st := wire.FragRunnable; st <= wire.FragBlockedEntry; st++ {
		if err := g.Nodes[0].validateMove(statusMove(t, g.Nodes[0], "Gate", st)); err != nil {
			t.Errorf("a %v fragment was refused: %v", st, err)
		}
	}
}

// statusMove builds a Move of a fresh object of n's loaded code name that
// ships one fragment of the given status, its top at the entry of the
// code's first operation.
func statusMove(t *testing.T, n *Node, name string, st wire.FragStatus) *wire.Move {
	t.Helper()
	for _, lc := range n.codeByOID {
		if lc.oc.Name != name {
			continue
		}
		return &wire.Move{Object: oid.ForRuntime(0, 900), CodeOID: lc.oc.CodeOID,
			Data: make([]wire.Value, len(lc.oc.Template.Slots)),
			Frags: []wire.Fragment{{FragID: 1, Status: st, Executing: true,
				Acts: []wire.MIActivation{{CodeOID: lc.oc.CodeOID, Stop: wire.EntryStop}}}}}
	}
	t.Fatalf("node %d has no code %s", n.ID, name)
	return nil
}

// TestChaosAggressiveDupSmoke is the pooled-buffer-lifetime regression
// test: with every other frame duplicated (plus corruption to force CRC
// retransmissions) many primary/duplicate pairs are in flight through the
// delivery-buffer pool at once. If a duplicate ever aliased its primary's
// pooled buffer, the first delivery's release would recycle bytes still in
// flight and the tour would decode garbage. Run under -race (make ci) this
// also checks the buffer paths for data races.
func TestChaosAggressiveDupSmoke(t *testing.T) {
	src := kilroySrc(t)
	models := []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}
	base := runSrc(t, src, models, Config{})

	plan := func() *chaos.Plan {
		return &chaos.Plan{Seed: 11, Dup: 0.5, Corrupt: 0.05}
	}
	c1 := runSrc(t, src, models, chaosConfig(plan()))
	if got := c1.OutputText(); got != base.OutputText() {
		t.Fatalf("aggressive-dup run output differs from fault-free run:\nfault-free:\n%s\nchaos:\n%s",
			base.OutputText(), got)
	}
	if dups := c1.Rec.Metrics().Counter("chaos_injected", "kind=dup"); dups < 10 {
		t.Errorf("only %d duplicates injected; smoke is not aggressive", dups)
	}
	c2 := runSrc(t, src, models, chaosConfig(plan()))
	if !bytes.Equal(obs.EventLog(c1.Rec), obs.EventLog(c2.Rec)) {
		t.Error("same seed produced different event logs under aggressive duplication")
	}
}
