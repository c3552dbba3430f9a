package kernel

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/netsim"
)

// TestCodeLoadedOncePerNode: the NFS-illusion repository serves each
// (code OID, architecture) at most once per node; subsequent arrivals of
// the same class reuse the loaded code.
func TestCodeLoadedOncePerNode(t *testing.T) {
	c := runSrc(t, `
object Box
  var v: Int
  function get() -> (r: Int)
    r <- v
  end
end Box
object Main
  process
    var sum: Int <- 0
    var i: Int <- 0
    while i < 5 do
      var b: Box <- new Box(i)
      move b to node(1)
      sum <- sum + b.get()
      i <- i + 1
    end
    print(sum)
  end process
end Main
`, []netsim.MachineModel{mSPARC, mVAX}, Config{})
	if got := c.OutputText(); got != "10" {
		t.Fatalf("output = %q", got)
	}
	// Fetches: node0 loads Box+Main (+their per-arch entries are one fetch
	// each); node1 loads Box once despite five arrivals.
	if f := c.CodeSrv.Fetches(); f > 3 {
		t.Errorf("code fetched %d times; repeated moves must reuse loaded code", f)
	}
}

// TestMessageEconomy: one remote invocation costs exactly one Invoke plus
// one Return.
func TestMessageEconomy(t *testing.T) {
	c := runSrc(t, `
object Echo
  operation ping(x: Int) -> (r: Int)
    r <- x + 1
  end
end Echo
object Main
  process
    var e: Echo <- new Echo
    move e to node(1)
    print(e.ping(1))
    print(e.ping(2))
    print(e.ping(3))
  end process
end Main
`, []netsim.MachineModel{mSPARC, mSun3}, Config{})
	if got := c.OutputText(); got != "2\n3\n4" {
		t.Fatalf("output = %q", got)
	}
	// 1 Move + 3×(Invoke+Return) = 7 messages.
	total := c.Nodes[0].MsgsSent + c.Nodes[1].MsgsSent
	if total != 7 {
		t.Errorf("messages = %d, want 7 (1 move + 3 invoke/return pairs)", total)
	}
}

// TestHintsAvoidExtraTraffic: passing a reference to a third object in a
// remote invocation ships a location hint, so the receiver can invoke it
// directly without a broadcast or extra hop.
func TestHintsAvoidExtraTraffic(t *testing.T) {
	c := runSrc(t, `
object Data
  var v: Int
  function get() -> (r: Int)
    r <- v
  end
end Data
object Reader
  operation read(d: Data) -> (r: Int)
    r <- d.get()
  end
end Reader
object Main
  process
    var d: Data <- new Data(99)
    var rd: Reader <- new Reader
    move rd to node(1)
    // rd receives a reference to d (still on node 0) plus a hint; its
    // callback lands directly on node 0.
    print(rd.read(d))
  end process
end Main
`, []netsim.MachineModel{mSPARC, mHP1}, Config{})
	if got := c.OutputText(); got != "99" {
		t.Fatalf("output = %q", got)
	}
	// Move + Invoke(read) + Invoke(get) + Return(get) + Return(read) = 5.
	total := c.Nodes[0].MsgsSent + c.Nodes[1].MsgsSent
	if total != 5 {
		t.Errorf("messages = %d, want 5 (hints should avoid locate traffic)", total)
	}
}

// TestForwardingConvergence: after a chain of moves, a stale caller's
// invocation is forwarded along forwarding addresses and the caller's
// knowledge converges (UpdateLoc), so the next call goes direct.
func TestForwardingConvergence(t *testing.T) {
	c := runSrc(t, `
object Target
  var hits: Int <- 0
  operation hit() -> (r: Int)
    hits <- hits + 1
    r <- hits
  end
end Target
object Main
  process
    var o: Target <- new Target
    move o to node(1)
    move o to node(2)
    move o to node(3)
    print(o.hit())
    print(o.hit())
    print(locate(o))
  end process
end Main
`, []netsim.MachineModel{mSPARC, mVAX, mSun3, mHP1}, Config{})
	got := c.PrintedLines()
	if len(got) != 3 || got[0] != "1" || got[1] != "2" || got[2] != "node3" {
		t.Fatalf("output = %v", got)
	}
	// The second hit must not be forwarded: node0 learned the location from
	// the first call's UpdateLoc chain. Expect node3 to have received
	// exactly: 1 Move + 2 Invokes (+1 possible Locate).
	if c.Nodes[3].MsgsRecv > 4 {
		t.Errorf("node3 received %d messages; forwarding did not converge", c.Nodes[3].MsgsRecv)
	}
}

// TestWirePayloadIsNetworkFormat: everything that crosses the simulated
// wire is real serialized bytes; payload counters must match non-trivial
// traffic for a migration-heavy run.
func TestWirePayloadIsNetworkFormat(t *testing.T) {
	c := runSrc(t, threadMoveSrc, []netsim.MachineModel{mVAX, mSun3, mSPARC}, Config{})
	if c.Net.PayloadLen == 0 || c.Net.Frames == 0 {
		t.Fatal("no wire traffic recorded")
	}
	if c.Net.Bytes <= c.Net.PayloadLen {
		t.Error("framing overhead missing")
	}
}

// TestSliceBudgetPreemption: a long-running compute loop cannot starve
// other threads on the node — the poll/preempt mechanism interleaves them.
func TestSliceBudgetPreemption(t *testing.T) {
	c := runSrc(t, `
object Spinner
  process
    var i: Int <- 0
    while i < 200000 do
      i <- i + 1
    end
    print("spinner done")
  end process
end Spinner
object Main
  process
    var s: Spinner <- new Spinner
    print("main alive ", s == nil)
    yield()
    print("main again")
  end process
end Main
`, []netsim.MachineModel{mSPARC}, Config{})
	got := c.PrintedLines()
	if len(got) != 3 {
		t.Fatalf("output = %v", got)
	}
	// Main's lines must appear before the spinner finishes.
	if got[0] != "main alive false" || got[1] != "main again" || got[2] != "spinner done" {
		t.Errorf("interleaving wrong: %v", got)
	}
}

// TestRunawayLoopFaults: an expired slice only asks for a yield at the
// next poll, so a loop compiled without polls (OmitLoopPolls) never
// yields. The executor gives up arch.RunawayInstrs instructions past the
// budget and the kernel records an internal fault instead of hanging the
// host; the other thread on the node still finishes. Both tiers stop at
// the same instruction: the fused runner checks the bound once per run,
// so a run that would cross it runs only up to it.
func TestRunawayLoopFaults(t *testing.T) {
	prog := compileSrcWith(t, `
object Spinner
  process
    var i: Int <- 0
    while true do
      i <- i + 1
    end
  end process
end Spinner
object Main
  process
    var s: Spinner <- new Spinner
    print("main done ", s == nil)
  end process
end Main
`, codegen.Options{OmitLoopPolls: true})
	type outcome struct {
		instrs, cycles uint64
		clock          netsim.Micros
	}
	var got [2]outcome
	for i, legacy := range []bool{false, true} {
		c, err := NewCluster(prog, []netsim.MachineModel{mSPARC}, Config{SliceInstrs: 1, LegacyDispatch: legacy})
		if err != nil {
			t.Fatal(err)
		}
		c.Start(nil)
		if err := c.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if got := c.OutputText(); got != "main done false" {
			t.Errorf("legacy=%v: output = %q", legacy, got)
		}
		want := "internal: " + arch.ErrRunaway.Error()
		if len(c.Faults) != 1 || c.Faults[0].Msg != want {
			t.Fatalf("legacy=%v: faults = %+v, want one %q", legacy, c.Faults, want)
		}
		if n := c.Nodes[0].Instrs; n < arch.RunawayInstrs {
			t.Errorf("legacy=%v: faulted after %d instructions, before the runaway bound %d", legacy, n, arch.RunawayInstrs)
		}
		got[i] = outcome{c.Nodes[0].Instrs, c.Nodes[0].CPU.Cycles, c.Sim.Now()}
	}
	if got[0] != got[1] {
		t.Errorf("fused %+v, legacy %+v: the tiers stopped at different instructions", got[0], got[1])
	}
}
