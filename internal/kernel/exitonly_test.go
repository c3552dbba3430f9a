package kernel

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/netsim"
)

// exitOnlySrc: a Worker calls the monitored Counter.inc rounds times while
// Main, after yields turns of the scheduler, runs moves. On the VAX, inc's
// monitor exit is one unlq, whose bus stop is exit-only (PAPER.md §1.4);
// on SPARC and M68K it is a monexit trap and a scheduling point. spin
// iterations inside the monitor give a tiny slice polls to yield at there.
func exitOnlySrc(rounds, spin, yields int, moves string) string {
	return fmt.Sprintf(`
object Counter
  monitor
    var n: Int <- 0
    operation inc() -> (r: Int)
      var j: Int <- 0
      while j < %d do
        j <- j + 1
      end
      n <- n + 1
      r <- n
    end
  end monitor
end Counter
object Worker
  var c: Counter
  process
    var i: Int <- 0
    var s: Int <- 0
    while i < %d do
      s <- s + c.inc()
      i <- i + 1
    end
    print("sum ", s)
  end process
end Worker
object Main
  var c: Counter
  initially
    c <- new Counter
  end initially
  process
    var w: Worker <- new Worker(c)
    var k: Int <- 0
    while k < %d do
      yield()
      k <- k + 1
    end
    %s
  end process
end Main
`, spin, rounds, yields, moves)
}

// runObserving runs c to completion one event at a time and calls look
// between events, when no thread is executing: every thread it sees is
// parked where the kernel left it.
func runObserving(t *testing.T, c *Cluster, look func(n *Node, f *Frag)) {
	t.Helper()
	c.Start(nil)
	for i := 0; ; i++ {
		if i == 5_000_000 {
			t.Fatalf("event budget exhausted\noutput so far:\n%s", c.OutputText())
		}
		done := c.Sim.Run(1) == nil // an error: one event ran, more are due
		for _, n := range c.Nodes {
			for _, f := range n.frags {
				if f.fn != nil && f.CPU.PC != 0 {
					look(n, f)
				}
			}
		}
		if done {
			break
		}
	}
	if v := c.CheckInvariants(); v != nil {
		t.Fatal(v)
	}
	for _, f := range c.Faults {
		t.Fatalf("fault: node%d frag%08x: %s", f.Node, f.Frag, f.Msg)
	}
}

// atExitOnlyStop reports whether f is parked at an exit-only bus stop.
func atExitOnlyStop(f *Frag) bool {
	s, err := f.fn.fc.Stops.ByPCAny(f.CPU.PC)
	return err == nil && s.ExitOnly
}

// TestExitOnlyStopMigration migrates threads through the VAX unlq monitor
// exit, the one stop a thread may arrive at but never leave from.
func TestExitOnlyStopMigration(t *testing.T) {
	const want = "sum 78" // 1 + 2 + … + 12
	single := runSrc(t, exitOnlySrc(12, 0, 0, ""), []netsim.MachineModel{mSPARC}, Config{})
	if got := single.OutputText(); got != want {
		t.Fatalf("single-node run printed %q, want %q", got, want)
	}

	// (a) A thread parked at the SPARC or M68K monexit trap — a
	// scheduling point — moves with its object to a VAX and is installed
	// there at the exit-only stop, by number. Sweeping how long Main
	// yields before the move lands it on every stop the Worker parks at.
	for _, from := range []struct {
		name string
		m    netsim.MachineModel
	}{{"sparc", mSPARC}, {"m68k", mSun3}} {
		t.Run(from.name+"-to-vax", func(t *testing.T) {
			arrivals := 0
			for yields := 0; yields < 8; yields++ {
				c, err := NewCluster(compileSrc(t, exitOnlySrc(12, 0, yields, "move c to node(1)")),
					[]netsim.MachineModel{from.m, mVAX}, Config{})
				if err != nil {
					t.Fatal(err)
				}
				arrived := false
				runObserving(t, c, func(n *Node, f *Frag) {
					if atExitOnlyStop(f) {
						if n.Spec.ID != arch.VAX {
							t.Fatalf("node%d (%s) parks frag%08x at an exit-only stop", n.ID, n.Spec.Name, f.ID)
						}
						arrived = true
					}
				})
				if arrived {
					arrivals++
				}
				if got := c.OutputText(); got != want {
					t.Errorf("yields=%d: printed %q, want %q", yields, got, want)
				}
			}
			if arrivals == 0 {
				t.Error("no thread arrived at the VAX exit-only stop; the sweep is vacuous")
			}
		})
	}

	// (b) On VAXes under a one-instruction slice the Worker crosses unlq
	// every round — after yielding inside the monitor, where the moves
	// catch it — while Main moves the counter back and forth. The kernel
	// resumes a thread straight through unlq, so no thread is ever parked,
	// hence walked, at the exit-only stop.
	t.Run("vax-tiny-slice", func(t *testing.T) {
		moves := ""
		for i := 0; i < 6; i++ {
			moves += fmt.Sprintf("move c to node(%d)\n    yield()\n    ", 1-i%2)
		}
		c, err := NewCluster(compileSrc(t, exitOnlySrc(12, 3, 2, moves)),
			[]netsim.MachineModel{mVAX, mVAX}, Config{SliceInstrs: 1})
		if err != nil {
			t.Fatal(err)
		}
		runObserving(t, c, func(n *Node, f *Frag) {
			if atExitOnlyStop(f) {
				t.Fatalf("node%d parks frag%08x at the exit-only stop %#x", n.ID, f.ID, f.CPU.PC)
			}
		})
		if got := c.OutputText(); got != want {
			t.Errorf("printed %q, want %q", got, want)
		}
		migrations := uint64(0)
		for _, n := range c.Nodes {
			migrations += n.Migrations
		}
		if migrations == 0 {
			t.Error("the counter never moved; the test is vacuous")
		}
	})
}
