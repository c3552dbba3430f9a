package kernel

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
)

// churnSrc: several worker threads hammer a monitored counter inside object
// X while the coordinator keeps moving X around a heterogeneous network.
// Every interleaving forces migrations at different bus stops — calls,
// loop bottoms, monitor entry/exit, condition waits — and the final count
// must still be exact.
func churnSrc(workers, increments, moves int) string {
	return fmt.Sprintf(`
object Tally
  monitor
    var count: Int <- 0
    var closed: Bool <- false
    var done: Condition
    operation bump() -> (r: Int)
      count <- count + 1
      r <- count
    end
    operation finish()
      closed <- true
      signal done
    end
    operation result() -> (r: Int)
      while !closed do
        wait done
      end
      r <- count
    end
  end monitor
end Tally
object Worker
  var t: Tally
  var n: Int
  var last: Int <- 0
  process
    var i: Int <- 0
    while i < n do
      last <- t.bump()
      i <- i + 1
    end
  end process
end Worker
object Closer
  var t: Tally
  var expect: Int
  process
    // Busy-wait until all increments have landed, then close.
    loop
      var v: Int <- t.bump()
      exit when v > expect
      yield()
    end
    t.finish()
  end process
end Closer
object Main
  var t: Tally
  initially
    t <- new Tally
  end initially
  process
    var w: Int <- 0
    while w < %d do
      var wk: Worker <- new Worker(t, %d)
      w <- w + 1
    end
    var c: Closer <- new Closer(t, %d * %d)
    var m: Int <- 0
    while m < %d do
      move t to node((m + 1) %% nodes())
      var k: Int <- 0
      while k < 3 do
        yield()
        k <- k + 1
      end
      m <- m + 1
    end
    print("final=", t.result(), " c=", c == nil)
  end process
end Main
`, workers, increments, workers, increments, moves)
}

func TestMigrationChurnUnderMonitorLoad(t *testing.T) {
	configs := []struct {
		name   string
		models []netsim.MachineModel
	}{
		{"hetero3", []netsim.MachineModel{mSPARC, mVAX, mSun3}},
		{"hetero4", []netsim.MachineModel{mVAX, mSun3, mHP1, mSPARC}},
		{"homog", []netsim.MachineModel{mSPARC, mSPARC, mSPARC}},
	}
	const workers, increments, moves = 3, 40, 12
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			c := runSrc(t, churnSrc(workers, increments, moves), tc.models, Config{})
			got := c.OutputText()
			// The Closer's own bumps push the count past workers*increments;
			// the exact final value depends on scheduling but must be at
			// least the worker total plus the closing bump, and the run must
			// terminate without faults (checked by runSrc).
			var final int
			var cnil string
			if _, err := fmt.Sscanf(got, "final=%d c=%s", &final, &cnil); err != nil {
				t.Fatalf("output %q: %v", got, err)
			}
			if final < workers*increments+1 {
				t.Errorf("lost increments: final=%d want >= %d", final, workers*increments+1)
			}
			if cnil != "false" {
				t.Errorf("closer ref corrupted: %q", got)
			}
			migrations := uint64(0)
			for _, n := range c.Nodes {
				migrations += n.Migrations
			}
			// Some requested moves are no-ops (the object already sits on
			// the destination when the request lands), so require at least
			// half of them to be real migrations.
			if migrations < moves/2 {
				t.Errorf("only %d migrations happened (wanted >= %d)", migrations, moves/2)
			}
		})
	}
}

func TestChurnDeterministic(t *testing.T) {
	models := []netsim.MachineModel{mSPARC, mVAX, mSun3}
	src := churnSrc(2, 25, 8)
	a := runSrc(t, src, models, Config{})
	b := runSrc(t, src, models, Config{})
	if a.OutputText() != b.OutputText() || a.Sim.Now() != b.Sim.Now() {
		t.Errorf("nondeterminism: %q@%d vs %q@%d",
			a.OutputText(), a.Sim.Now(), b.OutputText(), b.Sim.Now())
	}
}

func TestFreshEntryFrameMigrates(t *testing.T) {
	// A frame pushed but never executed (Ready at PC 0) migrates with its
	// object: Mover runs between the invocation's frame push and its first
	// instruction thanks to the scheduler's FIFO order.
	c := runSrc(t, `
object X
  var v: Int <- 5
  operation op() -> (r: Int)
    r <- v + 100
  end
end X
object Pusher
  var x: X
  process
    print("got ", x.op())
  end process
end Pusher
object Mover
  var x: X
  process
    move x to node(1)
  end process
end Mover
object Main
  process
    var x: X <- new X
    var p: Pusher <- new Pusher(x)
    var m: Mover <- new Mover(x)
    print(p == m)
  end process
end Main
`, []netsim.MachineModel{mSun3, mVAX}, Config{})
	lines := c.PrintedLines()
	found := false
	for _, l := range lines {
		if l == "got 105" {
			found = true
		}
	}
	if !found {
		t.Errorf("output = %v", lines)
	}
}

func TestManyObjectsManyMoves(t *testing.T) {
	// A swarm of independent objects each tours the network; object tables,
	// proxies and forwarding must stay consistent.
	c := runSrc(t, `
object Bee
  var id: Int
  var hops: Int <- 0
  operation tour() -> (r: Int)
    var i: Int <- 0
    while i < 6 do
      move self to node((id + i) % nodes())
      hops <- hops + 1
      i <- i + 1
    end
    r <- hops * 100 + id
  end
end Bee
object Main
  process
    var bees: Array[Bee] <- new Array[Bee](6)
    var i: Int <- 0
    while i < 6 do
      bees[i] <- new Bee(i)
      i <- i + 1
    end
    i <- 0
    var total: Int <- 0
    while i < 6 do
      total <- total + bees[i].tour()
      i <- i + 1
    end
    print(total)
  end process
end Main
`, []netsim.MachineModel{mSPARC, mVAX, mSun3, mHP1}, Config{})
	// Each bee: 6 hops -> 600 + id; sum = 6*600 + 0+1+..+5 = 3615.
	if got := c.OutputText(); got != "3615" {
		t.Errorf("output = %q, want 3615", got)
	}
}

func TestRemoteFaultPropagates(t *testing.T) {
	p := compileSrc(t, `
object Bomb
  operation boom(x: Int) -> (r: Int)
    r <- 10 / x
  end
end Bomb
object Main
  process
    var b: Bomb <- new Bomb
    move b to node(1)
    print(b.boom(0))
  end process
end Main
`)
	c, err := NewCluster(p, []netsim.MachineModel{mSPARC, mVAX}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(nil)
	if err := c.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	// Both the serving thread (node1) and the caller (node0) die with the
	// fault; no output is produced and nothing deadlocks silently.
	if len(c.Faults) < 2 {
		t.Fatalf("faults = %v", c.Faults)
	}
	if len(c.Output) != 0 {
		t.Errorf("output = %v", c.PrintedLines())
	}
}

func TestMoveSelfDuringInitiallyIsDeferred(t *testing.T) {
	// An object that moves itself from its own `initially` block: the
	// creation chain (kernel continuations) pins the activations, so the
	// move is deferred until creation completes, then performed.
	c := runSrc(t, `
object Wanderer
  var home: Node
  initially
    move self to node(1)
    home <- thisnode()
  end initially
  function report() -> (r: String)
    r <- "created on " + str(home) + ", lives on " + str(locate(self))
  end
end Wanderer
object Main
  process
    var w: Wanderer <- new Wanderer
    print(w.report())
  end process
end Main
`, []netsim.MachineModel{mSPARC, mVAX}, Config{})
	// The move is deferred past `initially`, so `home` records node0 and
	// the object ends up on node1 afterwards.
	if got := c.OutputText(); got != "created on node0, lives on node1" {
		t.Errorf("output = %q", got)
	}
}

func TestMoveByOtherThreadDuringCreationIsDeferred(t *testing.T) {
	// Another thread moves an object whose `initially` is still running
	// (it blocks on a monitor inside): the migration must wait for the
	// creation chain instead of tearing it apart.
	c := runSrc(t, `
object Gate
  monitor
    var open: Bool <- false
    var opened: Condition
    operation enter()
      while !open do
        wait opened
      end
    end
    operation unlock()
      open <- true
      signal opened
    end
  end monitor
end Gate
object Holder
  var item: Slow
  operation put(x: Slow)
    item <- x
  end
  function get() -> (r: Slow)
    r <- item
  end
end Holder
object Slow
  var g: Gate
  var h: Holder
  var ok: Bool <- false
  initially
    h.put(self)   // escape mid-creation so the mover can target us
    g.enter()     // block inside initially until the mover unlocks
    ok <- true
  end initially
  function done() -> (r: Bool)
    r <- ok
  end
end Slow
object Mover
  var g: Gate
  var h: Holder
  process
    var victim: Slow <- h.get()
    while victim == nil do
      yield()
      victim <- h.get()
    end
    // Creation of victim is still blocked on the gate: this move must be
    // deferred, not tear the creation chain apart.
    move victim to node(1)
    g.unlock()
  end process
end Mover
object Main
  var g: Gate
  var h: Holder
  initially
    g <- new Gate
    h <- new Holder(nil)
  end initially
  process
    var m: Mover <- new Mover(g, h)
    var s: Slow <- new Slow(g, h)
    print(s.done(), " ", locate(s), " ", m == nil)
  end process
end Main
`, []netsim.MachineModel{mSPARC, mSun3}, Config{})
	got := c.OutputText()
	if got != "true node1 false" {
		t.Errorf("output = %q, want creation completed then move", got)
	}
}
