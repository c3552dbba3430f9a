package kernel

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// deepThenShallowSrc recurses to depth 200 (dirtying some tens of KB of the
// process fragment's stack region), returns, and exits.
const deepThenShallowSrc = `
object Main
  function down(d: Int) -> (r: Int)
    var a: Int <- d * 3
    var b: Int <- d + 7
    if d == 0 then
      r <- a + b
    else
      r <- down(d - 1) + a - b
    end
  end
  process
    print(down(200))
  end process
end Main
`

// A region that was used deep and then retired must come back all-zero:
// the partial clear (up to the recorded extent) has to equal the full one.
func TestStackRegionReusedAfterDeepRecursionReadsZero(t *testing.T) {
	for _, m := range []netsim.MachineModel{mVAX, mSun3, mSPARC} {
		c := runSrc(t, deepThenShallowSrc, []netsim.MachineModel{m}, Config{})
		n := c.Nodes[0]
		free := n.freeLists[stackSize]
		if len(free) == 0 {
			t.Fatalf("%s: no retired stack region", m.Name)
		}
		top := free[len(free)-1]
		if top.dirty < 200*16 || top.dirty >= stackSize {
			t.Fatalf("%s: retired region's extent = %d bytes; want a deep but partial one", m.Name, top.dirty)
		}
		if bytes.Count(n.Mem[top.addr:top.addr+top.dirty], []byte{0}) == int(top.dirty) {
			t.Fatalf("%s: retired region holds no stale records; the test proves nothing", m.Name)
		}
		f := n.newFrag()
		if f.stackBase != top.addr {
			t.Fatalf("%s: new fragment got region %#x, want the retired %#x (LIFO reuse)", m.Name, f.stackBase, top.addr)
		}
		for a := f.stackBase; a < f.stackLimit; a++ {
			if n.Mem[a] != 0 {
				t.Fatalf("%s: reused region not zero at %#x (base %#x, old extent %d)", m.Name, a, f.stackBase, top.dirty)
			}
		}
		if f.stackHi != f.stackBase {
			t.Errorf("%s: fresh fragment's extent = %d, want 0", m.Name, f.stackHi-f.stackBase)
		}
	}
}

// The same through a fault: the deep fragment dies mid-recursion, with all
// its records still on the stack.
func TestStackRegionReusedAfterFaultReadsZero(t *testing.T) {
	src := strings.Replace(deepThenShallowSrc, "r <- a + b", "var nowhere: Node <- node(99)", 1)
	c := runFaulty(t, src, []netsim.MachineModel{mSPARC}, Config{})
	if len(c.Faults) != 1 {
		t.Fatalf("faults = %+v, want the one out-of-range node()", c.Faults)
	}
	n := c.Nodes[0]
	f := n.newFrag()
	for a := f.stackBase; a < f.stackLimit; a++ {
		if n.Mem[a] != 0 {
			t.Fatalf("reused region not zero at %#x (base %#x)", a, f.stackBase)
		}
	}
}

// Steady-state fragment churn allocates the Frag and nothing else: the
// region comes off the free list, its extent rides beside its address.
func TestFragChurnAllocatesOnlyTheFrag(t *testing.T) {
	c := runSrc(t, deepThenShallowSrc, []netsim.MachineModel{mSPARC}, Config{})
	n := c.Nodes[0]
	if got := testing.AllocsPerRun(500, func() { n.killFrag(n.newFrag()) }); got != 1 {
		t.Errorf("newFrag+killFrag = %v allocs/run, want 1 (the Frag)", got)
	}
}

// gcChurnSrc allocates garbage of a few recurring sizes until a small heap
// overflows several times; what survives is written after the collections,
// into blocks the sweep put on the free lists.
const gcChurnSrc = `
object Main
  process
    var keep: Array[String] <- new Array[String](8)
    var i: Int <- 0
    while i < 4000 do
      var s: String <- "garbage " + str(i)
      var a: Array[Int] <- new Array[Int](8 + i % 3)
      a[0] <- s.size()
      keep[i % 8] <- s
      i <- i + 1
    end
    print(keep[7])
  end process
end Main
`

// The collector's sweep feeds the free lists, so its order decides every
// later allocation address: it must follow the object table, not Go's map
// iteration order.
func TestGCSweepOrderDeterministic(t *testing.T) {
	cfg := Config{MemBytes: 192 << 10}
	var firstMem, firstLog []byte
	for run := 0; run < 5; run++ {
		c := runSrc(t, gcChurnSrc, []netsim.MachineModel{mSPARC}, cfg)
		if got := c.OutputText(); got != "garbage 3999" {
			t.Fatalf("output = %q", got)
		}
		cycles := c.Rec.Metrics().Counter("gc_cycles", c.Nodes[0].labels)
		if cycles < 2 {
			t.Fatalf("only %d collections; the test needs at least 2", cycles)
		}
		mem, log := c.Nodes[0].Mem, obs.EventLog(c.Rec)
		if run == 0 {
			firstMem, firstLog = mem, log
			continue
		}
		if !bytes.Equal(mem, firstMem) {
			t.Fatalf("run %d: final memory image differs from run 0 (%d collections)", run, cycles)
		}
		if !bytes.Equal(log, firstLog) {
			t.Fatalf("run %d: event log differs from run 0", run)
		}
	}
}

// faultHoldingTwoSrc: the main thread enters Outer.run, from there
// Inner.boom, and only then — holding both monitors — starts one waiter on
// each (Outer's first), yields until both have queued, and faults.
const faultHoldingTwoSrc = `
object Inner
  monitor
    operation boom(o: Outer) -> (r: Int)
      var w1: OuterWaiter <- new OuterWaiter(o)
      var w2: InnerWaiter <- new InnerWaiter(self)
      yield()
      yield()
      var nowhere: Node <- node(99)
    end
    operation touch(who: Int)
      print("inner ", who)
    end
  end monitor
end Inner
object Outer
  var inner: Inner
  monitor
    operation run() -> (r: Int)
      r <- inner.boom(self)
    end
    operation touch(who: Int)
      print("outer ", who)
    end
  end monitor
end Outer
object OuterWaiter
  var o: Outer
  process
    o.touch(1)
  end process
end OuterWaiter
object InnerWaiter
  var i: Inner
  process
    i.touch(2)
  end process
end InnerWaiter
object Main
  process
    var i: Inner <- new Inner
    var o: Outer <- new Outer(i)
    print(o.run())
  end process
end Main
`

// Fault cleanup releases the dead fragment's monitors in object-table
// order, so the waiters it wakes join the run queue in the same order on
// every run.
func TestFaultReleasesMonitorsInTableOrder(t *testing.T) {
	var firstLog []byte
	for run := 0; run < 5; run++ {
		c := runFaulty(t, faultHoldingTwoSrc, []netsim.MachineModel{mSPARC}, Config{})
		if len(c.Faults) != 1 {
			t.Fatalf("faults = %+v, want exactly the holder's", c.Faults)
		}
		// Inner was created first, so its waiter wakes first — although
		// Outer's was started, and blocked, before it.
		if got := c.OutputText(); got != "inner 2\nouter 1" {
			t.Fatalf("run %d: output = %q, want the waiters in object-table order", run, got)
		}
		log := obs.EventLog(c.Rec)
		if run == 0 {
			firstLog = log
		} else if !bytes.Equal(log, firstLog) {
			t.Fatalf("run %d: event log differs from run 0", run)
		}
	}
}
