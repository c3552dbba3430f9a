package kernel

import (
	"testing"

	"repro/internal/netsim"
)

// runAndCollect runs src on one SPARC node and collects afterwards.
func runAndCollect(t *testing.T, src string, models []netsim.MachineModel) (*Cluster, GCStats) {
	t.Helper()
	c := runSrc(t, src, models, Config{})
	stats, err := c.CollectAll()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return c, stats
}

func TestGCReclaimsGarbage(t *testing.T) {
	// The loop allocates 200 strings and 50 arrays that all become garbage.
	c, stats := runAndCollect(t, `
object Main
  process
    var keep: String <- "keeper"
    var i: Int <- 0
    while i < 50 do
      var s: String <- "garbage " + str(i)
      var a: Array[Int] <- new Array[Int](16)
      a[0] <- s.size()
      i <- i + 1
    end
    print(keep)
  end process
end Main
`, []netsim.MachineModel{mSPARC})
	if stats.Freed < 100 {
		t.Errorf("freed only %d objects", stats.Freed)
	}
	if stats.BytesFreed == 0 {
		t.Error("no bytes reclaimed")
	}
	_ = c
}

// gcProbeSrc builds a reachability web and parks the thread on a condition
// so that live data is held only through frames, registers, temps and
// object slots when the collector runs.
const gcProbeSrc = `
object NodeObj
  var next: NodeObj
  var tag: String
  operation setNext(x: NodeObj)
    next <- x
  end
  function getTag() -> (r: String)
    r <- tag
  end
  function getNext() -> (r: NodeObj)
    r <- next
  end
end NodeObj
object Main
  var chainHead: NodeObj
  process
    var a: NodeObj <- new NodeObj(nil, "a")
    var b: NodeObj <- new NodeObj(nil, "b")
    var c: NodeObj <- new NodeObj(nil, "c")
    a.setNext(b)
    b.setNext(c)
    chainHead <- a
    // Drop direct refs to b and c; they stay live only through the chain.
    b <- nil
    c <- nil
    var dead: NodeObj <- new NodeObj(nil, "dead")
    dead <- nil
    yield()
    print(chainHead.getNext().getNext().getTag())
  end process
end Main
`

func TestGCKeepsReachableChains(t *testing.T) {
	p := compileSrc(t, gcProbeSrc)
	c, err := NewCluster(p, []netsim.MachineModel{mSPARC}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(nil)
	// Run a while, collect mid-flight at every quiesce point, keep running.
	for i := 0; i < 50; i++ {
		if !c.Sim.Step() {
			break
		}
		if i%10 == 0 {
			if _, err := c.Nodes[0].Collect(); err != nil {
				t.Fatalf("collect at step %d: %v", i, err)
			}
		}
	}
	if err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for _, f := range c.Faults {
		t.Fatalf("fault: %+v", f)
	}
	if got := c.OutputText(); got != "c" {
		t.Errorf("output = %q (chain broken by the collector?)", got)
	}
}

func TestGCPinsExportedObjects(t *testing.T) {
	// An object moved away and back leaves its OID known remotely; local
	// garbage collection must never reclaim objects the network may
	// reference. The remote node holds no live frames for it, but its copy
	// of the proxy keeps the OID meaningful.
	c := runSrc(t, `
object Box
  var v: Int <- 77
  function get() -> (r: Int)
    r <- v
  end
end Box
object Main
  var keep: Box
  process
    keep <- new Box
    move keep to node(1)
    yield()
    print(keep.get())
  end process
end Main
`, []netsim.MachineModel{mSPARC, mVAX}, Config{})
	// After the run, node1 holds the Box with no local thread referencing
	// it — only Main's slot on node0 does. Collecting node1 must keep it.
	before := c.Nodes[1].HeapObjects()
	stats, err := c.Nodes[1].Collect()
	if err != nil {
		t.Fatal(err)
	}
	_ = before
	// The box itself must survive (it is exported: node0 references it).
	found := false
	for _, o := range c.Nodes[1].objects {
		if o.Resident && o.Kind == ObjPlain && o.Code.oc.Name == "Box" {
			found = true
		}
	}
	if !found {
		t.Errorf("exported Box was collected (freed %d)", stats.Freed)
	}
}

func TestGCSurvivesThenProgramStillRuns(t *testing.T) {
	// Collect between scheduler steps throughout a monitor-heavy program;
	// the program must still complete correctly.
	src := `
object Buffer
  monitor
    var item: Int <- 0
    var full: Bool <- false
    var nonempty: Condition
    var nonfull: Condition
    operation put(x: Int)
      while full do
        wait nonfull
      end
      item <- x
      full <- true
      signal nonempty
    end
    operation take() -> (r: Int)
      while !full do
        wait nonempty
      end
      r <- item
      full <- false
      signal nonfull
    end
  end monitor
end Buffer
object Producer
  var buf: Buffer
  process
    var i: Int <- 1
    while i <= 5 do
      buf.put(i)
      i <- i + 1
    end
  end process
end Producer
object Main
  var buf: Buffer
  initially
    buf <- new Buffer
  end initially
  process
    var p: Producer <- new Producer(buf)
    var sum: Int <- 0
    var i: Int <- 0
    while i < 5 do
      sum <- sum + buf.take()
      i <- i + 1
    end
    print(sum, " ", p == nil)
  end process
end Main
`
	p := compileSrc(t, src)
	c, err := NewCluster(p, []netsim.MachineModel{mSun3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(nil)
	steps := 0
	for c.Sim.Step() {
		steps++
		if steps%7 == 0 {
			if _, err := c.Nodes[0].Collect(); err != nil {
				t.Fatalf("collect: %v", err)
			}
		}
		if steps > 5_000_000 {
			t.Fatal("livelock")
		}
	}
	for _, f := range c.Faults {
		t.Fatalf("fault: %+v", f)
	}
	if got := c.OutputText(); got != "15 false" {
		t.Errorf("output = %q", got)
	}
}

func TestGCFreeListReuse(t *testing.T) {
	c := runSrc(t, `
object Main
  process
    var i: Int <- 0
    while i < 20 do
      var a: Array[Int] <- new Array[Int](8)
      a[0] <- i
      i <- i + 1
    end
    print("done")
  end process
end Main
`, []netsim.MachineModel{mSPARC}, Config{})
	n := c.Nodes[0]
	heapBefore := n.heapNext
	if _, err := n.Collect(); err != nil {
		t.Fatal(err)
	}
	// Allocate the same shape again: must come from the free list, not
	// grow the heap.
	a1, err := n.newArray(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n.heapNext != heapBefore {
		t.Errorf("heap grew (%d -> %d) despite free list", heapBefore, n.heapNext)
	}
	if a1.Len != 8 {
		t.Error("reused block corrupted")
	}
	// Reused memory must be zeroed.
	for i := 0; i < 8; i++ {
		if n.ld32(a1.slotAddr(i)) != 0 {
			t.Errorf("reused array slot %d not zeroed", i)
		}
	}
}
