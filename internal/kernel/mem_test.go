package kernel

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
)

// hoardSrc keeps every 4 KB array it allocates (and drops a small string
// per lap, so a collection has something to free that does not help): the
// heap passes 256 KB before the loop ends.
const hoardSrc = `
object Main
  process
    var keep: Array[Array[Int]] <- new Array[Array[Int]](64)
    var i: Int <- 0
    while i < 64 do
      var junk: String <- "junk " + str(i)
      var a: Array[Int] <- new Array[Int](1000)
      a[0] <- junk.size()
      keep[i] <- a
      i <- i + 1
    end
    print("not reached")
  end process
end Main
`

// Node.Mem follows the heap's high-water mark: it starts at memStart,
// doubles when the bump pointer would pass its end, and MemBytes only caps
// it. Stepping the run event by event, every growth step must leave the
// stack and free-list extents intact and nothing but zeros above heapNext.
func TestNodeMemoryGrowsOnDemand(t *testing.T) {
	c, err := NewCluster(compileSrc(t, hoardSrc), []netsim.MachineModel{mSPARC}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	if len(n.Mem) != memStart {
		t.Fatalf("a fresh node has %d bytes of memory, want memStart = %d", len(n.Mem), memStart)
	}
	c.Start(nil)
	steps := 0
	for size := len(n.Mem); c.Sim.Step(); {
		if len(n.Mem) == size {
			continue
		}
		size, steps = len(n.Mem), steps+1
		if hw := int(n.heapNext); hw > size || size > max(memStart, 2*hw) {
			t.Fatalf("growth step %d: %d bytes of memory for a high-water mark of %d", steps, size, hw)
		}
		if v := n.checkExtents(); v != nil {
			t.Fatalf("growth step %d (to %d bytes): %v", steps, size, v)
		}
		if tail := n.Mem[n.heapNext:]; bytes.Count(tail, []byte{0}) != len(tail) {
			t.Fatalf("growth step %d: nonzero byte above heapNext %#x", steps, n.heapNext)
		}
	}
	if got := c.OutputText(); got != "not reached" || len(c.Faults) != 0 {
		t.Fatalf("output %q, faults %v: 8 MB must hold the hoard", got, c.Faults)
	}
	if steps < 2 || len(n.Mem) >= c.MemBytes {
		t.Errorf("%d growth steps to %d bytes (cap %d): want several, ending far below the cap", steps, len(n.Mem), c.MemBytes)
	}

	// Under a 256 KB cap the same program collects once and then faults at
	// the allocation the parent (b64028c, fixed 256 KB) faulted at.
	c = runFaulty(t, hoardSrc, []netsim.MachineModel{mSPARC}, Config{MemBytes: 256 << 10})
	n = c.Nodes[0]
	if len(c.Faults) != 1 || c.Faults[0].Msg != "node 0: out of memory (4008 bytes requested)" || c.Faults[0].At != 2496 {
		t.Fatalf("faults = %+v, want the parent's one out-of-memory fault at 2496 µs", c.Faults)
	}
	if gc := c.Rec.Metrics().Counter("gc_cycles", n.labels); gc != 1 {
		t.Errorf("%d collections before the fault, parent ran 1", gc)
	}
	if n.heapNext != 260664 || len(n.table) != 104 || n.Instrs != 1338 {
		t.Errorf("at the fault: heapNext %d, %d objects, %d instructions; parent read 260664, 104, 1338",
			n.heapNext, len(n.table), n.Instrs)
	}
	if len(n.Mem) != c.MemBytes {
		t.Errorf("memory ended at %d bytes, want the %d cap", len(n.Mem), c.MemBytes)
	}
}
