package kernel

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/busstop"
	"repro/internal/ir"
	"repro/internal/netsim"
)

const vetLoadSrc = `
object Counter
  monitor
    var n: Int <- 0
    operation bump() -> (r: Int)
      n <- n + 1
      r <- n
    end
  end monitor
end Counter

object Main
  process
    var c: Counter <- new Counter
    print("n=", c.bump())
  end process
end Main
`

// tamperCounter skews the first VAX stop of Counter — the tampering the
// vet-on-load gate exists to catch.
func tamperCounter(t *testing.T, c *Cluster) {
	t.Helper()
	oc := c.Prog.Object("Counter")
	fc := oc.PerArch[arch.VAX].Funcs[0]
	stops := fc.Stops.All()
	stops[0].TempDepth++
	stops[0].TempKinds = append(stops[0].TempKinds, ir.VKInt)
	nt, err := busstop.NewTable(stops)
	if err != nil {
		t.Fatalf("rebuilding tampered table: %v", err)
	}
	fc.Stops = nt
}

// TestVetOnLoadRefusesTamperedTable: with VetOnLoad on, a node must refuse
// to load a code object whose bus-stop table was tampered with, both via
// the direct load path and as a fault in a full run.
func TestVetOnLoadRefusesTamperedTable(t *testing.T) {
	prog := compileSrc(t, vetLoadSrc)
	cfg := Config{VetOnLoad: true}
	c, err := NewCluster(prog, []netsim.MachineModel{mVAX}, cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	tamperCounter(t, c)

	// Direct load path: the error names vet and the object.
	oc := c.Prog.Object("Counter")
	if _, err := c.Nodes[0].loadCode(oc.CodeOID); err == nil {
		t.Fatal("tampered Counter loaded without complaint")
	} else if !strings.Contains(err.Error(), "vet") || !strings.Contains(err.Error(), "Counter") {
		t.Errorf("load error does not identify the vet refusal: %v", err)
	}

	// Full run: the refusal surfaces as a fault, not a hang or corruption.
	c.Start(nil)
	if err := c.Run(5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	found := false
	for _, f := range c.Faults {
		if strings.Contains(f.Msg, "vet") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no vet fault recorded; faults: %+v, output: %q", c.Faults, c.OutputText())
	}
}

// TestVetOnLoadAcceptsCleanProgram: the gate must not reject honest code,
// on any architecture.
func TestVetOnLoadAcceptsCleanProgram(t *testing.T) {
	cfg := Config{VetOnLoad: true}
	c := runSrc(t, vetLoadSrc, []netsim.MachineModel{mVAX, mSPARC, mSun3}, cfg)
	if got := c.OutputText(); got != "n=1" {
		t.Errorf("output %q, want %q", got, "n=1")
	}
}

// TestVetOnLoadOffByDefault: without the option the tampered program loads
// (and this test documents why the gate exists: the kernel itself has no
// cheap way to notice).
func TestVetOnLoadOffByDefault(t *testing.T) {
	prog := compileSrc(t, vetLoadSrc)
	c, err := NewCluster(prog, []netsim.MachineModel{mVAX}, Config{})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	tamperCounter(t, c)
	oc := c.Prog.Object("Counter")
	if _, err := c.Nodes[0].loadCode(oc.CodeOID); err != nil {
		t.Errorf("load unexpectedly failed with VetOnLoad off: %v", err)
	}
}
