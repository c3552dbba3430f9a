package kernel

import (
	"testing"

	"repro/internal/busstop"
	"repro/internal/ir"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// planAllocSrc gives Probe.work a mixed int/real frame and a syscall bus
// stop (the print), with no pointer-kind locals, so the conversion path
// under test never touches the swizzler. At the print stop, y and b are
// dead (no path reads them afterwards) while x, a and the result r are
// live — which is what the sharpened variant of the test relies on.
const planAllocSrc = `
object Probe
  var base: Int <- 0
  operation work(x: Int, y: Real) -> (r: Int)
    var a: Int <- 3
    var b: Real <- 1.5
    print(x)
    r <- a + x
  end
end Probe
object Main
  process
    var p: Probe <- new Probe
    print(p.work(4, 2.5))
  end process
end Main
`

// warmPlanRoundtrip fabricates a stopped Probe.work frame on node 0 of a
// VAX/SPARC pair, runs a warm planned MD→MI→MD conversion under
// AllocsPerRun, and returns the plan, the words written into the frame,
// the words read back, and the measured allocations per run.
func warmPlanRoundtrip(t *testing.T, cfg Config) (n *Node, pl *convPlan, want, back []uint32, allocs float64) {
	t.Helper()
	p := compileSrc(t, planAllocSrc)
	c, err := NewCluster(p, []netsim.MachineModel{mVAX, mSPARC}, cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	n = c.Nodes[0]
	oc := p.Object("Probe")
	if oc == nil {
		t.Fatal("no Probe object")
	}
	lc, err := n.loadCode(oc.CodeOID)
	if err != nil {
		t.Fatalf("loadCode: %v", err)
	}
	fnIdx := oc.FuncIndex("work")
	if fnIdx < 0 {
		t.Fatal("no work function")
	}
	lf := lc.funcs[fnIdx]
	tmpl := lf.fc.Template

	// Pick a bus stop whose evaluation stack holds no pointers (the
	// syscall stop of the print qualifies; most have an empty stack).
	var stop busstop.Info
	found := false
	for _, s := range lf.fc.Stops.All() {
		ok := true
		for _, k := range s.TempKinds {
			if k == ir.VKPtr {
				ok = false
			}
		}
		if ok {
			stop, found = s, true
			break
		}
	}
	if !found {
		t.Fatal("no pointer-free bus stop in work")
	}
	tempDepth := stop.TempDepth
	if tempDepth > len(stop.TempKinds) {
		tempDepth = len(stop.TempKinds)
	}

	// Fabricate a stopped frame: allocate the record and give every
	// variable a distinguishable value in its home.
	fp, err := n.alloc(uint32(tmpl.Size))
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	fi := frameInfo{lf: lf, fp: fp, stop: stop, tempDepth: tempDepth}
	want = make([]uint32, 0, len(tmpl.Vars)+tempDepth)
	for i, h := range tmpl.Vars {
		w := uint32(10 + i)
		if h.Kind == ir.VKReal {
			w = n.Spec.Float.Enc(1.5 * float32(i+1))
		}
		if h.InReg {
			fi.regs[h.Reg&0xf] = w
		} else {
			n.st32(fp+uint32(h.Off), w)
		}
		want = append(want, w)
	}
	for j := 0; j < tempDepth; j++ {
		w := uint32(100 + j)
		n.st32(fp+uint32(tmpl.TempOff)+uint32(4*j), w)
		want = append(want, w)
	}

	conv := n.converterFor(1)
	kindAt := func(pl *convPlan, i int) ir.VK {
		if i < len(pl.vars) {
			return pl.vars[i].kind
		}
		return tempKindAt(pl.stop, i-len(pl.vars))
	}

	// Warm: the first hop compiles and caches the plan.
	act, shipped := n.marshalFrame(conv, fi)
	if int(act.Stop) != stop.Stop || len(shipped) != len(want) {
		t.Fatalf("warm marshal: stop %d (%d values), want stop %d (%d values)",
			act.Stop, len(shipped), stop.Stop, len(want))
	}
	pl = n.planFor(lf, uint16(stop.Stop))

	back = make([]uint32, len(want))
	var m wire.MIActivation
	allocs = testing.AllocsPerRun(100, func() {
		a, vals := n.marshalFrame(conv, fi)
		m = a
		for i, v := range vals {
			w, err := n.unwireValue(conv, kindAt(pl, i), v, nil, 1)
			if err != nil {
				t.Fatalf("unwire %d: %v", i, err)
			}
			back[i] = w
		}
	})
	if len(m.Vars) != len(tmpl.Vars) {
		t.Fatalf("marshalled %d vars, template has %d", len(m.Vars), len(tmpl.Vars))
	}
	return n, pl, want, back, allocs
}

// One warm-plan MD→MI→MD conversion of a frame is pinned at a single
// allocation: the combined value slice marshalFrame returns. Plan
// compilation, template interpretation and per-value boxing must all be
// off the steady-state path. Sharpening is off here so the roundtrip
// must reproduce every machine-dependent word exactly (same float format
// on both sides of MI for identical codecs, identity for ints) — the
// alloc pin is not measuring a path that silently stopped converting.
func TestWarmPlanConversionAllocs(t *testing.T) {
	cfg := Config{NoSharpen: true}
	_, _, want, back, allocs := warmPlanRoundtrip(t, cfg)
	if allocs > 1 {
		t.Errorf("warm MD→MI→MD conversion allocates %.1f allocs/run, want <= 1", allocs)
	}
	for i, w := range back {
		if w != want[i] {
			t.Errorf("roundtrip slot %d = %#x, want %#x", i, w, want[i])
		}
	}
}

// The sharpened path must stay on the same ≤1-alloc budget, reproduce
// every live slot exactly, and restore every pta-dead slot as the
// canonical zero of its kind — and the fixture must actually exercise
// that (at least one dead slot, never a pointer one).
func TestWarmPlanConversionAllocsSharpened(t *testing.T) {
	n, pl, want, back, allocs := warmPlanRoundtrip(t, Config{})
	if allocs > 1 {
		t.Errorf("sharpened warm conversion allocates %.1f allocs/run, want <= 1", allocs)
	}
	dead := 0
	for i := range back {
		if i < len(pl.vars) && pl.vars[i].dead {
			dead++
			if pl.vars[i].kind == ir.VKPtr {
				t.Errorf("slot %d: pointer slot marked dead; sharpening must never touch pointers", i)
			}
			var zero uint32
			if pl.vars[i].kind == ir.VKReal {
				zero = n.Spec.Float.Enc(0)
			}
			if back[i] != zero {
				t.Errorf("dead slot %d restored as %#x, want canonical zero %#x", i, back[i], zero)
			}
			continue
		}
		if back[i] != want[i] {
			t.Errorf("live slot %d = %#x, want %#x", i, back[i], want[i])
		}
	}
	if dead == 0 {
		t.Error("no dead slots in the plan; the sharpened test is vacuous (y and b should be dead at the print stop)")
	}
	if n.CanonicalizedVarSlots == 0 || n.MarshaledVarSlots < n.CanonicalizedVarSlots {
		t.Errorf("counters: marshaled %d, canonicalized %d; want 0 < canonicalized <= marshaled",
			n.MarshaledVarSlots, n.CanonicalizedVarSlots)
	}
}

// A plan depends on the function and the bus stop alone — the converter
// carries the peer's formats — so a node compiles each stop's plan once,
// whichever ISAs it converts toward or from. On the Figure 1 network the
// kilroy tour arrives at the HP (node 1) from the Sun-3 and leaves it for
// the SPARC through the same move stop: one plan serves both hops.
func TestPlanPerStop(t *testing.T) {
	p := compileSrc(t, kilroySrc(t))
	c, err := NewCluster(p, []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(nil)
	if err := c.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if got := c.PrintedLines(); len(got) != 1 || got[0] != "Kilroy was here: node0 node1 node2 node3" {
		t.Fatalf("kilroy printed %q", got)
	}
	for _, n := range c.Nodes {
		for _, lc := range n.codeByOID {
			for _, lf := range lc.funcs {
				stops := map[int]bool{}
				for _, pl := range lf.plans {
					if pl.entry {
						stops[-1] = true
					} else {
						stops[pl.stop.Stop] = true
					}
				}
				if len(lf.plans) != len(stops) {
					t.Errorf("node %d %s: %d plans for %d bus stops", n.ID, lf.name(), len(lf.plans), len(stops))
				}
				if n.ID == 1 && lf.name() == "Kilroy.tour" && len(lf.plans) != 1 {
					t.Errorf("node 1 Kilroy.tour: %d plans, want the move stop's one", len(lf.plans))
				}
			}
		}
	}
}
