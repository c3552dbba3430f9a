package pta_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang/parser"
	"repro/internal/lang/types"
	"repro/internal/pta"
)

// buildIR compiles Emerald-subset source down to the machine-independent
// IR the solver consumes.
func buildIR(t testing.TB, src string) *ir.Program {
	t.Helper()
	ast, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(ast)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return ir.Build(info)
}

func analyze(t testing.TB, src string) *pta.Result {
	t.Helper()
	r, err := pta.Analyze(buildIR(t, src))
	if err != nil {
		t.Fatalf("pta: %v", err)
	}
	return r
}

func readExample(t testing.TB, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// Six independent solves of each corpus program must render byte-identical
// reports: the report is the interface emvet -graph exposes and adaptive
// placement's cohorts come from, so any map-iteration nondeterminism in
// the solver or its caches is a bug.
func TestReportDeterministic(t *testing.T) {
	progs, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, path := range progs {
		name := filepath.Base(path)
		src := readExample(t, name)
		first := analyze(t, src).Report()
		for i := 0; i < 5; i++ {
			if got := analyze(t, src).Report(); got != first {
				t.Fatalf("%s: solve %d produced a different report:\n--- first\n%s--- got\n%s",
					name, i+2, first, got)
			}
		}
	}
}

// producer_consumer is the richest example: a shared Buffer holding an
// Array, reached by two process threads. The solver must find the three
// allocation sites, resolve both invoke sites, and group the Buffer and
// Producer allocations into cohorts that include the Array they reach.
func TestProducerConsumerFacts(t *testing.T) {
	r := analyze(t, readExample(t, "producer_consumer.em"))

	sites := r.Sites()
	if len(sites) != 3 {
		t.Fatalf("got %d allocation sites, want 3: %v", len(sites), sites)
	}
	var labels []string
	for _, s := range sites {
		labels = append(labels, s.Label())
	}
	for _, want := range []string{"new Array[i]", "new Buffer", "new Producer"} {
		found := false
		for _, l := range labels {
			if strings.Contains(l, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no site %q among %v", want, labels)
		}
	}

	cg := r.CallGraph()
	if got := cg["Main.$process"]; len(got) != 1 || got[0] != "Buffer.take" {
		t.Errorf("Main.$process callees = %v, want [Buffer.take]", got)
	}
	if got := cg["Producer.$process"]; len(got) != 1 || got[0] != "Buffer.put" {
		t.Errorf("Producer.$process callees = %v, want [Buffer.put]", got)
	}

	cohorts := r.Cohorts()
	if len(cohorts) != 2 {
		t.Fatalf("got %d cohorts, want 2: %+v", len(cohorts), cohorts)
	}
	// The Buffer cohort holds the buffer and its array; the Producer
	// cohort additionally reaches the buffer through the producer's
	// buf field.
	if n := len(cohorts[0].Members); n != 2 {
		t.Errorf("Buffer cohort has %d members, want 2: %v", n, cohorts[0].Members)
	}
	if n := len(cohorts[1].Members); n != 3 {
		t.Errorf("Producer cohort has %d members, want 3: %v", n, cohorts[1].Members)
	}
}

const escapeSrc = `
object Widget
  operation poke() -> (r: Int)
    r <- 1
  end
end Widget
object Gauge
  operation read() -> (r: Int)
    r <- 2
  end
end Gauge
object Keeper
  var kept: Widget
  operation stash() -> (r: Int)
    var w: Widget <- new Widget
    var scratch: Gauge <- new Gauge
    kept <- w
    r <- scratch.read()
  end
end Keeper
object Main
  process
    var k: Keeper <- new Keeper
    print(k.stash())
  end process
end Main
`

// The local stored into a field escapes; a local of an unrelated type
// only used as an invoke receiver does not. Both properties matter: the
// first is the pass's positive case, the second keeps it from crying
// wolf on every pointer local. (Locals of the SAME type as an escaping
// one do merge — the per-type roots are the point of the unification
// model — so the negative case uses a distinct type.)
func TestSlotEscapes(t *testing.T) {
	r := analyze(t, escapeSrc)
	p := buildIR(t, escapeSrc)
	var keeper *ir.Object
	for _, o := range p.Objects {
		if o.Name == "Keeper" {
			keeper = o
		}
	}
	if keeper == nil {
		t.Fatal("no Keeper object")
	}
	var stash *ir.Func
	for _, f := range keeper.Funcs {
		if f.Name == "Keeper.stash" {
			stash = f
		}
	}
	if stash == nil {
		t.Fatal("no Keeper.stash function")
	}
	slot := func(name string) int {
		for v, n := range stash.VarNames {
			if n == name {
				return v
			}
		}
		t.Fatalf("no slot %q in %v", name, stash.VarNames)
		return -1
	}
	if !r.SlotEscapes("Keeper.stash", slot("w")) {
		t.Error("w is stored into Keeper.kept but does not escape")
	}
	if r.SlotEscapes("Keeper.stash", slot("scratch")) {
		t.Error("scratch never leaves the frame but is reported escaping")
	}
}

const pinnedSrc = `
object Anchor
  operation ping() -> (r: Int)
    r <- 7
  end
end Anchor
object Main
  var a: Anchor
  initially
    a <- new Anchor
    fix a at thisnode()
  end initially
  process
    print(a.ping())
  end process
end Main
`

// A process thread that can reach a fixed object gets a pinned-reach
// fact naming the pinned type and the fix site.
func TestProcessPinnedReach(t *testing.T) {
	r := analyze(t, pinnedSrc)
	got := r.ProcessPinnedReach("Main")
	if len(got) != 1 || !strings.Contains(got[0].String(), "Anchor") ||
		!strings.Contains(got[0].String(), "Main.$initially@") {
		t.Errorf("ProcessPinnedReach(Main) = %v, want one Anchor entry with its fix site", got)
	}
	// kilroy fixes nothing, so its thread reaches no pinned class.
	rk := analyze(t, readExample(t, "kilroy.em"))
	if got := rk.ProcessPinnedReach("Main"); len(got) != 0 {
		t.Errorf("kilroy ProcessPinnedReach(Main) = %v, want none", got)
	}
}

// synthUnit renders one self-contained copy of the synthetic benchmark
// program; object and operation names carry the copy index so the
// name-resolved call graph keeps copies independent.
func synthUnit(i int) string {
	return strings.NewReplacer("#", fmt.Sprint(i)).Replace(`
object Widget#
  operation poke#(n: Int) -> (r: Int)
    r <- n + 1
  end
end Widget#
object Keeper#
  var kept: Widget#
  operation stash#(w: Widget#) -> (r: Int)
    kept <- w
    r <- w.poke#(3)
  end
end Keeper#
object Driver#
  process
    var k: Keeper# <- new Keeper#
    var w: Widget# <- new Widget#
    print(k.stash#(w))
  end process
end Driver#
`)
}

// Steensgaard's bound is almost-linear; the regression this pins is an
// accidental quadratic (e.g. re-propagation at joins, or per-constraint
// scans of the whole universe). A 10×-duplicated program may cost at
// most ~1.5× per copy more than one copy — far below the 10× per-copy
// growth a quadratic solver would show.
func TestNearLinearScaling(t *testing.T) {
	one := analyze(t, synthUnit(0)).Stats.Work()
	var b strings.Builder
	for i := 0; i < 10; i++ {
		b.WriteString(synthUnit(i))
	}
	ten := analyze(t, b.String()).Stats.Work()
	if one <= 0 || ten <= 0 {
		t.Fatalf("degenerate work counts: one=%d ten=%d", one, ten)
	}
	if ten > 15*one {
		t.Errorf("10x program costs %d work vs %d for 1x (%.1fx); want near-linear (<= 15x)",
			ten, one, float64(ten)/float64(one))
	}
}

// BenchmarkPTA measures the full solve on the largest example; the IR is
// built once outside the loop so the number is the analysis alone.
func BenchmarkPTA(b *testing.B) {
	p := buildIR(b, readExample(b, "producer_consumer.em"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pta.Analyze(p); err != nil {
			b.Fatal(err)
		}
	}
}

// straightLine is a program whose process makes n calls in a row, the shape
// of one unrolled benchmark session.
func straightLine(n int) string {
	var b strings.Builder
	b.WriteString(`
object Svc
  operation f(x: Int) -> (r: Int)
    r <- x + 1
  end
end Svc
object Main
  process
    var s: Svc <- new Svc
    var t: Int <- 0
`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    t <- s.f(t + %d)\n", i)
	}
	b.WriteString("    print(t)\n  end process\nend Main\n")
	return b.String()
}

// TestAnalyzeAllocsDoNotGrowWithCode: the solve reuses one scratch stack
// and cuts its per-instruction stacks from one arena, so its allocation
// count grows with the logarithm of the code size, not with the
// instruction count. Bound: quadrupling the calls from 1 000 to 4 000 adds
// at most 12 allocations (each growth of the arena or of the call-site list
// is one; a copy per instruction would add thousands).
func TestAnalyzeAllocsDoNotGrowWithCode(t *testing.T) {
	allocs := func(n int) float64 {
		p := buildIR(t, straightLine(n))
		return testing.AllocsPerRun(5, func() {
			if _, err := pta.Analyze(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	t.Logf("pta.Analyze allocations: %v at 1000 calls, %v at 4000", small, large)
	if large > small+12 {
		t.Errorf("pta.Analyze makes %v allocations at 4000 calls, %v at 1000: want at most %v", large, small, small+12)
	}
}
