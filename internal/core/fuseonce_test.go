// Pins who owns a fused program: the compiled function, not the node
// that loads it. arch.Fuse runs once per (function, ISA) pair of one
// codegen.Program however many nodes of that ISA load the function,
// however many clusters are built over the program and however often a
// thread migrates through it, whichever specs the program was compiled
// against; only a hand-built FuncCode and LegacyDispatch stay off the
// shared program.
package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// fuseRun runs prog on a fresh system and reports the arch.Fuse calls the
// run made, the functions its nodes loaded, and how many distinct
// (function, ISA) pairs — *codegen.FuncCode values — those are.
func fuseRun(t *testing.T, prog *codegen.Program, machines []netsim.MachineModel, opts Options) (sys *System, builds uint64, loaded, distinct int) {
	t.Helper()
	before := arch.FuseBuildCount()
	sys, err := NewSystem(prog, machines, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	pairs := map[*codegen.FuncCode]bool{}
	for _, n := range sys.Cluster.Nodes {
		for _, fc := range n.LoadedFuncCodes() {
			pairs[fc] = true
		}
	}
	return sys, arch.FuseBuildCount() - before, sys.Cluster.LoadedFuncs(), len(pairs)
}

func TestFuseOncePerLoadedFunc(t *testing.T) {
	compile := func() *codegen.Program {
		prog, err := Compile(kilroySource(t))
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	prog := compile()
	sys, builds, loaded, distinct := fuseRun(t, prog, Figure1Network(), Options{})
	moves := uint64(0)
	for _, n := range sys.Cluster.Nodes {
		moves += n.Migrations
	}
	if moves == 0 {
		t.Fatal("kilroy performed no migrations; pin is vacuous")
	}
	// Figure 1's Sun-3 and HP9000/300 are both M68K: they load the same
	// functions, so fewer programs are built than functions are loaded.
	if distinct == 0 || distinct >= loaded {
		t.Fatalf("%d distinct (function, ISA) pairs in %d loaded functions; pin is vacuous", distinct, loaded)
	}
	if builds != uint64(distinct) {
		t.Errorf("Fuse ran %d times for %d distinct (function, ISA) pairs (%d loaded functions)", builds, distinct, loaded)
	}

	// A second system over the same program fuses nothing and runs the same.
	again, builds, _, _ := fuseRun(t, prog, Figure1Network(), Options{})
	if builds != 0 {
		t.Errorf("second system over one program: Fuse ran %d times, want 0", builds)
	}
	if !bytes.Equal(obs.EventLog(again.Recorder()), obs.EventLog(sys.Recorder())) {
		t.Error("second system over one program: event log differs from the first's")
	}

	// The escape hatch must not fuse at all.
	if _, builds, _, _ := fuseRun(t, compile(), Figure1Network(), Options{LegacyDispatch: true}); builds != 0 {
		t.Errorf("LegacyDispatch: Fuse ran %d times, want 0", builds)
	}

	// A program compiled against copies of the stock specs runs each node on
	// the program's own spec and still fuses once per (function, ISA) pair.
	var copies []*arch.Spec
	for _, s := range arch.AllSpecs() {
		c := *s
		copies = append(copies, &c)
	}
	_, prog, err := CompileWith(kilroySource(t), codegen.Options{Specs: copies})
	if err != nil {
		t.Fatal(err)
	}
	sys, builds, loaded, distinct = fuseRun(t, prog, Figure1Network(), Options{})
	for _, n := range sys.Cluster.Nodes {
		if want := prog.Spec(n.Spec.ID); n.Spec != want || n.Spec == arch.SpecOf(n.Spec.ID) {
			t.Errorf("node %d runs on spec %p, want the program's %p", n.ID, n.Spec, want)
		}
	}
	if distinct == 0 || builds != uint64(distinct) {
		t.Errorf("copied specs: Fuse ran %d times for %d distinct (function, ISA) pairs (%d loaded functions)", builds, distinct, loaded)
	}
}

// Clusters over one program share its fused code, and nothing keeps two
// of them on one goroutine: two systems over one Program run side by side,
// and every worker creates its Helper on its own node, so six nodes load —
// and may race to fuse — Helper's function, which nothing loaded before.
// One build per function, and (under -race) no unsynchronized access to it.
func TestFuseOnceUnderParallelLoad(t *testing.T) {
	const src = `
object Helper
  function echo(x: Int) -> (r: Int)
    r <- x
  end
end Helper
object Worker
  var id: Int
  process
    move self to node(id)
    var h: Helper <- new Helper
    print("worker ", h.echo(id), " on ", str(thisnode()))
  end process
end Worker
object Main
  process
    var a: Worker <- new Worker(0)
    var b: Worker <- new Worker(1)
    var c: Worker <- new Worker(2)
  end process
end Main
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	sparcs := []netsim.MachineModel{netsim.SPARCstationSLC, netsim.SPARCstationSLC, netsim.SPARCstationSLC}
	before := arch.FuseBuildCount()
	systems, errs := make([]*System, 2), make([]error, 2)
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			systems[i], errs[i] = NewSystem(prog, sparcs, Options{})
			if errs[i] == nil {
				errs[i] = systems[i].Run()
			}
		}()
	}
	wg.Wait()
	builds := arch.FuseBuildCount() - before
	echo, on := prog.Object("Helper").PerArch[arch.SPARC].Funcs[0], 0
	pairs := map[*codegen.FuncCode]bool{}
	for i, sys := range systems {
		if errs[i] != nil {
			t.Fatalf("system %d: %v", i, errs[i])
		}
		if got := len(sys.Lines()); got != 3 {
			t.Fatalf("system %d printed %q, want one line per worker", i, sys.Lines())
		}
		for _, n := range sys.Cluster.Nodes {
			for _, fc := range n.LoadedFuncCodes() {
				pairs[fc] = true
				if fc == echo {
					on++
				}
			}
		}
	}
	if on != 6 {
		t.Fatalf("Helper.echo loaded on %d nodes, want all 6", on)
	}
	if builds != uint64(len(pairs)) {
		t.Errorf("Fuse ran %d times for %d distinct functions", builds, len(pairs))
	}
}

// The fused runner enters a run only at its head and refuses any other PC
// as an internal fault: on every example program, at the default slice
// and at a one-instruction one (a reschedule requested at every poll),
// every PC a thread resumes at heads a run. The runs are the determinism
// matrix's Figure 1 base runs (difftest_test.go), which fail on any fault
// and on printing nothing.
func TestNoStepFallbackOnCorpus(t *testing.T) {
	for _, prog := range corpus(t) {
		t.Run(prog.name, func(t *testing.T) {
			for _, b := range bases(t) {
				if b.name == "default" || b.name == "slice1" {
					runBase(t, prog.name+"/figure1/"+b.name, prog.val, Figure1Network(), b.val)
				}
			}
		})
	}
}
