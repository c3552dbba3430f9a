// Pins the fuse-once discipline: superinstruction fusion (arch.Fuse)
// runs exactly once per loaded function, at code-load time. A thread
// migrating through a function — even repeatedly, as kilroy's token
// does across every node — must never trigger re-fusion: migration
// re-install reuses the node's cached loadedCode, and fusing is a
// per-function, per-node cost, not a per-thread or per-move cost.
package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
)

func TestFuseOncePerLoadedFunc(t *testing.T) {
	srcBytes, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "kilroy.em"))
	if err != nil {
		t.Fatal(err)
	}
	before := arch.FuseBuildCount()
	sys, err := RunSource(string(srcBytes), Figure1Network(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	builds := arch.FuseBuildCount() - before
	loaded := sys.Cluster.LoadedFuncs()
	if loaded == 0 {
		t.Fatal("no functions loaded; pin is vacuous")
	}
	moves := uint64(0)
	for _, n := range sys.Cluster.Nodes {
		moves += n.Migrations
	}
	if moves == 0 {
		t.Fatal("kilroy performed no migrations; pin is vacuous")
	}
	if builds != uint64(loaded) {
		t.Errorf("Fuse ran %d times for %d loaded functions; migration re-install must not re-fuse", builds, loaded)
	}

	// The escape hatch must not fuse at all.
	before = arch.FuseBuildCount()
	if _, err := RunSource(string(srcBytes), Figure1Network(), Options{LegacyDispatch: true}); err != nil {
		t.Fatal(err)
	}
	if d := arch.FuseBuildCount() - before; d != 0 {
		t.Errorf("LegacyDispatch: Fuse ran %d times, want 0", d)
	}
}

// The fused executor is total over compiled code: on every example
// program, under default options on the Figure 1 network, no instruction
// falls back to the reference stepper.
func TestNoStepFallbackOnCorpus(t *testing.T) {
	for _, pf := range examplePrograms(t) {
		t.Run(filepath.Base(pf), func(t *testing.T) {
			srcBytes, err := os.ReadFile(pf)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := RunSource(string(srcBytes), Figure1Network(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			instrs := uint64(0)
			for _, n := range sys.Cluster.Nodes {
				instrs += n.Instrs
				if fb := n.StepFallbackInstrs(); fb != 0 {
					t.Errorf("node %d: %d of %d instructions fell back to Step", n.ID, fb, n.Instrs)
				}
			}
			if instrs == 0 {
				t.Fatal("program executed no instructions; pin is vacuous")
			}
		})
	}
}
