package kernel

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dir"
	"repro/internal/netsim"
)

// seededRun runs kilroy on the Figure 1 machines with seed scheduled as
// node events before the run, and returns Run's error.
func seededRun(t *testing.T, seed func(c *Cluster)) error {
	t.Helper()
	c, err := NewCluster(compileSrc(t, kilroySrc(t)), []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(nil)
	seed(c)
	return c.Run(5_000_000)
}

// A broken invariant ends the run as a *Violation: mid-run, the earliest in
// (time, node) order; at the end, what CheckInvariants finds.
func TestViolationIsAValue(t *testing.T) {
	revive := func(c *Cluster, node int) func() {
		return func() {
			n := c.Nodes[node]
			f := n.newFrag()
			n.killFrag(f)
			n.enqueue(f) // dead -> ready
		}
	}
	cases := []struct {
		name string
		seed func(c *Cluster)
		want Violation
	}{
		{"mid-run", func(c *Cluster) {
			c.Sim.AtNode(3, 20_000, revive(c, 3))
			c.Sim.AtNode(2, 20_001, revive(c, 2))
			c.Sim.AtNode(1, 20_000, revive(c, 1))
		}, Violation{Node: 1, At: 20_000, Frag: 1<<24 | 1, Invariant: invTransition}},
		{"end-of-run", func(c *Cluster) {
			c.Sim.AtNode(2, 20_000, func() { c.Nodes[2].newFrag() }) // ready, never queued
		}, Violation{Node: 2, Frag: 2<<24 | 1, Invariant: invQuiescence}},
	}
	for _, tc := range cases {
		err := seededRun(t, tc.seed)
		var v *Violation
		if !errors.As(err, &v) {
			t.Fatalf("%s: Run = %v, want a *Violation", tc.name, err)
		}
		got := *v
		got.Detail = ""
		if tc.want.At == 0 {
			got.At = 0 // the end-of-run instant is the run's length
		}
		if got != tc.want {
			t.Errorf("%s: violation %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// The end-of-run check and the state setter allocate nothing, with every
// clause engaged: proxies, a directory's acceptors and learners, live and
// free stack regions.
func TestInvariantsAllocateNothing(t *testing.T) {
	plan := &chaos.Plan{Seed: 7, Drop: 0.05, Dup: 0.02}
	c := runSrc(t, kilroySrc(t), []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}, dirConfig(3, plan))
	if got := testing.AllocsPerRun(20, func() {
		if v := c.CheckInvariants(); v != nil {
			t.Fatal(v)
		}
	}); got != 0 {
		t.Errorf("CheckInvariants = %v allocs, want 0", got)
	}
	n := c.Nodes[0]
	f := n.newFrag()
	if got := testing.AllocsPerRun(1000, func() {
		n.setStatus(f, FragStateRunning)
		n.setStatus(f, FragStateReady)
	}); got != 0 {
		t.Errorf("setStatus = %v allocs, want 0", got)
	}
}

// A decree that degrades (two of its three replicas crash for good during
// its rounds) leaves accepted values behind on replicas that never learn.
// The run still ends clean, and the home clause has acceptors of one slot
// on two nodes to compare.
func TestDegradedDecreeLeavesAcceptors(t *testing.T) {
	plan, err := chaos.ParsePlan("seed=1,crash=2@150ms,crash=3@150ms")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "pingpong.em"))
	if err != nil {
		t.Fatal(err)
	}
	c := runFaulty(t, string(src), []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}, dirConfig(3, plan))
	if dirCounter(c, "dir_degraded") == 0 {
		t.Fatal("no decree degraded")
	}
	held := map[dir.Slot]int{}
	for _, n := range c.Nodes {
		for s, a := range n.dirAcc {
			if a.AccBal > 0 {
				held[s]++
			}
		}
	}
	shared := 0
	for _, k := range held {
		if k > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Errorf("no slot accepted on two nodes at the end of the run: %v", held)
	}
}
