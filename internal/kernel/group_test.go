package kernel

import (
	"bytes"
	"testing"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// threeSpinnersSrc starts objects A, B and C on node 0, a compute-bound
// thread inside each.
const threeSpinnersSrc = `
object A
  process
    var i: Int <- 0
    while i < 100000000 do
      i <- i + 1
    end
  end process
end A
object B
  process
    var i: Int <- 0
    while i < 100000000 do
      i <- i + 1
    end
  end process
end B
object C
  process
    var i: Int <- 0
    while i < 100000000 do
      i <- i + 1
    end
  end process
end C
`

// TestCohortOfFixedMembersSendsBareMove: a cohort whose other members are
// fixed is a cohort of one. Its one movable member leaves as a bare Move —
// no MoveGroup frame, no group_move counters — and the run's event log is
// byte-identical to one that requests the same moves one object at a time,
// chaos-off and under a seeded plan with the directory armed.
func TestCohortOfFixedMembersSendsBareMove(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"chaos-off", func() Config { return Config{} }},
		{"plan+dir", func() Config { return dirConfig(2, &chaos.Plan{Seed: 5}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(together bool) *Cluster {
				c, err := NewCluster(compileSrc(t, threeSpinnersSrc),
					[]netsim.MachineModel{mSPARC, mVAX}, tc.cfg())
				if err != nil {
					t.Fatal(err)
				}
				c.Start(nil)
				for i := 0; i < 1000; i++ { // past bootstrap and code loading
					c.Sim.Step()
				}
				n := c.Nodes[0]
				byName := map[string]*Obj{}
				for _, o := range n.objects {
					if o.Resident && o.Kind == ObjPlain {
						byName[o.Code.oc.Name] = o
					}
				}
				a, b, cc := byName["A"], byName["B"], byName["C"]
				if a == nil || b == nil || cc == nil {
					t.Fatalf("objects on node 0: %v", byName)
				}
				b.Fixed, cc.Fixed = true, true
				if together {
					n.moveGroup([]*Obj{b, cc, a}, 1, false)
				} else {
					for _, o := range []*Obj{b, cc, a} {
						n.moveGroup([]*Obj{o}, 1, false)
					}
				}
				// Run until the move has committed and its decree resolved.
				for i := 0; a.Resident || len(n.dirProps) > 0; i++ {
					if i == 1_000_000 || !c.Sim.Step() {
						t.Fatal("the move never committed")
					}
				}
				if !b.Resident || !cc.Resident {
					t.Fatal("a fixed member moved")
				}
				return c
			}
			cohort, alone := run(true), run(false)
			if m := decreeMsgCount(cohort, "move"); m != 1 {
				t.Errorf("%d Move messages, want 1", m)
			}
			if g := decreeMsgCount(cohort, "movegroup"); g != 0 {
				t.Errorf("%d MoveGroup frames, want 0", g)
			}
			if g := dirCounter(cohort, "group_move"); g != 0 || countKind(cohort, obs.EvMoveGroupOut) != 0 {
				t.Errorf("group_move counters sum to %d; a cohort of one is no group", g)
			}
			if log1, log2 := obs.EventLog(cohort.Rec), obs.EventLog(alone.Rec); !bytes.Equal(log1, log2) {
				t.Errorf("cohort and one-at-a-time event logs differ (%d vs %d bytes)", len(log1), len(log2))
			}
		})
	}
}
