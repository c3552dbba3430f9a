package kernel

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/netsim"
)

// The kernel's share of the allocation budget (DESIGN.md §11): a scheduler
// pass on a loaded node, and the life of one reliable link frame.

// twoSpinnersSrc keeps two compute-bound threads runnable on one node, so
// every slice ends in a poll that yields to the other.
const twoSpinnersSrc = `
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
`

// One scheduler event on a loaded node — schedPass pops the run queue, the
// slice runs to its poll, the yield trap re-enqueues the thread and
// schedule arms the next pass — allocates nothing: the trap is the
// runner's, the pass func is bound once, and the queue keeps its capacity.
func TestYieldEnqueueSchedPassAllocatesNothing(t *testing.T) {
	c, err := NewCluster(compileSrc(t, twoSpinnersSrc), []netsim.MachineModel{mSPARC}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(nil)
	for i := 0; i < 1000; i++ { // past bootstrap and code loading
		c.Sim.Step()
	}
	n := c.Nodes[0]
	before := n.Instrs
	got := testing.AllocsPerRun(1000, func() {
		if !c.Sim.Step() {
			t.Fatal("simulation ran dry")
		}
	})
	if got != 0 {
		t.Errorf("poll-yield → enqueue → schedPass = %v allocs/event, want 0", got)
	}
	if len(n.frags) != 2 || n.Instrs == before || len(c.Faults) != 0 {
		t.Fatalf("fixture is not two live spinners: %d frags, %d instrs run, faults %v",
			len(n.frags), n.Instrs-before, c.Faults)
	}
}

// One reliable frame's life — sent, delivered, acknowledged, its ack
// received, the frame retired and its timer fired dead — allocates
// nothing in steady state: the timeout that finds the frame acked hands
// it back to the link, and the next send reuses it with its
// retransmission buffer and its timer func. The events, both CRCs, both
// parses, the release and the ack's marshalling allocate nothing either.
// Node 1 answers with only its link (the payload here is not a protocol
// message).
func TestReliableFrameLifeAllocatesNothing(t *testing.T) {
	c := quiescedCluster(t, []netsim.MachineModel{mSPARC, mVAX}, chaosConfig(&chaos.Plan{Seed: 1}))
	n0, n1 := c.Nodes[0], c.Nodes[1]
	acked := 0
	c.Net.Attach(1, func(src int, buf []byte) {
		a, err := n1.link.Recv(src, buf, n1.now())
		if err != nil || len(a.Release) != 1 {
			t.Fatalf("node 1 received %+v, %v; want a data frame released", a, err)
		}
		acked++
		n1.netSend(src, a.Ack)
	})
	inner := make([]byte, 48)
	life := func() {
		n0.sendReliable(1, inner, "test")
		if err := c.Run(1000); err != nil {
			t.Fatal(err)
		}
		if !n0.link.Acked(1, n0.link.LastSeq(1)) {
			t.Fatal("frame still unacked after the run quiesced")
		}
	}
	life() // warm: queue, buffer pool, ack scratch, release scratch, a retired frame
	got := testing.AllocsPerRun(200, life)
	if got != 0 {
		t.Errorf("one reliable frame sent, acked and retired = %v allocs, want 0", got)
	}
	if acked != 202 {
		t.Errorf("node 1 acknowledged %d frames, want 202", acked)
	}
}

// One directory decree over one slot, start to finish — proposed by a node
// that is one of the slot's three replicas, accepted by all three, chosen,
// learned, and the proposal retired. Chaos-off that is 2 allocations, the
// proposal (its one-slot message list inside it) and its entry list: the
// accept, the learn and the three accepted replies are built on their
// senders' stacks and decoded into their receivers' inboxes, acceptors are
// map values and there is no completion closure. Under a plan the decree
// timer's func and the commit list add two; each of the six remote
// messages is a reliable frame, which reuses a retired one (0 each, pinned
// above). The slack is for the Enc pool: a miss costs the encoder and its
// buffer, and under -race sync.Pool drops a quarter of what is returned to
// it, six sends a decree.
func TestDirDecreeAllocBudget(t *testing.T) {
	const poolSlack = 4
	for _, tc := range []struct {
		name   string
		plan   *chaos.Plan
		budget float64
	}{
		{"chaos-off", nil, 2},
		{"plan", &chaos.Plan{Seed: 1}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := quiescedCluster(t, []netsim.MachineModel{mSPARC, mVAX, mSun3, mHP1}, dirConfig(3, tc.plan))
			n0 := c.Nodes[0]
			o := &Obj{OID: 4} // shard 0 of 4: replicas 0, 1, 2
			mv := &liveMove{Dest: 1, Data: moveData{obj: o}}
			if set := n0.dirReplicasOf(o.OID); len(set) != 3 || set[0] != 0 {
				t.Fatalf("replica set %v, want three replicas led by the proposer", set)
			}
			decree := func() {
				o.Epoch++ // every move opens a fresh slot
				n0.dirPropose([]*liveMove{mv})
				if err := c.Run(1000); err != nil {
					t.Fatal(err)
				}
				if len(n0.dirProps) != 0 {
					t.Fatal("decree still unresolved after the run quiesced")
				}
			}
			decree() // warm: queues, buffer pools, map buckets
			got := testing.AllocsPerRun(200, decree)
			if got > tc.budget+poolSlack {
				t.Errorf("one decree = %v allocs, want <= %v + %v of pool slack", got, tc.budget, poolSlack)
			}
			if d := dirCounter(c, "dir_decrees"); d != 202 || dirCounter(c, "dir_degraded") != 0 {
				t.Errorf("%d decrees chosen, want 202 and none degraded", d)
			}
			for _, r := range n0.dirReplicasOf(o.OID) {
				if rec, ok := c.Nodes[r].dirStore.Lookup(o.OID); !ok || rec.Epoch != o.Epoch || rec.Node != 1 {
					t.Errorf("replica %d holds %+v, want node 1 at epoch %d", r, rec, o.Epoch)
				}
			}
		})
	}
}

// spinnerSrc starts one compute-bound thread inside object A, which has a
// data slot (a move ships its value).
const spinnerSrc = `
object A
  var n: Int <- 7
  process
    var i: Int <- 0
    while i < 100000000 do
      i <- i + 1
    end
  end process
end A
`

// One steady-state chaos-off move of a plain object with a thread inside
// it — prepared, sent as a cohort of one, delivered and installed — costs
// at most 4 allocations: the move, its span, and the destination's
// fragment and monitor. The collector holds the Move by value, the slots'
// and activations' values come from the node's scratch arena, and
// chaos-off the move's commit steps run where they are made, so a lone
// move pays nothing for any of them.
func TestLoneMoveAllocBudget(t *testing.T) {
	c, err := NewCluster(compileSrc(t, spinnerSrc), []netsim.MachineModel{mSPARC, mVAX}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(nil)
	for i := 0; i < 1000; i++ { // past bootstrap and code loading
		c.Sim.Step()
	}
	var a *Obj
	for _, o := range c.Nodes[0].objects {
		if o.Resident && o.Kind == ObjPlain && o.Code.oc.Name == "A" {
			a = o
		}
	}
	if a == nil {
		t.Fatal("object A is not resident on node 0")
	}
	home := 0
	hop := func() {
		dest := 1 - home
		c.Nodes[home].moveGroup([]*Obj{c.Nodes[home].objects[a.OID]}, dest, false)
		for o := c.Nodes[dest].objects[a.OID]; o == nil || !o.Resident; o = c.Nodes[dest].objects[a.OID] {
			if !c.Sim.Step() {
				t.Fatal("simulation ran dry before the move installed")
			}
		}
		home = dest
	}
	for i := 0; i < 10; i++ { // warm: both nodes' scratch, queues and maps
		hop()
	}
	migrations := c.Nodes[0].Migrations + c.Nodes[1].Migrations
	got := testing.AllocsPerRun(200, hop)
	if got > 4 {
		t.Errorf("one plain move with its thread = %v allocs, want <= 4", got)
	}
	if m := c.Nodes[0].Migrations + c.Nodes[1].Migrations - migrations; m != 201 {
		t.Errorf("%d migrations, want 201", m)
	}
	if len(c.Nodes[home].frags) != 1 || len(c.Faults) != 0 {
		t.Fatalf("the thread did not travel with A: %d frags at its home, faults %v",
			len(c.Nodes[home].frags), c.Faults)
	}
}
