package kernel

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

// custodyNode returns node 0 of a fresh four-node cluster under chaos (and
// cfg), and on it a proxy of a remote object last learned at node 1, epoch
// 1, and a call on that object that node 1 holds.
func custodyNode(t *testing.T, cfg Config) (*Cluster, *Node, *Obj, *Frag) {
	t.Helper()
	models := []netsim.MachineModel{mSPARC, mSPARC, mSPARC, mSPARC}
	cfg.Chaos = &chaos.Plan{Seed: 1}
	c, err := NewCluster(compileSrc(t, probeSrc), models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	o := n.proxyFor(oid.ForRuntime(1, 900), 1)
	o.Epoch = 1
	f := n.newFrag()
	n.blockCall(f, 1, o.OID)
	return c, n, o, f
}

// suspect has n suspect peer p, as heartbeat silence would; heard, p is
// heard from again at once, so the suspicion is only counted.
func suspect(n *Node, p int, heard bool) {
	n.link.Tick(p, n.now()+1<<40)
	if heard {
		if _, err := n.link.Recv(p, link.Heartbeat, n.now()); err != nil {
			panic(err)
		}
	}
}

// learnLoc moves a proxy only forward in epoch, a tie included, and only
// to another node of the cluster; it leaves resident objects and objects
// in transit alone. What it learns is not stale, and learning a suspected
// node fails the calls blocked on the object.
func TestLearnLoc(t *testing.T) {
	cases := []struct {
		name              string
		resident, transit bool
		node              int
		epoch             uint32
		learned           bool
	}{
		{"older epoch", false, false, 2, 0, false},
		{"equal epoch", false, false, 1, 1, true},
		{"newer epoch", false, false, 2, 2, true},
		{"this node", false, false, 0, 2, false},
		{"below the cluster", false, false, -1, 2, false},
		{"past the cluster", false, false, 4, 2, false},
		{"resident", true, false, 2, 2, false},
		{"in transit", true, true, 2, 2, false},
		{"suspected node", false, false, 3, 2, true},
	}
	for _, tc := range cases {
		c, n, o, f := custodyNode(t, Config{})
		o.Resident = tc.resident
		if tc.transit {
			o.transit = &liveMove{Data: moveData{obj: o}}
		}
		suspect(n, 1, true) // node 1 has been suspected since o learned it
		suspect(n, 3, false)
		n.learnLoc(o, tc.node, tc.epoch)
		wantNode, wantEpoch := 1, uint32(1)
		if tc.learned {
			wantNode, wantEpoch = tc.node, tc.epoch
		}
		if o.LastKnown != wantNode || o.Epoch != wantEpoch {
			t.Errorf("%s: proxy at node %d epoch %d, want node %d epoch %d", tc.name, o.LastKnown, o.Epoch, wantNode, wantEpoch)
		}
		if !tc.resident && n.locStale(o) == tc.learned {
			t.Errorf("%s: stale = %v, want %v", tc.name, n.locStale(o), !tc.learned)
		}
		faulted := len(c.Faults) == 1 && errors.Is(c.Faults[0].Err, ErrNodeDown) && c.Faults[0].Frag == f.ID
		if want := tc.node == 3; faulted != want || len(c.Faults) > 1 {
			t.Errorf("%s: faults %+v, want the call failed: %v", tc.name, c.Faults, want)
		}
	}
}

// A call forwarded 1 -> 2 -> 3: each forwarder reports its forward to the
// caller's node, over its own link, so the reports can arrive in either
// order. Only the node that holds the call moves it, so reversed, the call
// still waits at node 2; the proxy has learned node 3 all the same, and
// node 3's suspicion fails the call either way.
func TestCustodyReportsReversed(t *testing.T) {
	for _, reversed := range []bool{false, true} {
		c, n, o, f := custodyNode(t, Config{})
		from1 := &wire.UpdateLoc{Target: o.OID, Node: 2, Epoch: 2}
		from2 := &wire.UpdateLoc{Target: o.OID, Node: 3, Epoch: 3}
		wantWait := int32(3)
		if reversed {
			n.recvUpdateLoc(2, from2)
			if f.waitNode != 1 {
				t.Errorf("node 2's report moved a call node 1 holds to node %d", f.waitNode)
			}
			n.recvUpdateLoc(1, from1)
			wantWait = 2
		} else {
			n.recvUpdateLoc(1, from1)
			n.recvUpdateLoc(2, from2)
		}
		if f.waitNode != wantWait || o.LastKnown != 3 || o.Epoch != 3 {
			t.Errorf("reversed=%v: call waits at node %d, proxy at node %d epoch %d; want %d, 3, 3",
				reversed, f.waitNode, o.LastKnown, o.Epoch, wantWait)
		}
		suspect(n, 3, false)
		n.failWaitersOn(3)
		if len(c.Faults) != 1 || !errors.Is(c.Faults[0].Err, ErrNodeDown) {
			t.Errorf("reversed=%v: faults %+v, want the call failed with ErrNodeDown", reversed, c.Faults)
		}
	}
}

// dirAsk answers with the proxy's own knowledge when the directory's
// record is older than it, so that the proxy is not stale afterwards and a
// call that asked does not ask again for ever.
func TestDirAskKeepsNewerKnowledge(t *testing.T) {
	_, n, o, f := custodyNode(t, Config{DirReplicas: 3, DirLeaseMicros: 2_000_000})
	o.Epoch = 5
	suspect(n, 1, true)
	n.dirLeases[o.OID] = dirLease{node: 2, epoch: 3, expires: n.now() + 1_000_000}
	resumed := false
	n.dirAsk(f, o, func(*Node, *Frag, *Obj) { resumed = true })
	if !resumed || o.LastKnown != 1 || o.Epoch != 5 || n.locStale(o) {
		t.Errorf("resumed %v, proxy at node %d epoch %d, stale %v; want true, 1, 5, false",
			resumed, o.LastKnown, o.Epoch, n.locStale(o))
	}
}

// strandRun runs core's strand program on four SPARCs under its plan: node
// 0 calls an object through two forwarders, 1 and 2, and node 3, where the
// call runs, crashes for good at 1 s. seed, when set, is scheduled before
// the run. It returns the cluster and Run's error.
func strandRun(t *testing.T, seed func(c *Cluster)) (*Cluster, error) {
	return testdataRun(t, "strand.em", "seed=1,hb=20ms,suspect=100ms,crash=3@1s", 4, Config{}, seed)
}

// testdataRun runs core's testdata program name on nodes SPARCs under cfg
// and the chaos plan; seed, when set, is scheduled before the run. It
// returns the cluster and Run's error.
func testdataRun(t *testing.T, name, plan string, nodes int, cfg Config, seed func(c *Cluster)) (*Cluster, error) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "core", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := chaos.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]netsim.MachineModel, nodes)
	for i := range models {
		models[i] = mSPARC
	}
	cfg.Chaos = p
	c, err := NewCluster(compileSrc(t, string(src)), models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(nil)
	if seed != nil {
		seed(c)
	}
	return c, c.Run(5_000_000)
}

// A call whose callee's node is suspected while a move holds it fails
// where it ends up. Node 0's A.f awaits b.g() from node 1, and a move of A
// to node 2 holds the call from 318 ms to its commit at 356 ms. Node 1
// crashes at 320 ms: node 0 suspects it at 350 ms, inside the commit
// window, so that failure waits for the commit and lapses, and node 2,
// which installed the call with node 1 as its custodian, fails it. Node 1
// crashes at 300 ms: node 2 suspects it at 330 ms, before the call
// arrives at 331 ms, and fails it on arrival.
func TestHeldCallFailsWhereItMoved(t *testing.T) {
	for _, crash := range []string{"320ms", "300ms"} {
		c, err := testdataRun(t, "custody_call.em", "seed=1,hb=10ms,suspect=30ms,crash=1@"+crash, 3, Config{}, nil)
		if err != nil {
			t.Fatalf("crash at %s: Run = %v", crash, err)
		}
		if len(c.Faults) == 0 || c.Faults[0].Node != 2 || !errors.Is(c.Faults[0].Err, ErrNodeDown) {
			t.Errorf("crash at %s: faults %+v, want the first an ErrNodeDown on node 2", crash, c.Faults)
		}
	}
}

// custody_window.em's Return reaches node 0 after the move of A to node 2
// left and before it commits, so it waits for the outcome and follows the
// call to node 2 at the commit: without the directory it lands at 376 ms
// in a window of 368-406 ms, and with it at 434 ms in 368-453 ms. Its
// TestCommandLines rows check only the output, which a Return landing
// outside the window prints too.
func TestReturnLandsInCommitWindow(t *testing.T) {
	for _, dir := range []int{0, 3} {
		c, err := testdataRun(t, "custody_window.em", "seed=1", 3, Config{DirReplicas: dir}, nil)
		if err != nil || c.OutputText() != "true" {
			t.Fatalf("dir %d: Run = %v, output %q; want nil, \"true\"", dir, err, c.OutputText())
		}
		var out, commit, ret, fwd int64 = -1, -1, -1, -1
		for _, e := range c.Rec.Events() {
			switch {
			case e.Node != 0:
			case e.Kind == obs.EvMigrateOut && e.B == 2 && out < 0:
				out = e.At
			case e.Kind == obs.EvMoveCommit && e.B == 2:
				commit = e.At
			case e.Kind == obs.EvWireRecv && e.Str == "return" && e.B == 1 && ret < 0:
				ret = e.At
			case e.Kind == obs.EvWireSend && e.Str == "return" && e.B == 2 && fwd < 0:
				fwd = e.At
			}
		}
		if !(out >= 0 && out < ret && ret < commit && fwd == commit) {
			t.Errorf("dir %d: move out at %d µs, Return from node 1 at %d, commit at %d, Return sent to node 2 at %d; want out < Return < commit = send",
				dir, out, ret, commit, fwd)
		}
	}
}

// A move whose thread's top waits on a local continuation defers until
// the wait ends, rather than ship a call that has no custodian for the
// destination to refuse: a's move in custody_local.em commits at its
// first attempt, after c's.
func TestLocalWaitDefersMove(t *testing.T) {
	c, err := testdataRun(t, "custody_local.em", "seed=1", 3, Config{}, nil)
	if err != nil || c.OutputText() != "5" {
		t.Fatalf("Run = %v, output %q; want nil, \"5\"", err, c.OutputText())
	}
	var commits int
	for _, e := range c.Rec.Events() {
		switch e.Kind {
		case obs.EvMoveAbort:
			t.Errorf("move of %v aborted: %s", e.Obj, e.Str)
		case obs.EvMoveCommit:
			commits++
		}
	}
	if commits != 2 {
		t.Errorf("%d move commits, want 2", commits)
	}
}

// A call whose returning piece sits on a node that is down, and that the
// caller's node suspects, is a lost thread: no suspicion will fail it. The
// seed puts node 0's caller back where it waited before its custody
// followed the call to node 3, on node 2 with its proxy at node 2, just
// after the crash and before anyone suspects it; unseeded, node 3's
// suspicion fails the call.
func TestStrandedCallIsLost(t *testing.T) {
	c, err := strandRun(t, nil)
	if err != nil {
		t.Fatalf("unseeded: Run = %v", err)
	}
	if len(c.Faults) != 1 || c.Faults[0].Node != 0 || !errors.Is(c.Faults[0].Err, ErrNodeDown) {
		t.Fatalf("unseeded: faults %+v, want one ErrNodeDown on node 0", c.Faults)
	}
	_, err = strandRun(t, func(c *Cluster) {
		c.Sim.AtNode(0, 1_050_000, func() {
			n := c.Nodes[0]
			for _, f := range n.frags {
				if f.Status == FragStateBlockedCall {
					f.waitNode = 2
					n.objects[f.waitObj].LastKnown = 2
				}
			}
		})
	})
	var v *Violation
	if !errors.As(err, &v) || v.Invariant != invLostThread || v.Node != 0 {
		t.Fatalf("seeded: Run = %v, want a lost-thread violation on node 0", err)
	}
}
