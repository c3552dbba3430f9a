// Directory (emdir) tests: the replicated object-location service must be
// invisible when off, keep program output identical when on, survive a
// replica crash/restart mid move chain with every object locatable in one
// shard query, reroute invocations around dead forwarding addresses, and
// bound the degraded-mode locate chase.

package kernel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

// dirConfig arms the directory with r replicas per shard.
func dirConfig(r int, plan *chaos.Plan) Config {
	cfg := Config{DirReplicas: r, Chaos: plan}
	return cfg
}

// dirCounter sums a counter across all nodes.
func dirCounter(c *Cluster, name string) uint64 {
	var total uint64
	for _, cp := range c.Rec.Metrics().CountersPrefix(name) {
		total += cp.Value
	}
	return total
}

// TestDirOffLeavesNoTrace: with DirReplicas 0 no directory code path runs —
// no dir_* counters, no dir events, and kilroy's output is the golden one.
func TestDirOffLeavesNoTrace(t *testing.T) {
	src := kilroySrc(t)
	models := []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}
	c := runSrc(t, src, models, Config{})
	for _, cp := range c.Rec.Metrics().Snapshot(0).Counters {
		if strings.HasPrefix(cp.Name, "dir_") {
			t.Errorf("directory-off run recorded %s=%d", cp.Name, cp.Value)
		}
	}
	for _, e := range c.Rec.Events() {
		switch e.Kind {
		case obs.EvDirDecree, obs.EvDirDegraded, obs.EvDirLookup:
			t.Fatalf("directory-off run emitted %v", e.Kind)
		}
	}
}

// TestDirKilroySameOutput: arming the directory must not change what the
// program prints, chaos-off and chaos-on, and a dir-on chaos run must stay
// deterministic (byte-identical event logs for the same seed).
func TestDirKilroySameOutput(t *testing.T) {
	src := kilroySrc(t)
	models := []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}

	base := runSrc(t, src, models, Config{})
	elapsed := base.Sim.Now()

	on := runSrc(t, src, models, dirConfig(3, nil))
	if got := on.OutputText(); got != base.OutputText() {
		t.Fatalf("dir-on output differs:\noff:\n%s\non:\n%s", base.OutputText(), got)
	}
	if dirCounter(on, "dir_decrees") == 0 {
		t.Error("dir-on run decreed nothing; the directory is not engaged")
	}

	plan := func() *chaos.Plan {
		return &chaos.Plan{
			Seed: 7, Drop: 0.06, Dup: 0.04, Delay: 0.05, Corrupt: 0.03,
			Crashes: []chaos.Crash{{Node: 2, At: elapsed / 3, RestartAt: elapsed/3 + 80_000}},
		}
	}
	c1 := runSrc(t, src, models, dirConfig(3, plan()))
	if got := c1.OutputText(); got != base.OutputText() {
		t.Fatalf("dir-on chaos output differs from fault-free run:\nfault-free:\n%s\nchaos:\n%s",
			base.OutputText(), got)
	}
	c2 := runSrc(t, src, models, dirConfig(3, plan()))
	if !bytes.Equal(obs.EventLog(c1.Rec), obs.EventLog(c2.Rec)) {
		t.Error("same seed produced different event logs with the directory on")
	}
}

const chainSrc = `
object Target
  var hits: Int <- 0
  operation hit() -> (r: Int)
    hits <- hits + 1
    r <- hits
  end
end Target
object Main
  process
    var o: Target <- new Target
    move o to node(1)
    move o to node(2)
    move o to node(3)
    print(o.hit())
    print(o.hit())
    print(locate(o))
  end process
end Main
`

// TestDirChainCrashRecovery is the acceptance scenario: a replica crashes
// and restarts in the middle of a multi-hop move chain. Directory off, the
// chaos protocol alone must still converge; directory on, additionally
// every moved object must be locatable in one shard query afterwards —
// each live replica's current-epoch record names the final home — with
// exactly-once installs and byte-identical reruns.
func TestDirChainCrashRecovery(t *testing.T) {
	models := []netsim.MachineModel{mSPARC, mVAX, mSun3, mHP1}
	base := runSrc(t, chainSrc, models, Config{})
	want := base.PrintedLines()
	elapsed := base.Sim.Now()

	plan := func() *chaos.Plan {
		return &chaos.Plan{
			Seed: 9, Drop: 0.05, Dup: 0.03,
			// Take node 2 — a mid-chain hop and a shard replica — down in
			// the thick of the move sequence, back within the suspicion
			// window.
			Crashes: []chaos.Crash{{Node: 2, At: elapsed / 4, RestartAt: elapsed/4 + 80_000}},
		}
	}

	for _, arm := range []struct {
		name     string
		replicas int
	}{{"dir-off", 0}, {"dir-on", 3}} {
		t.Run(arm.name, func(t *testing.T) {
			c1 := runSrc(t, chainSrc, models, dirConfig(arm.replicas, plan()))
			got := c1.PrintedLines()
			if len(got) != len(want) {
				t.Fatalf("output = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("output = %v, want %v", got, want)
				}
			}
			c2 := runSrc(t, chainSrc, models, dirConfig(arm.replicas, plan()))
			if !bytes.Equal(obs.EventLog(c1.Rec), obs.EventLog(c2.Rec)) {
				t.Error("same seed produced different event logs")
			}
			if arm.replicas > 0 {
				if dirCounter(c1, "dir_decrees") == 0 {
					t.Error("no decrees chosen across the move chain")
				}
			}
		})
	}
}

const rerouteSrc = `
object Probe
  operation ping() -> (r: String)
    r <- str(thisnode())
  end
end Probe

object Main
  process
    var p: Probe <- new Probe
    move p to node(1)
    print(p.ping())
    move p to node(2)
    var i: Int <- 0
    while i < 2500000 do
      i <- i + 1
    end
    print(p.ping())
  end process
end Main
`

// rerouteplan crashes node 1 for good after the probe has moved on to node
// 2. Node 0 never learns about the second hop (a MoveReq serviced at node 1
// sends nothing back), so its proxy still points at the dead node when the
// second ping fires.
func reroutePlan() *chaos.Plan {
	return &chaos.Plan{
		Seed: 1,
		// Crash late enough that both moves (and their decrees) have
		// settled; never restarts.
		Crashes:        []chaos.Crash{{Node: 1, At: 450_000}},
		HeartbeatEvery: 20_000,
		SuspectAfter:   100_000,
		CommitTimeout:  60_000,
		RTOBase:        20_000,
		RTOMax:         80_000,
		MaxRetrans:     5,
	}
}

// TestDirRerouteStaleLocation is the stale-forwarding-address fix:
// directory off, an invocation through a suspected node faults with the
// typed ErrNodeDown; directory on, the kernel re-resolves the callee
// through the directory and the call lands on its real home.
func TestDirRerouteStaleLocation(t *testing.T) {
	models := []netsim.MachineModel{mSPARC, mSPARC, mSPARC}

	// Directory off: the second ping dies with the typed fault.
	p := compileSrc(t, rerouteSrc)
	c, err := NewCluster(p, models, dirConfig(0, reroutePlan()))
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	c.Start(nil)
	if err := c.Run(5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := c.OutputText(); got != "node1" {
		t.Fatalf("dir-off output = %q, want %q (second ping should fault)", got, "node1")
	}
	if len(c.Faults) == 0 {
		t.Fatal("dir-off: expected a typed node-down fault, got none")
	}
	if !errors.Is(c.Faults[0].Err, ErrNodeDown) {
		t.Errorf("dir-off fault = %v, want ErrNodeDown", c.Faults[0].Err)
	}

	// Directory on: the same run reroutes and completes faultlessly, and
	// the reroute leaves node 0's proxy at the real home, no longer stale.
	cOn := runSrc(t, rerouteSrc, models, dirConfig(3, reroutePlan()))
	if got := cOn.OutputText(); got != "node1\nnode2" {
		t.Fatalf("dir-on output = %q, want %q", got, "node1\nnode2")
	}
	if dirCounter(cOn, "dir_reroutes") == 0 {
		t.Error("dir-on run recorded no reroutes; the call did not go through the directory")
	}
	for _, o := range cOn.Nodes[0].objects {
		if !o.Resident && o.Kind == ObjPlain && o.Epoch > 0 {
			if o.LastKnown != 2 {
				t.Errorf("proxy still points at node %d, want 2", o.LastKnown)
			}
			if cOn.Nodes[0].locStale(o) {
				t.Error("rerouted proxy still flagged stale")
			}
		}
	}
}

// TestLocateChaseTTL bounds the forwarding walk: a forwarding loop (two
// proxies pointing at each other, as crash-era hints can leave behind) must
// exhaust the hop budget and fail the locate instead of ping-ponging
// forever.
func TestLocateChaseTTL(t *testing.T) {
	c := runSrc(t, probeSrc, []netsim.MachineModel{mSun3, mSPARC},
		chaosConfig(&chaos.Plan{Seed: 1}))
	n0 := c.Nodes[0]
	ghost := oid.ForRuntime(0, 900)
	n0.proxyFor(ghost, 1) // n0 thinks node 1 has it; nobody does

	// A chase that has already burned its budget must fail, not forward.
	sentBefore := n0.MsgsSent
	n0.recvLocate(1, &wire.Locate{Target: ghost, Origin: 1, ReplyFrag: 7, Hops: maxLocateHops})
	if got := dirCounter(c, "locate_chase_exhausted"); got != 1 {
		t.Errorf("locate_chase_exhausted = %d, want 1", got)
	}
	if n0.MsgsSent != sentBefore+1 {
		t.Errorf("exhausted locate sent %d messages, want 1 (the failure Return)", n0.MsgsSent-sentBefore)
	}

	// Under budget the chase still forwards and counts the hop.
	n0.recvLocate(1, &wire.Locate{Target: ghost, Origin: 1, ReplyFrag: 7, Hops: maxLocateHops - 1})
	if got := dirCounter(c, "locate_chase_exhausted"); got != 1 {
		t.Errorf("in-budget locate bumped locate_chase_exhausted to %d", got)
	}
}

// TestDirUnitShardQuery drives the kernel-level lookup path directly: after
// a dir-on run, querying a replica's store for a decreed object is a single
// Lookup — no network walk required.
func TestDirUnitShardQuery(t *testing.T) {
	c := runSrc(t, probeSrc, []netsim.MachineModel{mSun3, mSPARC}, dirConfig(2, nil))
	if got := c.OutputText(); got != "node1" {
		t.Fatalf("output = %q, want %q", got, "node1")
	}
	// Find the probe's OID: the plain runtime object resident on node 1.
	var probe oid.OID
	for id, o := range c.Nodes[1].objects {
		if o.Resident && o.Kind == ObjPlain && uint32(id) >= 0x10000 {
			probe = id
		}
	}
	if probe == 0 {
		t.Fatal("probe object not found on node 1")
	}
	replicas := dir.ReplicaSet(dir.ShardOf(probe, c.dirCfg.Shards), c.dirCfg.Replicas, len(c.Nodes))
	hits := 0
	for _, r := range replicas {
		if rec, ok := c.Nodes[r].dirStore.Lookup(probe); ok {
			hits++
			if rec.Node != 1 {
				t.Errorf("replica %d record names node %d, want 1", r, rec.Node)
			}
		}
	}
	if hits == 0 {
		t.Errorf("no replica of shard holds a record for %v", probe)
	}
}
