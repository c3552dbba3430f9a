// Directory lease tests: repeat lookups of a stable object must be served
// from the client-side lease cache (no shard query), leases must drop on
// epoch-fenced invalidation, expiry and suspicion, and the stale-location
// fixes must hold — a healed home redispatches instead of faulting, healed
// proxies stop re-querying the shard, and the locate chase budget resolves
// a chain of exactly maxLocateHops live hops.

package kernel

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/wire"
)

const repeatLocateSrc = `
object Probe
  operation ping() -> (r: String)
    r <- str(thisnode())
  end
end Probe
object Main
  process
    var p: Probe <- new Probe
    move p to node(1)
    print(locate(p))
    print(locate(p))
    print(locate(p))
    print(locate(p))
    print(locate(p))
    print(locate(p))
  end process
end Main
`

// TestDirLeaseSkipsRepeatLookups: with leases armed, only the first locate
// of a stable object pays a shard query; the rest hit the cached lease, and
// the program output is unchanged.
func TestDirLeaseSkipsRepeatLookups(t *testing.T) {
	models := []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}

	off := runSrc(t, repeatLocateSrc, models, dirConfig(3, nil))
	lookupsOff := dirCounter(off, "dir_lookups")
	if lookupsOff < 6 {
		t.Fatalf("lease-free run made %d shard queries, want one per locate (>= 6)", lookupsOff)
	}
	if dirCounter(off, "dir_lease_hits") != 0 || dirCounter(off, "dir_lease_expired") != 0 {
		t.Fatal("lease-free run recorded lease counters")
	}

	cfg := dirConfig(3, nil)
	cfg.DirLeaseMicros = 1_000_000
	on := runSrc(t, repeatLocateSrc, models, cfg)
	if on.OutputText() != off.OutputText() {
		t.Fatalf("lease arm changed output:\noff:\n%s\non:\n%s", off.OutputText(), on.OutputText())
	}
	hits := dirCounter(on, "dir_lease_hits")
	lookupsOn := dirCounter(on, "dir_lookups")
	if hits < 3 {
		t.Errorf("dir_lease_hits = %d, want >= 3 (three repeat locates)", hits)
	}
	// The acceptance bar: leases cut repeat lookups by at least half.
	if lookupsOn > lookupsOff/2 {
		t.Errorf("lease arm still made %d shard queries (lease-free: %d); want <= half", lookupsOn, lookupsOff)
	}
	if lookupsOn+hits != lookupsOff {
		t.Errorf("lookups(%d) + lease hits(%d) != lease-free lookups(%d); some locate went unaccounted",
			lookupsOn, hits, lookupsOff)
	}
}

// TestDirLeaseInvalidation drives the lease lifecycle directly on a node:
// epoch-fenced invalidation by decree, unconditional invalidation when the
// leased home becomes suspect, and expiry accounting.
func TestDirLeaseInvalidation(t *testing.T) {
	cfg := dirConfig(2, nil)
	cfg.DirLeaseMicros = 50_000
	c := runSrc(t, probeSrc, []netsim.MachineModel{mSun3, mSPARC}, cfg)
	n0 := c.Nodes[0]
	ghost := oid.ForRuntime(0, 901)

	// Epoch fence: an older or equal decree leaves the lease alone, a newer
	// one drops it.
	n0.dirLeases[ghost] = dirLease{node: 1, epoch: 3, expires: n0.now() + 50_000}
	n0.dirInvalidateLease(ghost, 2)
	n0.dirInvalidateLease(ghost, 3)
	if _, ok := n0.dirLeases[ghost]; !ok {
		t.Fatal("same/older-epoch decree dropped the lease")
	}
	n0.dirInvalidateLease(ghost, 4)
	if _, ok := n0.dirLeases[ghost]; ok {
		t.Fatal("newer-epoch decree left the lease")
	}

	// Suspicion: every lease pointing at the suspect peer drops.
	other := oid.ForRuntime(0, 902)
	n0.dirLeases[ghost] = dirLease{node: 1, epoch: 3, expires: n0.now() + 50_000}
	n0.dirLeases[other] = dirLease{node: 0, epoch: 1, expires: n0.now() + 50_000}
	n0.dropLeasesAt(1)
	if _, ok := n0.dirLeases[ghost]; ok {
		t.Fatal("lease pointing at the suspect peer survived")
	}
	if _, ok := n0.dirLeases[other]; !ok {
		t.Fatal("unrelated lease dropped on suspicion")
	}

	// Expiry: a lease past its deadline is discarded and counted, and the
	// query falls through to the shard.
	before := dirCounter(c, "dir_lease_expired")
	lookupsBefore := dirCounter(c, "dir_lookups")
	n0.dirLeases[ghost] = dirLease{node: 1, epoch: 3, expires: n0.now()}
	n0.dirLookupQuery(ghost, func(ok bool, node int32, epoch uint32) {})
	if got := dirCounter(c, "dir_lease_expired"); got != before+1 {
		t.Errorf("dir_lease_expired = %d, want %d", got, before+1)
	}
	if got := dirCounter(c, "dir_lookups"); got != lookupsBefore+1 {
		t.Errorf("expired lease did not fall through to a shard query")
	}
	if _, ok := n0.dirLeases[ghost]; ok {
		t.Fatal("expired lease still cached")
	}
}

const healedPingSrc = `
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
    var i: Int <- 0
    while i < 5000000 do
      i <- i + 1
    end
    print(p.ping())
    print(p.ping())
    print(p.ping())
  end process
end Main
`

// healedPlan crashes the probe's home early and restarts it well before the
// post-loop pings: the home is suspected (marking node 0's proxy stale),
// then heals.
func healedPlan() *chaos.Plan {
	return &chaos.Plan{
		Seed:           1,
		Crashes:        []chaos.Crash{{Node: 1, At: 200_000, RestartAt: 400_000}},
		HeartbeatEvery: 20_000,
		SuspectAfter:   100_000,
		CommitTimeout:  60_000,
		RTOBase:        20_000,
		RTOMax:         80_000,
		MaxRetrans:     5,
	}
}

// TestDirRerouteAfterRecovery is the healed-home regression: the directory
// record for the probe still names node 1 — the same node the proxy already
// knows — so the refresh changes nothing, yet the call must redispatch (the
// home is back up) instead of faulting. And the heal must stick: the two
// follow-up pings ride the healthy fast path without re-querying the shard
// on every invoke.
func TestDirRerouteAfterRecovery(t *testing.T) {
	models := []netsim.MachineModel{mSPARC, mSPARC, mSPARC}
	c := runSrc(t, healedPingSrc, models, dirConfig(3, healedPlan()))
	want := "node1\nnode1\nnode1\nnode1"
	if got := c.OutputText(); got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
	// The first post-heal ping rerouted through the directory exactly once;
	// the rest took the fast path. More lookups than reroutes means healed
	// proxies kept re-querying the shard on every invoke.
	reroutes := dirCounter(c, "dir_reroutes")
	lookups := dirCounter(c, "dir_lookups")
	if reroutes != 1 {
		t.Errorf("dir_reroutes = %d, want exactly 1 (the first post-heal ping)", reroutes)
	}
	if lookups != reroutes {
		t.Errorf("dir_lookups = %d with %d reroutes; healed proxy still re-queries per invoke",
			lookups, reroutes)
	}
}

// buildLocateChain plants a ghost forwarding chain for the probe: each node
// in hops[0..len-2] gets a proxy pointing at the next, and the final entry
// must be the probe's real home. Returns the probe OID.
func buildLocateChain(t *testing.T, c *Cluster, hops []int) oid.OID {
	t.Helper()
	home := hops[len(hops)-1]
	var probe oid.OID
	for id, o := range c.Nodes[home].objects {
		if o.Resident && o.Kind == ObjPlain && uint32(id) >= 0x10000 {
			probe = id
		}
	}
	if probe == 0 {
		t.Fatalf("probe object not found on node %d", home)
	}
	for i := 0; i+1 < len(hops); i++ {
		c.Nodes[hops[i]].proxyFor(probe, hops[i+1])
	}
	return probe
}

// TestLocateChaseHopBudgetBoundary: a chain of exactly maxLocateHops live
// forwards must still resolve — the budget is a bound on forwards taken,
// not on chain length minus one — while one more hop exhausts it, and the
// exhausted chase accounts its hops like a resolved one.
func TestLocateChaseHopBudgetBoundary(t *testing.T) {
	// 18 nodes: the probe lives on node 1, and nodes 2..17 form a ghost
	// forwarding chain 2 -> 3 -> ... -> 17 -> 1 (16 live forwards end to
	// end).
	models := make([]netsim.MachineModel, 18)
	for i := range models {
		models[i] = mSPARC
	}
	c := runSrc(t, probeSrc, models, Config{})
	chain := make([]int, 0, 17)
	for i := 2; i <= 17; i++ {
		chain = append(chain, i)
	}
	chain = append(chain, 1)
	probe := buildLocateChain(t, c, chain)

	drive := func(start int, hops uint16) (gotHops, exhausted uint64) {
		h0 := dirCounter(c, "locate_chase_hops")
		x0 := dirCounter(c, "locate_chase_exhausted")
		c.Nodes[start].recvLocate(0, &wire.Locate{
			Target: probe, Origin: 0, ReplyFrag: 0xdead0001, Hops: hops})
		if err := c.Run(1_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		return dirCounter(c, "locate_chase_hops") - h0,
			dirCounter(c, "locate_chase_exhausted") - x0
	}

	// 15 forwards (enter the chain one node in): resolves.
	if hops, exhausted := drive(3, 0); hops != maxLocateHops-1 || exhausted != 0 {
		t.Errorf("15-hop chain: hops=%d exhausted=%d, want %d/0", hops, exhausted, maxLocateHops-1)
	}
	// Exactly maxLocateHops forwards: must still resolve.
	if hops, exhausted := drive(2, 0); hops != maxLocateHops || exhausted != 0 {
		t.Errorf("16-hop chain: hops=%d exhausted=%d, want %d/0", hops, exhausted, maxLocateHops)
	}
	// One over budget (the chase arrives already one hop deep): fails after
	// walking the full budget, and the walked hops are accounted.
	if hops, exhausted := drive(2, 1); hops != maxLocateHops || exhausted != 1 {
		t.Errorf("17-hop chain: hops=%d exhausted=%d, want %d/1", hops, exhausted, maxLocateHops)
	}
}
