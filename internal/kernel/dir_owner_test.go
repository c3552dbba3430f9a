// Owner-round tests: a decree's first round is accept-first (the slot's
// only proposer needs no prepare), so an uncontended decree is one quorum
// round trip; the prepare/promise path survives as the retry path only and
// is forced here by crashing a replica majority across the first round.

package kernel

import (
	"bytes"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
)

// TestDirDecreeMessageCount pins what one uncontended decree costs on the
// wire: an accept, an accepted and a learn per replica other than the
// proposer itself (its own replica role is a local call), and no prepare or
// promise at all.
func TestDirDecreeMessageCount(t *testing.T) {
	src := kilroySrc(t)
	models := []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}
	c := runSrc(t, src, models, dirConfig(3, nil))
	var decrees, remote uint64
	for _, e := range c.Rec.Events() {
		if e.Kind != obs.EvDirDecree {
			continue
		}
		decrees++
		for _, r := range c.Nodes[e.Node].dirReplicasOf(oid.OID(e.Obj)) {
			if r != int(e.Node) {
				remote++
			}
		}
	}
	if decrees == 0 || remote >= 3*decrees {
		t.Fatalf("%d decrees, %d remote replica seats: want some decrees, some proposed by a replica", decrees, remote)
	}
	for _, k := range []string{"diraccept", "diraccepted", "dirlearn"} {
		if got := decreeMsgCount(c, k); got != remote {
			t.Errorf("%s messages = %d, want %d (one per remote replica per decree)", k, got, remote)
		}
	}
	for _, k := range []string{"dirprepare", "dirpromise"} {
		if got := decreeMsgCount(c, k); got != 0 {
			t.Errorf("%s messages = %d, want 0 on an uncontended run", k, got)
		}
	}
	if r, p := dirCounter(c, "dir_decree_rounds"), dirCounter(c, "dir_prepare_rounds"); r != decrees || p != 0 {
		t.Errorf("dir_decree_rounds = %d (want %d), dir_prepare_rounds = %d (want 0)", r, decrees, p)
	}
}

const fiveMovesSrc = `
object Probe
  operation ping() -> (r: String)
    r <- str(thisnode())
  end
end Probe

object Main
  process
    var a: Probe <- new Probe
    var b: Probe <- new Probe
    var c: Probe <- new Probe
    var d: Probe <- new Probe
    var e: Probe <- new Probe
    move a to node(1)
    print(a.ping())
    move b to node(1)
    print(b.ping())
    move c to node(1)
    print(c.ping())
    move d to node(1)
    print(d.ping())
    move e to node(1)
    print(e.ping())
  end process
end Main
`

// TestDirForcedPrepareFallback: two of a slot's three replicas crash one
// microsecond after the owner round's accepts leave and stay down for more
// than two commit windows. The surviving replica's accepted reply keeps the
// first window alive, the second is silent, and attempt 2 must go through
// prepare/promise under a higher ballot — re-adopting the accept the first
// round planted — and still decree the move's destination. No (oid, epoch)
// may ever hold two homes, on any node, and the run must replay byte for
// byte.
func TestDirForcedPrepareFallback(t *testing.T) {
	models := []netsim.MachineModel{mSPARC, mSPARC, mSPARC, mSPARC, mSPARC}
	const window = netsim.Micros(60_000)
	basePlan := func() *chaos.Plan { return &chaos.Plan{Seed: 9, CommitTimeout: window} }

	// Scout (no crash — identical up to the crash instant): find the first
	// decree with two replicas that are neither its proposer nor the move's
	// destination, and when its accepts go out.
	scout := runSrc(t, fiveMovesSrc, models, dirConfig(3, basePlan()))
	const want = "node1\nnode1\nnode1\nnode1\nnode1"
	if got := scout.OutputText(); got != want {
		t.Fatalf("scout output = %q, want %q", got, want)
	}
	if p := dirCounter(scout, "dir_prepare_rounds"); p != 0 {
		t.Fatalf("scout ran %d prepare rounds with no fault to force one", p)
	}
	var victims []int
	var slot dir.Slot
	var home uint64
	var acceptAt, prevDecree int64
	events := scout.Rec.Events()
	for _, e := range events {
		if e.Kind != obs.EvDirDecree {
			continue
		}
		victims = nil
		for _, r := range scout.Nodes[e.Node].dirReplicasOf(oid.OID(e.Obj)) {
			if r != int(e.Node) && r != int(e.B) {
				victims = append(victims, r)
			}
		}
		if len(victims) >= 2 {
			slot, home = dir.Slot{OID: oid.OID(e.Obj), Epoch: uint32(e.A)}, e.B
			break
		}
		prevDecree = e.At
	}
	if len(victims) < 2 {
		t.Fatal("no decree with two crashable replicas; the five probes should cover every shard")
	}
	for _, e := range events {
		if e.Kind == obs.EvWireSend && e.Str == "diraccept" && e.At >= prevDecree {
			acceptAt = e.At
			break
		}
	}
	if acceptAt == 0 {
		t.Fatal("scout never sent the chosen decree's accepts")
	}

	plan := func() *chaos.Plan {
		p := basePlan()
		for _, v := range victims[:2] {
			p.Crashes = append(p.Crashes, chaos.Crash{Node: v,
				At: netsim.Micros(acceptAt) + 1, RestartAt: netsim.Micros(acceptAt) + 5*window/2})
		}
		return p
	}
	c1 := runSrc(t, fiveMovesSrc, models, dirConfig(3, plan()))
	if got := c1.OutputText(); got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
	if countKind(c1, obs.EvNodeCrash) != 2 || countKind(c1, obs.EvNodeRestart) != 2 {
		t.Fatal("the two replica crash/restarts never happened")
	}

	// The retry ran the two-phase path: had it skipped prepare there would
	// be no prepare round, no prepare and no promise on the wire.
	if p := dirCounter(c1, "dir_prepare_rounds"); p == 0 {
		t.Error("dir_prepare_rounds = 0: the retry round skipped phase 1")
	}
	if decreeMsgCount(c1, "dirprepare") == 0 || decreeMsgCount(c1, "dirpromise") == 0 {
		t.Error("no dirprepare/dirpromise on the wire: the retry round skipped phase 1")
	}
	if r, d := dirCounter(c1, "dir_decree_rounds"), dirCounter(c1, "dir_decrees"); r <= d {
		t.Errorf("dir_decree_rounds = %d for %d decrees: no decree needed a second round", r, d)
	}
	if d := dirCounter(c1, "dir_degraded"); d != 0 {
		t.Errorf("dir_degraded = %d; the fallback must resolve chosen", d)
	}
	chosen := false
	for _, e := range c1.Rec.Events() {
		if e.Kind == obs.EvDirDecree && oid.OID(e.Obj) == slot.OID && uint32(e.A) == slot.Epoch {
			if chosen {
				t.Error("the disrupted slot was decreed twice")
			}
			chosen = true
			if e.B != home {
				t.Errorf("disrupted decree chose node %d, want node %d (the move's destination)", e.B, home)
			}
		}
	}
	if !chosen {
		t.Error("the disrupted decree never resolved")
	}

	c2 := runSrc(t, fiveMovesSrc, models, dirConfig(3, plan()))
	if !bytes.Equal(obs.EventLog(c1.Rec), obs.EventLog(c2.Rec)) {
		t.Error("same plan produced different event logs")
	}

	// The same fallback over a cohort's list: five replicas shared by every
	// shard, the three that are neither the cohort's source nor its
	// destination down across the owner round of the {Service, Stats}
	// decree. The retry's prepare, promises and accept carry both slots, and
	// each slot re-adopts what the first round planted.
	t.Run("cohort", func(t *testing.T) {
		models := []netsim.MachineModel{mSun3, mSPARC, mSPARC, mSPARC, mSPARC}
		const window = netsim.Micros(150_000) // above the loaded link's round trip
		cfg := func(crashAt netsim.Micros) Config {
			c := autoConfig()
			c.DirReplicas = 5
			c.Chaos = &chaos.Plan{Seed: 11, CommitTimeout: window}
			for v := 2; crashAt > 0 && v < 5; v++ {
				c.Chaos.Crashes = append(c.Chaos.Crashes,
					chaos.Crash{Node: v, At: crashAt, RestartAt: crashAt + 5*window/2})
			}
			return c
		}
		scout := runSrc(t, chattySrc, models, cfg(0))
		var acceptAt int64
		for _, e := range scout.Rec.Events() {
			if e.Kind == obs.EvWireSend && e.Str == "diraccept" && e.A > singleAcceptBytes {
				acceptAt = e.At
				break
			}
		}
		if scout.OutputText() != chattyWant || acceptAt == 0 || dirCounter(scout, "dir_prepare_rounds") != 0 {
			t.Fatalf("scout: output %q, cohort accept at %d, %d prepare rounds", scout.OutputText(),
				acceptAt, dirCounter(scout, "dir_prepare_rounds"))
		}

		c1 := runSrc(t, chattySrc, models, cfg(netsim.Micros(acceptAt)+1))
		if got := c1.OutputText(); got != chattyWant {
			t.Fatalf("output = %q, want %q", got, chattyWant)
		}
		if countKind(c1, obs.EvNodeCrash) != 3 || countKind(c1, obs.EvNodeRestart) != 3 {
			t.Fatal("the three replica crash/restarts never happened")
		}
		cohortPrepare := false
		for _, e := range c1.Rec.Events() {
			if e.Kind == obs.EvWireSend && e.Str == "dirprepare" && e.A > singlePrepareBytes {
				cohortPrepare = true
			}
		}
		if !cohortPrepare || decreeMsgCount(c1, "dirpromise") == 0 {
			t.Error("no multi-slot dirprepare (or no promise) on the wire: the cohort's retry skipped phase 1")
		}
		if g, d := dirCounter(c1, "dir_group_decrees"), dirCounter(c1, "dir_degraded"); g == 0 || d != 0 {
			t.Errorf("dir_group_decrees = %d, dir_degraded = %d; the cohort's fallback must resolve chosen", g, d)
		}

		c2 := runSrc(t, chattySrc, models, cfg(netsim.Micros(acceptAt)+1))
		if !bytes.Equal(obs.EventLog(c1.Rec), obs.EventLog(c2.Rec)) {
			t.Error("same plan produced different event logs")
		}
	})
}
