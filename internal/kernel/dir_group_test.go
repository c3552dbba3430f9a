// Cohort-decree tests: a MoveGroup cohort's location records must commit as
// one multi-slot list in one quorum round (fewer decree messages than one
// round per member), survive a crash/restart with that round in
// flight — byte-identical reruns included — and decrees stalled by a
// network partition must resolve chosen once the partition heals.

package kernel

import (
	"bytes"
	"testing"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/wire"
)

// decreeMsgCount sums the per-kind message counters for the given wire
// kinds (as MsgKind.String() spells them).
func decreeMsgCount(c *Cluster, kinds ...string) uint64 {
	want := map[string]bool{}
	for _, k := range kinds {
		want["msg="+k] = true
	}
	var total uint64
	for _, cp := range c.Rec.Metrics().CountersPrefix("msgs") {
		if want[cp.Labels] {
			total += cp.Value
		}
	}
	return total
}

var decreeKinds = []string{"dirprepare", "dirpromise", "diraccept", "diraccepted", "dirlearn"}

// oneSlotBytes is the frame size of a decree message over one slot; a larger
// frame of the same kind carries a cohort's list.
func oneSlotBytes(msg func([]wire.DirEntry) wire.Payload) uint64 {
	return uint64(len((&wire.Msg{Payload: msg(make([]wire.DirEntry, 1))}).Marshal()))
}

var (
	singleAcceptBytes  = oneSlotBytes(func(l []wire.DirEntry) wire.Payload { return &wire.DirAccept{Slots: l} })
	singlePrepareBytes = oneSlotBytes(func(l []wire.DirEntry) wire.Payload { return &wire.DirPrepare{Slots: l} })
)

// TestDirGroupDecreeBatches: the {Service, Stats} cohort moves as one
// MoveGroup, so with the directory armed its two location records must
// commit in one group decree — fewer decree messages on the wire than the
// one-round-per-member control arm, with identical program output and the
// same final records.
func TestDirGroupDecreeBatches(t *testing.T) {
	models := []netsim.MachineModel{mSun3, mSPARC}
	cfg := func(noGroup bool) Config {
		c := autoConfig()
		c.DirReplicas = 2
		c.DirNoGroupDecrees = noGroup
		return c
	}

	grouped := runSrc(t, chattySrc, models, cfg(false))
	if got := grouped.OutputText(); got != chattyWant {
		t.Fatalf("grouped output = %q, want %q", got, chattyWant)
	}
	if countKind(grouped, obs.EvMoveGroupOut) == 0 {
		t.Fatal("no batched group transfer; the cohort never moved together")
	}
	if g := dirCounter(grouped, "dir_group_decrees"); g == 0 {
		t.Fatal("no group decrees despite a cohort move with the directory armed")
	}
	if s := dirCounter(grouped, "dir_group_slots"); s < 2 {
		t.Errorf("dir_group_slots = %d, want >= 2 (the two-member cohort)", s)
	}

	control := runSrc(t, chattySrc, models, cfg(true))
	if got := control.OutputText(); got != chattyWant {
		t.Fatalf("control output = %q, want %q", got, chattyWant)
	}
	if g := dirCounter(control, "dir_group_decrees"); g != 0 {
		t.Errorf("control arm ran %d group decrees with batching disabled", g)
	}

	// Both arms decree every cohort member; the grouped arm does it in
	// fewer protocol messages.
	if d1, d2 := dirCounter(grouped, "dir_decrees"), dirCounter(control, "dir_decrees"); d1 != d2 {
		t.Errorf("decree counts diverge: grouped %d, control %d", d1, d2)
	}
	gm := decreeMsgCount(grouped, decreeKinds...)
	cm := decreeMsgCount(control, decreeKinds...)
	if gm >= cm {
		t.Errorf("grouped arm sent %d decree messages, control %d; batching saved nothing", gm, cm)
	}
}

// TestDirGroupDecreeChaosReplay: crash the proposer one microsecond after
// the first frame of its group round leaves (the owner round's accept), and
// keep it down across the round window so the group timer fires while
// crashed and restart must re-arm it. The decree must still resolve
// chosen (the replica's accepted reply rides the reliable link through the
// outage), and the same seed must reproduce a byte-identical event log —
// the stalled group slots replay in order.
func TestDirGroupDecreeChaosReplay(t *testing.T) {
	models := []netsim.MachineModel{mSun3, mSPARC}
	// The round window must exceed the loaded link's round trip (the hot
	// caller saturates the medium, ~40ms one way), or ballot churn degrades
	// the decree before any reply lands.
	basePlan := func() *chaos.Plan { return &chaos.Plan{Seed: 11, CommitTimeout: 150_000} }
	cfg := func(p *chaos.Plan) Config {
		c := autoConfig()
		c.DirReplicas = 2
		c.Chaos = p
		return c
	}

	// Scout run (same seed, no crash — identical up to the crash instant):
	// find when the group round's first frame goes out.
	scout := runSrc(t, chattySrc, models, cfg(basePlan()))
	if got := scout.OutputText(); got != chattyWant {
		t.Fatalf("scout output = %q, want %q", got, chattyWant)
	}
	var roundAt int64
	for _, e := range scout.Rec.Events() {
		if e.Kind == obs.EvWireSend && e.Str == "diraccept" && e.A > singleAcceptBytes {
			roundAt = e.At
			break
		}
	}
	if roundAt == 0 {
		t.Fatal("scout run never started a group decree")
	}

	plan := func() *chaos.Plan {
		p := basePlan()
		// Down from just after that frame until past the 150ms round
		// window (the timer fires crashed), back inside the 400ms
		// suspicion timeout.
		p.Crashes = []chaos.Crash{{Node: 0, At: netsim.Micros(roundAt) + 1, RestartAt: netsim.Micros(roundAt) + 250_000}}
		return p
	}

	c1 := runSrc(t, chattySrc, models, cfg(plan()))
	if got := c1.OutputText(); got != chattyWant {
		t.Fatalf("chaos output = %q, want %q", got, chattyWant)
	}
	if countKind(c1, obs.EvNodeCrash) == 0 || countKind(c1, obs.EvNodeRestart) == 0 {
		t.Fatal("crash/restart never happened; the replay path was not exercised")
	}
	if dirCounter(c1, "dir_group_decrees") == 0 {
		t.Error("no group decree resolved across the crash")
	}
	if d := dirCounter(c1, "dir_degraded"); d != 0 {
		t.Errorf("dir_degraded = %d; the replayed group decree must resolve chosen", d)
	}
	if countKind(c1, obs.EvRetransmit) == 0 {
		t.Error("no retransmissions; the outage never bit the decree traffic")
	}

	c2 := runSrc(t, chattySrc, models, cfg(plan()))
	log1, log2 := obs.EventLog(c1.Rec), obs.EventLog(c2.Rec)
	if !bytes.Equal(log1, log2) {
		t.Errorf("same seed produced different event logs (%d vs %d bytes)", len(log1), len(log2))
	}
}

// TestDirNoGroupDecreesChaosPerMember: DirNoGroupDecrees selects list
// length and nothing else, under a chaos plan too. With it set no batch
// forms: every cohort member proposes its own one-slot decree the instant
// its own MoveAck arrives, before the next member's is even received. With
// it clear the cohort waits for its last MoveAck and sends one accept
// carrying every slot.
func TestDirNoGroupDecreesChaosPerMember(t *testing.T) {
	models := []netsim.MachineModel{mSun3, mSPARC}
	run := func(noGroup bool) (c *Cluster, acks, accepts []obs.Event) {
		cfg := autoConfig()
		cfg.DirReplicas = 2
		cfg.DirNoGroupDecrees = noGroup
		cfg.Chaos = &chaos.Plan{Seed: 11, CommitTimeout: 150_000}
		c = runSrc(t, chattySrc, models, cfg)
		if got := c.OutputText(); got != chattyWant {
			t.Fatalf("noGroup=%v output = %q, want %q", noGroup, got, chattyWant)
		}
		grouped := false // only the cohort's transfer is of interest
		for _, e := range c.Rec.Events() {
			switch {
			case e.Kind == obs.EvMoveGroupOut:
				grouped = true
			case !grouped || e.Node != 0:
			case e.Kind == obs.EvWireRecv && e.Str == "moveack":
				acks = append(acks, e)
			case e.Kind == obs.EvWireSend && e.Str == "diraccept":
				accepts = append(accepts, e)
			}
		}
		if len(acks) != 2 {
			t.Fatalf("noGroup=%v: the source received %d MoveAcks, want the cohort's 2", noGroup, len(acks))
		}
		return c, acks, accepts
	}

	c, acks, accepts := run(true)
	if g := dirCounter(c, "dir_group_decrees"); g != 0 {
		t.Errorf("control arm ran %d multi-slot decrees", g)
	}
	if len(accepts) != 2 {
		t.Fatalf("control arm sent %d accepts, want one per member", len(accepts))
	}
	for i, a := range accepts {
		if a.At != acks[i].At || a.A != singleAcceptBytes {
			t.Errorf("member %d: accept of %d bytes at %dµs, want a one-slot accept (%d bytes) on its own MoveAck at %dµs",
				i, a.A, a.At, singleAcceptBytes, acks[i].At)
		}
	}

	c, acks, accepts = run(false)
	if g := dirCounter(c, "dir_group_decrees"); g != 1 {
		t.Errorf("batching arm ran %d multi-slot decrees, want 1", g)
	}
	if len(accepts) != 1 || accepts[0].At != acks[1].At || accepts[0].A <= singleAcceptBytes {
		t.Errorf("batching arm accepts %+v, want one multi-slot accept on the last MoveAck at %dµs", accepts, acks[1].At)
	}
}

// TestDirPartitionHealDecreeLiveness: a partition splits the cluster in
// half mid-tour, short of the suspicion timeout. Decrees whose quorum
// straddles the cut stall against the partition; once it heals, link
// retransmission must deliver every round and every decree must resolve
// chosen — zero degraded records — with fault-free output and
// byte-identical reruns.
func TestDirPartitionHealDecreeLiveness(t *testing.T) {
	src := kilroySrc(t)
	models := []netsim.MachineModel{mSun3, mHP1, mSPARC, mVAX}

	base := runSrc(t, src, models, Config{})
	elapsed := base.Sim.Now()

	plan := func() *chaos.Plan {
		from := elapsed / 3
		until := from + 150_000 // heals well inside the 400ms suspicion window
		return &chaos.Plan{
			Seed: 5,
			Partitions: []chaos.Partition{
				{A: 0, B: 2, From: from, Until: until},
				{A: 0, B: 3, From: from, Until: until},
				{A: 1, B: 2, From: from, Until: until},
				{A: 1, B: 3, From: from, Until: until},
			},
		}
	}

	c1 := runSrc(t, src, models, dirConfig(3, plan()))
	if got := c1.OutputText(); got != base.OutputText() {
		t.Fatalf("partition run output differs:\nfault-free:\n%s\npartitioned:\n%s",
			base.OutputText(), got)
	}
	if countKind(c1, obs.EvRetransmit) == 0 {
		t.Fatal("no retransmissions; the partition never bit")
	}
	if d := dirCounter(c1, "dir_degraded"); d != 0 {
		t.Errorf("dir_degraded = %d; a healed partition must not degrade decrees", d)
	}
	if dirCounter(c1, "dir_decrees") == 0 {
		t.Error("no decrees chosen across the partitioned tour")
	}

	c2 := runSrc(t, src, models, dirConfig(3, plan()))
	if !bytes.Equal(obs.EventLog(c1.Rec), obs.EventLog(c2.Rec)) {
		t.Error("same seed produced different event logs under partition chaos")
	}
}
