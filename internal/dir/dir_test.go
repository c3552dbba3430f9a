package dir

import (
	"testing"

	"repro/internal/oid"
)

func TestNormalizeAndQuorum(t *testing.T) {
	c := Config{Replicas: 9, Shards: 0}.Normalize(4)
	if c.Replicas != 4 || c.Shards != 4 {
		t.Fatalf("normalize clamped to %+v", c)
	}
	if q := (Config{Replicas: 3}).Quorum(); q != 2 {
		t.Fatalf("quorum(3) = %d", q)
	}
	if q := (Config{Replicas: 1}).Quorum(); q != 1 {
		t.Fatalf("quorum(1) = %d", q)
	}
	if q := (Config{Replicas: 4}).Quorum(); q != 3 {
		t.Fatalf("quorum(4) = %d", q)
	}
}

func TestReplicaSetWraps(t *testing.T) {
	got := ReplicaSet(3, 3, 4)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("replica set %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replica set %v, want %v", got, want)
		}
	}
}

func TestAcceptorPromiseOrdering(t *testing.T) {
	var a Acceptor // the zero value is a fresh acceptor: nothing accepted is (0, -1)
	ok, _, accBal, accNode := a.Prepare(10)
	if !ok || accBal != 0 || accNode != -1 {
		t.Fatalf("first prepare: ok=%v accBal=%d accNode=%d", ok, accBal, accNode)
	}
	if ok, promised, _, _ := a.Prepare(5); ok || promised != 10 {
		t.Fatalf("lower prepare accepted (ok=%v promised=%d)", ok, promised)
	}
	if ok, _ := a.Accept(10, 2); !ok {
		t.Fatalf("accept at promised ballot refused")
	}
	// A later prepare must surface the accepted value.
	ok, _, accBal, accNode = a.Prepare(20)
	if !ok || accBal != 10 || accNode != 2 {
		t.Fatalf("prepare(20) = ok=%v accBal=%d accNode=%d", ok, accBal, accNode)
	}
	// An accept below the new promise is refused.
	if ok, _ := a.Accept(10, 3); ok {
		t.Fatalf("stale accept succeeded")
	}
}

func TestStoreLearnMonotoneEpoch(t *testing.T) {
	s := NewStore()
	o := oid.ForRuntime(0, 1)
	if !s.Learn(o, 2, 1) {
		t.Fatalf("first learn rejected")
	}
	if s.Learn(o, 3, 1) {
		t.Fatalf("equal-epoch learn overwrote")
	}
	if s.Learn(o, 3, 0) {
		t.Fatalf("older-epoch learn overwrote")
	}
	if !s.Learn(o, 3, 2) {
		t.Fatalf("newer-epoch learn rejected")
	}
	r, ok := s.Lookup(o)
	if !ok || r.Node != 3 || r.Epoch != 2 {
		t.Fatalf("lookup = %+v ok=%v", r, ok)
	}
	if _, ok := s.Lookup(oid.ForRuntime(1, 9)); ok {
		t.Fatalf("lookup of unknown object hit")
	}
}

// retryBallot burns the owner's accept-first round (as a silent timeout
// window would) and returns the ballot of the first retry round, which runs
// the full prepare/promise/accept exchange.
func retryBallot(start func() uint64) uint64 {
	first := start()
	b := start()
	if b <= first {
		panic("retry ballot not strictly higher")
	}
	return b
}

// one builds the length-1 proposal a single-object move drives.
func one(slot Slot, value, self int32, quorum int) Proposal {
	return NewProposal([]Entry{{Slot: slot, Value: value}}, self, quorum)
}

// list builds the multi-slot proposal of a MoveGroup cohort: slots[i]'s
// object recorded at values[i].
func list(slots []Slot, values []int32, self int32, quorum int) Proposal {
	es := make([]Entry, len(slots))
	for i := range es {
		es[i] = Entry{Slot: slots[i], Value: values[i]}
	}
	return NewProposal(es, self, quorum)
}

// none is the promise tail of a replica that has accepted nothing for any of
// n slots.
func none(n int) []Accepted {
	acc := make([]Accepted, n)
	for i := range acc {
		acc[i].Node = -1
	}
	return acc
}

// chosenAll is the accept phase's value vector.
func chosenAll(p *Proposal) []int32 {
	out := make([]int32, len(p.Entries))
	for i := range out {
		out[i] = p.Chosen(i)
	}
	return out
}

func TestProposalHappyPath(t *testing.T) {
	p := one(Slot{OID: 5, Epoch: 2}, 3, 0, 2)
	b := retryBallot(p.Start)
	if !p.Preparing() {
		t.Fatalf("retry round did not start in the prepare phase")
	}
	if p.OnAccepted(b, true, 0) {
		t.Fatalf("accepted counted before the promise quorum")
	}
	if p.OnPromise(b, true, none(1), 0) {
		t.Fatalf("quorum after one promise")
	}
	if !p.OnPromise(b, true, none(1), 0) {
		t.Fatalf("no quorum after two promises")
	}
	if v := p.Chosen(0); v != 3 {
		t.Fatalf("chose %d, want own value 3", v)
	}
	if p.OnAccepted(b, true, 0) {
		t.Fatalf("chosen after one accept")
	}
	if !p.OnAccepted(b, true, 0) {
		t.Fatalf("not chosen after quorum accepts")
	}
	if !p.Done() {
		t.Fatalf("not done after chosen")
	}
}

func TestProposalAdoptsAcceptedValue(t *testing.T) {
	p := one(Slot{OID: 5, Epoch: 2}, 3, 0, 2)
	b := retryBallot(p.Start)
	p.OnPromise(b, true, []Accepted{{Ballot: 7, Node: 1}}, 0) // a replica already accepted value 1 at ballot 7
	p.OnPromise(b, true, none(1), 0)
	if v := p.Chosen(0); v != 1 {
		t.Fatalf("chose %d, want adopted value 1", v)
	}
}

func TestProposalRestartJumpsNacks(t *testing.T) {
	p := one(Slot{OID: 5, Epoch: 2}, 3, 0, 2)
	b := p.Start()
	// Nacked: someone promised a much higher ballot.
	if p.OnAccepted(b, false, 99<<16) {
		t.Fatalf("nack advanced phase")
	}
	b2 := p.Start()
	if b2 <= 99<<16 {
		t.Fatalf("restart ballot %d did not jump past nacked ballot", b2)
	}
	if !p.Preparing() {
		t.Fatalf("a restart past a nack must prepare")
	}
	// Stale replies from the old round are ignored.
	if p.OnPromise(b, true, none(1), 0) || p.OnAccepted(b, true, 0) {
		t.Fatalf("stale-round reply counted")
	}
	if p.OnPromise(b2, true, none(1), 0) {
		t.Fatalf("quorum after one promise of the retry round")
	}
	if !p.OnPromise(b2, true, none(1), 0) || p.Done() {
		t.Fatalf("retry round: no promise quorum, or done before any accept")
	}
}

func TestProposalDistinctBallotsPerNode(t *testing.T) {
	pa, pb := one(Slot{OID: 1, Epoch: 1}, 0, 0, 1), one(Slot{OID: 1, Epoch: 1}, 0, 1, 1)
	a, b := pa.Start(), pb.Start()
	if a == b {
		t.Fatalf("two proposers issued the same ballot %d", a)
	}
}

func TestShardOfStable(t *testing.T) {
	o := oid.ForRuntime(2, 7)
	if ShardOf(o, 4) != ShardOf(o, 4) {
		t.Fatalf("shard not stable")
	}
	if s := ShardOf(o, 4); s < 0 || s > 3 {
		t.Fatalf("shard %d out of range", s)
	}
}

func TestNormalizeDiagEdges(t *testing.T) {
	// Replicas above the cluster size clamp with a diagnostic.
	c, diags := Config{Replicas: 9}.NormalizeDiag(4)
	if c.Replicas != 4 || len(diags) != 1 {
		t.Fatalf("over-cluster: cfg=%+v diags=%v", c, diags)
	}
	// Negative replicas are invalid and fall back to 1, with a diagnostic.
	c, diags = Config{Replicas: -3}.NormalizeDiag(4)
	if c.Replicas != 1 || len(diags) != 1 {
		t.Fatalf("negative: cfg=%+v diags=%v", c, diags)
	}
	// Zero is the documented "default" request: no diagnostic.
	c, diags = Config{Replicas: 0, Shards: 0}.NormalizeDiag(4)
	if c.Replicas != 1 || c.Shards != 4 || len(diags) != 0 {
		t.Fatalf("defaults: cfg=%+v diags=%v", c, diags)
	}
	// Shard edges mirror the replica edges.
	c, diags = Config{Replicas: 2, Shards: 9}.NormalizeDiag(4)
	if c.Shards != 4 || len(diags) != 1 {
		t.Fatalf("over-cluster shards: cfg=%+v diags=%v", c, diags)
	}
	c, diags = Config{Replicas: 2, Shards: -1}.NormalizeDiag(4)
	if c.Shards != 4 || len(diags) != 1 {
		t.Fatalf("negative shards: cfg=%+v diags=%v", c, diags)
	}
}

func TestGroupProposalSortsAndChooses(t *testing.T) {
	// Slots arrive unsorted; the proposal canonicalizes them with their
	// values kept parallel.
	slots := []Slot{{OID: 9, Epoch: 1}, {OID: 3, Epoch: 2}, {OID: 3, Epoch: 1}}
	vals := []int32{2, 3, 1}
	g := list(slots, vals, 0, 2)
	wantSlots := []Slot{{OID: 3, Epoch: 1}, {OID: 3, Epoch: 2}, {OID: 9, Epoch: 1}}
	wantVals := []int32{1, 3, 2}
	for i := range wantSlots {
		if g.Entries[i].Slot != wantSlots[i] || g.Entries[i].Value != wantVals[i] {
			t.Fatalf("canonical order %+v", g.Entries)
		}
	}
	b := retryBallot(g.Start)
	if g.Key() != wantSlots[0] {
		t.Fatalf("keyed by %+v, want the first canonical slot", g.Key())
	}
	if g.OnPromise(b, true, none(3), 0) {
		t.Fatalf("quorum after one promise")
	}
	if !g.OnPromise(b, true, none(3), 0) {
		t.Fatalf("no quorum after two promises")
	}
	cv := chosenAll(&g)
	for i := range wantVals {
		if cv[i] != wantVals[i] {
			t.Fatalf("chose %v, want own values %v", cv, wantVals)
		}
	}
	if g.OnAccepted(b, true, 0) {
		t.Fatalf("chosen after one accept")
	}
	if !g.OnAccepted(b, true, 0) || !g.Done() {
		t.Fatalf("not chosen after quorum accepts")
	}
}

func TestGroupProposalAdoptsPerSlot(t *testing.T) {
	g := list([]Slot{{OID: 1, Epoch: 1}, {OID: 2, Epoch: 1}}, []int32{3, 3}, 0, 2)
	b := retryBallot(g.Start)
	// One replica already accepted value 1 for the second slot at ballot 7.
	g.OnPromise(b, true, []Accepted{{Node: -1}, {Ballot: 7, Node: 1}}, 0)
	g.OnPromise(b, true, none(2), 0)
	cv := chosenAll(&g)
	if cv[0] != 3 || cv[1] != 1 {
		t.Fatalf("chose %v, want [3 1]", cv)
	}
}

func TestGroupProposalNackAndRestart(t *testing.T) {
	g := list([]Slot{{OID: 1, Epoch: 1}, {OID: 2, Epoch: 1}}, []int32{3, 3}, 0, 2)
	b := g.Start()
	if g.OnAccepted(b, false, 50<<16) {
		t.Fatalf("nack advanced phase")
	}
	b2 := g.Start()
	if b2 <= 50<<16 {
		t.Fatalf("restart ballot %d did not jump past nack", b2)
	}
	// Stale and malformed replies are ignored.
	if g.OnPromise(b, true, none(2), 0) {
		t.Fatalf("stale-round promise counted")
	}
	if g.OnPromise(b2, true, none(1), 0) {
		t.Fatalf("short reply counted")
	}
	g.OnPromise(b2, true, none(2), 0)
	if !g.OnPromise(b2, true, none(2), 0) {
		t.Fatalf("no quorum after two fresh promises")
	}
}

// TestOwnerRoundSkipsPrepare: the slot's only proposer opens with the accept
// phase — three acceptors that never saw a prepare accept its lowest ballot
// and the decree is chosen in one round trip. A promise for that ballot
// (there is no prepare it could answer) is ignored.
func TestOwnerRoundSkipsPrepare(t *testing.T) {
	p := one(Slot{OID: 5, Epoch: 2}, 3, 1, 2)
	b := p.Start()
	if p.Preparing() || p.Attempt() != 1 {
		t.Fatalf("first round: preparing=%v attempt=%d, want accept phase of attempt 1", p.Preparing(), p.Attempt())
	}
	if p.OnPromise(b, true, none(1), 0) || p.Progress() != 0 {
		t.Fatalf("a promise advanced a round that sent no prepare")
	}
	accs := make([]Acceptor, 3)
	chosen := false
	for i := range accs {
		ok, promised := accs[i].Accept(b, p.Chosen(0))
		if !ok {
			t.Fatalf("fresh acceptor %d refused the owner's ballot (promised %d)", i, promised)
		}
		if p.OnAccepted(b, ok, promised) {
			if chosen {
				t.Fatalf("chosen reported twice")
			}
			chosen = true
		}
	}
	if !chosen || !p.Done() || p.Chosen(0) != 3 {
		t.Fatalf("chosen=%v done=%v value=%d after three accepts", chosen, p.Done(), p.Chosen(0))
	}
}

// TestRetryAdoptsMinorityAccept: the owner's first-round accept lands on one
// replica of three and the rest of the round is lost. The retry must run
// prepare/promise under a strictly higher ballot, hear the planted value
// from that replica and re-propose it — so the value a late first-round
// reply could still report chosen is the only one the slot can ever hold —
// and the stale first-round accept is refused once the promise is out.
func TestRetryAdoptsMinorityAccept(t *testing.T) {
	accs := make([]Acceptor, 3)
	first := one(Slot{OID: 5, Epoch: 2}, 1, 0, 2)
	b1 := first.Start()
	if ok, _ := accs[2].Accept(b1, first.Chosen(0)); !ok {
		t.Fatalf("planting the first-round accept failed")
	}
	// The retrying proposer wants 3 here only to make adoption visible; in
	// the kernel the same proposer retries with the same value.
	p := one(Slot{OID: 5, Epoch: 2}, 3, 0, 2)
	p.Start()
	b2 := p.Start()
	if b2 <= b1 || !p.Preparing() {
		t.Fatalf("retry ballot %d (first %d), preparing=%v", b2, b1, p.Preparing())
	}
	quorum := false
	for i := 1; i < 3; i++ { // replicas 1 and 2 answer; 0 stays silent
		ok, promised, accBal, accNode := accs[i].Prepare(b2)
		quorum = p.OnPromise(b2, ok, []Accepted{{Ballot: accBal, Node: accNode}}, promised)
	}
	if !quorum || p.Preparing() {
		t.Fatalf("no promise quorum from two of three replicas")
	}
	if v := p.Chosen(0); v != 1 {
		t.Fatalf("retry proposes %d, want the planted value 1", v)
	}
	if ok, _ := accs[1].Accept(b1, 1); ok {
		t.Fatalf("a first-round accept was taken after the retry's promise")
	}
	for i := 1; i < 3; i++ {
		ok, promised := accs[i].Accept(b2, p.Chosen(0))
		p.OnAccepted(b2, ok, promised)
	}
	if !p.Done() {
		t.Fatalf("retry round did not reach chosen")
	}
}

// TestGroupOwnerRoundAndPerSlotRetry is the group variant: accept-first on
// attempt 1 with every slot's own value, and a retry that adopts slot by
// slot what a first round planted on a minority.
func TestGroupOwnerRoundAndPerSlotRetry(t *testing.T) {
	slots := []Slot{{OID: 1, Epoch: 1}, {OID: 2, Epoch: 1}}
	g := list(slots, []int32{3, 3}, 0, 2)
	b1 := g.Start()
	if g.Preparing() {
		t.Fatalf("group first round started in the prepare phase")
	}
	if cv := chosenAll(&g); cv[0] != 3 || cv[1] != 3 {
		t.Fatalf("owner round proposes %v, want own values [3 3]", cv)
	}
	if g.OnAccepted(b1, true, 0) || !g.OnAccepted(b1, true, 0) || !g.Done() {
		t.Fatalf("owner round did not choose at the accept quorum")
	}

	// A first round whose accept reached one replica for the second slot only.
	accs := [3][2]Acceptor{}
	accs[2][1].Accept(b1, 1)
	r := list(slots, []int32{3, 3}, 0, 2)
	r.Start()
	b2 := r.Start()
	if b2 <= b1 || !r.Preparing() {
		t.Fatalf("group retry ballot %d (first %d), preparing=%v", b2, b1, r.Preparing())
	}
	for i := 1; i < 3; i++ {
		acc := make([]Accepted, 2)
		for s := range slots {
			_, _, acc[s].Ballot, acc[s].Node = accs[i][s].Prepare(b2)
		}
		r.OnPromise(b2, true, acc, 0)
	}
	if cv := chosenAll(&r); r.Preparing() || cv[0] != 3 || cv[1] != 1 {
		t.Fatalf("group retry: preparing=%v proposes %v, want [3 1]", r.Preparing(), cv)
	}
}
