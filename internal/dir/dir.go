// Package dir implements the replicated object-location directory (emdir).
//
// The paper's kernels locate objects by chasing forwarding addresses left
// behind by moves (§4.3); a crash in the middle of a chain orphans every
// proxy pointing through the dead node. emdir replaces the chain as the
// primary location mechanism with ownership records — OID → (home node,
// epoch) — split into shards, replicated across a small replica set and
// updated by one Paxos round per move commit (one round for a whole
// cohort of objects that move together: see Proposal). Each move of an object is its own consensus
// instance, keyed by the (oid, epoch) slot the move's epoch bump created, so
// decrees from different moves never collide and a decree is immutable once
// chosen. After a crash/restart a locate is one shard query instead of a
// forwarding-address walk; the chase survives only as the degraded-mode
// fallback.
//
// This package holds the pure protocol state machines — acceptor, learner
// store, proposer — with no I/O and no time: the kernel drives message
// exchange over the simulated network (internal/kernel/dir.go) so directory
// traffic is charged and fault-injected like any other kernel traffic. The
// protocol shape follows the classic single-decree synod (cf. the paxos lab
// exemplar named in ROADMAP.md): prepare/promise, accept/accepted, learn —
// except that a slot's only proposer skips prepare/promise in its first
// round (see round.Start).
package dir

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/oid"
)

// Config sizes the directory.
type Config struct {
	// Replicas is the replica-set size per shard (clamped to node count).
	Replicas int
	// Shards is the number of shards; records hash to shards by OID.
	Shards int
}

// Normalize clamps the configuration to a cluster of n nodes: at least one
// replica, no more replicas than nodes, and one shard per node by default.
func (c Config) Normalize(n int) Config {
	c, _ = c.NormalizeDiag(n)
	return c
}

// NormalizeDiag is Normalize plus a diagnostic line per clamp, so callers
// holding a user-supplied configuration (emrun -dir n) can report what was
// adjusted instead of silently mis-sharding.
func (c Config) NormalizeDiag(n int) (Config, []string) {
	var diags []string
	if c.Shards < 0 {
		diags = append(diags, fmt.Sprintf("dir: %d shards invalid; using %d (one per node)", c.Shards, n))
	}
	if c.Shards <= 0 {
		c.Shards = n
	}
	if c.Shards > n {
		diags = append(diags, fmt.Sprintf("dir: %d shards exceed the %d-node cluster; clamped to %d", c.Shards, n, n))
		c.Shards = n
	}
	if c.Replicas < 0 {
		diags = append(diags, fmt.Sprintf("dir: %d replicas invalid; using 1", c.Replicas))
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > n {
		diags = append(diags, fmt.Sprintf("dir: %d replicas exceed the %d-node cluster; clamped to %d", c.Replicas, n, n))
		c.Replicas = n
	}
	return c, diags
}

// Quorum is the majority size of a replica set.
func (c Config) Quorum() int { return c.Replicas/2 + 1 }

// ShardOf maps an OID to its shard.
func ShardOf(o oid.OID, shards int) int {
	return int(uint32(o) % uint32(shards))
}

// ReplicaSet returns the (sorted) node IDs replicating a shard: the
// consecutive run of nodes starting at the shard index, wrapping mod n.
func ReplicaSet(shard, replicas, nodes int) []int {
	if replicas > nodes {
		replicas = nodes
	}
	set := make([]int, replicas)
	for i := range set {
		set[i] = (shard + i) % nodes
	}
	sort.Ints(set)
	return set
}

// Slot names one consensus instance: the decree that object o's move to
// epoch e landed on a particular home node. Epoch bumps on every move, so
// each move gets a fresh slot.
type Slot struct {
	OID   oid.OID
	Epoch uint32
}

// Compare orders slots canonically — by object, then epoch — for
// deterministic iteration.
func (s Slot) Compare(t Slot) int {
	return cmp.Or(cmp.Compare(s.OID, t.OID), cmp.Compare(s.Epoch, t.Epoch))
}

// Record is one ownership record: where an object lives as of an epoch.
type Record struct {
	Node  int32
	Epoch uint32
}

// Acceptor is the per-slot acceptor state held by each replica; the zero
// value is a fresh acceptor.
type Acceptor struct {
	Promised uint64 // highest ballot promised
	AccBal   uint64 // ballot of the accepted value, 0 if none
	AccNode  int32  // accepted value (home node), meaningful when AccBal > 0
}

// Prepare handles a prepare(ballot) request. On success it promises the
// ballot and reports any previously accepted (ballot, value) so the
// proposer can adopt it — (0, -1) when nothing was; on failure it reports
// the ballot that blocked.
func (a *Acceptor) Prepare(ballot uint64) (ok bool, promised, accBal uint64, accNode int32) {
	if ballot <= a.Promised {
		return false, a.Promised, 0, -1
	}
	a.Promised = ballot
	if a.AccBal == 0 {
		return true, ballot, 0, -1
	}
	return true, ballot, a.AccBal, a.AccNode
}

// Accept handles an accept(ballot, node) request: accepted iff the ballot
// is at least the promise.
func (a *Acceptor) Accept(ballot uint64, node int32) (ok bool, promised uint64) {
	if ballot < a.Promised {
		return false, a.Promised
	}
	a.Promised = ballot
	a.AccBal = ballot
	a.AccNode = node
	return true, ballot
}

// Store is the learner state: chosen ownership records, one per object,
// monotone in epoch. Replicas answer lookups from here.
type Store struct {
	recs map[oid.OID]Record
}

// NewStore returns an empty record store.
func NewStore() *Store { return &Store{recs: make(map[oid.OID]Record)} }

// Learn applies a chosen decree. Only strictly newer epochs overwrite (the
// same guard proxies apply to UpdateLoc hints), so replayed or reordered
// learns are harmless.
func (s *Store) Learn(o oid.OID, node int32, epoch uint32) bool {
	if r, ok := s.recs[o]; ok && epoch <= r.Epoch {
		return false
	}
	s.recs[o] = Record{Node: node, Epoch: epoch}
	return true
}

// Lookup answers the current record for an object, if any decree chose one.
func (s *Store) Lookup(o oid.OID) (Record, bool) {
	r, ok := s.recs[o]
	return r, ok
}

// Each calls fn for every record, in no particular order.
func (s *Store) Each(fn func(oid.OID, Record)) {
	for o, r := range s.recs {
		fn(o, r)
	}
}

// Proposal phases.
const (
	phaseIdle = iota
	phasePrepare
	phaseAccept
	phaseDone
)

// round is the ballot and quorum bookkeeping one decree's proposer keeps.
type round struct {
	Quorum int
	Ballot uint64 // current ballot, valid after Start

	self     int32 // proposer node id, disambiguates ballots
	attempt  uint32
	maxSeen  uint64 // highest ballot observed in nacks
	phase    int
	promises int
	accepts  int
	progress uint64 // counts every reply that advanced the current round
}

// Start begins the next round and returns its ballot. Ballots embed the
// proposer id so concurrent proposers never collide, and each restart jumps
// past every ballot observed in nacks.
//
// The first round starts in the accept phase: a slot (oid, epoch) is
// proposed only by the node that held the object at epoch-1, with a value
// fixed before it proposes, so nothing can have been accepted under a lower
// ballot and a first-round prepare could only ever hear "nothing accepted"
// (the textbook phase-1 elision for the owner of the lowest ballot). Every
// retry round runs the full prepare/promise/accept exchange under a
// strictly higher ballot, so an accept the first round planted on a
// minority is re-adopted like any other. The acceptor rule is unchanged.
func (r *round) Start() uint64 {
	for {
		r.attempt++
		b := uint64(r.attempt)<<16 | uint64(uint16(r.self+1))
		if b > r.maxSeen {
			r.Ballot = b
			break
		}
		if r.maxSeen>>16 > uint64(r.attempt) {
			r.attempt = uint32(r.maxSeen >> 16)
		}
	}
	r.phase = phasePrepare
	if r.attempt == 1 {
		r.phase = phaseAccept
	}
	r.promises = 0
	r.accepts = 0
	return r.Ballot
}

// Attempt reports how many rounds have started.
func (r *round) Attempt() int { return int(r.attempt) }

// Preparing reports whether the current round is in its prepare phase: the
// driver fans out prepares for it, accepts otherwise.
func (r *round) Preparing() bool { return r.phase == phasePrepare }

// Progress counts replies that advanced the current round. A timeout driver
// can compare snapshots of it to tell a round that is merely slower than
// the timeout window (replies still arriving — leave the ballot alone) from
// one that is truly stuck (nothing arrived — restart with a higher ballot).
func (r *round) Progress() uint64 { return r.progress }

// Done reports whether the decree has been chosen.
func (r *round) Done() bool { return r.phase == phaseDone }

// onPromise counts one promise (or notes a nack) for the given ballot. It
// reports whether the reply belongs to the live prepare round (the caller
// then merges its accepted state) and whether it completed the quorum.
func (r *round) onPromise(ballot uint64, ok bool, promised uint64) (live, quorum bool) {
	if !ok {
		r.maxSeen = max(r.maxSeen, promised)
		return false, false
	}
	if r.phase != phasePrepare || ballot != r.Ballot {
		return false, false // stale round
	}
	r.progress++
	r.promises++
	if r.promises < r.Quorum {
		return true, false
	}
	r.phase = phaseAccept
	return true, true
}

// OnAccepted processes one accepted (or nack) reply. It returns true
// exactly once, when a quorum has accepted and the decree is chosen.
func (r *round) OnAccepted(ballot uint64, ok bool, promised uint64) bool {
	if !ok {
		r.maxSeen = max(r.maxSeen, promised)
		return false
	}
	if r.phase != phaseAccept || ballot != r.Ballot {
		return false
	}
	r.progress++
	r.accepts++
	if r.accepts < r.Quorum {
		return false
	}
	r.phase = phaseDone
	return true
}

// Accepted is a replica's accepted state for one slot, as a promise reports
// it: the value Node accepted under Ballot, or Ballot 0 for nothing yet.
type Accepted struct {
	Ballot uint64
	Node   int32
}

// Entry is one slot of a proposal: the home this proposer wants recorded
// for it and the highest-ballot accepted state the current round's promises
// reported.
type Entry struct {
	Slot  Slot
	Value int32

	acc Accepted
}

// Proposal is the proposer side of one decree over a list of slots that
// share one shard replica set: a move's source node drives it once the
// destination has the object, a MoveGroup cohort's source drives one for the
// whole cohort, and a single-object decree is the list of length 1. The
// slots commit under one ballot with one set of protocol messages; each
// still has exactly one proposer (the move source that created it), so the
// list only amortizes messages and per-slot safety is the single-decree
// argument. A replica promises or accepts the list only when every slot
// passes its acceptor check, and a promise carries per-slot accepted state
// so a retry after a partial earlier round adopts it slot by slot. The
// kernel owns message exchange and timeouts; this struct owns ballots,
// quorum counting and value adoption.
type Proposal struct {
	round
	// Entries are in canonical slot order (the order every replica and every
	// rerun observes); the first slot keys the proposal at its proposer.
	Entries []Entry
}

// NewProposal builds a proposal over entries (each slot with the home to
// record for it), which it takes over and sorts into canonical order.
func NewProposal(entries []Entry, self int32, quorum int) Proposal {
	slices.SortFunc(entries, func(a, b Entry) int { return a.Slot.Compare(b.Slot) })
	return Proposal{round: round{Quorum: quorum, self: self}, Entries: entries}
}

// Key is the slot the proposer files this proposal under and replies echo.
func (p *Proposal) Key() Slot { return p.Entries[0].Slot }

// Start begins the next round (see round.Start), forgetting what earlier
// rounds' promises reported.
func (p *Proposal) Start() uint64 {
	for i := range p.Entries {
		p.Entries[i].acc = Accepted{}
	}
	return p.round.Start()
}

// OnPromise processes one promise (or nack) for the given ballot; acc is the
// replica's accepted state per slot, parallel to Entries. It returns true
// exactly once, when the quorum of promises is reached and the proposer
// should broadcast the accept with each slot's Chosen value.
func (p *Proposal) OnPromise(ballot uint64, ok bool, acc []Accepted, promised uint64) bool {
	if len(acc) != len(p.Entries) {
		return false // not an answer to this proposal's prepare; ignore
	}
	live, quorum := p.onPromise(ballot, ok, promised)
	if live {
		for i, a := range acc {
			if a.Ballot > p.Entries[i].acc.Ballot {
				p.Entries[i].acc = a
			}
		}
	}
	return quorum
}

// Chosen is the value to propose for Entries[i] in the accept phase: any
// value a quorum member already accepted wins over our own (the synod
// invariant), slot by slot.
func (p *Proposal) Chosen(i int) int32 {
	e := &p.Entries[i]
	if e.acc.Ballot > 0 && e.acc.Node >= 0 {
		return e.acc.Node
	}
	return e.Value
}
