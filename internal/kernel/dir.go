// Replicated object directory (emdir), active only when Config.DirReplicas
// > 0. Every committed move drives one single-decree Paxos round (see
// internal/dir) recording the object's new home across the replicas of its
// shard; locates and stale-proxy re-resolution consult the directory first,
// and a per-node background compactor rewrites chained proxies so
// forwarding chains shrink to ≤1 hop. All directory traffic travels as
// ordinary protocol messages through sendMsg — charged, observed and
// fault-injected like any other kernel traffic — except that a node acting
// as a replica of its own query answers locally for just the syscall
// charge. Directory-off runs take none of these code paths: no messages,
// metrics, events or timers.
//
// Ordering with the two-phase move commit (twophase.go): under chaos the
// source proposes the decree only after the destination's positive MoveAck,
// and releases the object (commitMove) only once the decree resolves — so a
// chosen record never names a home that refused the install, and after a
// crash/restart a locate is one shard query. If the decree cannot complete
// (replica majority down), the round degrades after bounded attempts and
// the move commits anyway: availability of the move protocol is preserved
// and the forwarding-address chase covers the stale record. Chaos-off,
// delivery is certain and there are no competing proposers, so the decree
// is fire-and-forget at dispatch time.

package kernel

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

// DefaultDirCompactMicros is the default compactor tick period.
const DefaultDirCompactMicros = 200000 // 200 simulated ms

// dirMaxAttempts bounds decree prepare rounds before degrading.
const dirMaxAttempts = 3

// dirCompactBatch bounds proxies refreshed per compactor tick.
const dirCompactBatch = 4

// armDir enables the directory: sizes the shard/replica layout, computes
// the locality-aware replica placement from the netsim topology, and arms
// the per-node compactors. Compactor ticks are weak events (they never keep
// a finished simulation alive), mirroring heartbeats.
func (c *Cluster) armDir() {
	c.dirOn = true
	c.dirCfg = dir.Config{Replicas: c.Config.DirReplicas}.Normalize(len(c.Nodes))
	// Replica placement is fixed for the run: every node derives the same
	// table from the same topology, so no placement messages are needed.
	// On a uniform topology PlaceReplicas reproduces the consecutive
	// ReplicaSet exactly; with latency-skewed links each shard anchor
	// recruits its lowest-latency peers.
	cost := func(a, b int) int64 { return int64(c.Net.LinkExtraLatency(a, b)) }
	c.dirPlace = make([][]int, c.dirCfg.Shards)
	for s := range c.dirPlace {
		c.dirPlace[s] = dir.PlaceReplicas(s, c.dirCfg.Replicas, len(c.Nodes), cost)
	}
	for _, n := range c.Nodes {
		n.every(c.dirCompactPeriod(), n.dirCompactTick)
	}
}

func (c *Cluster) dirCompactPeriod() netsim.Micros {
	if c.Config.DirCompactPeriodMicros > 0 {
		return netsim.Micros(c.Config.DirCompactPeriodMicros)
	}
	return DefaultDirCompactMicros
}

// dirReplicasOf returns the replica set of o's shard (from the placement
// table armDir computed).
func (n *Node) dirReplicasOf(o oid.OID) []int {
	return n.cluster.dirPlace[dir.ShardOf(o, n.cluster.dirCfg.Shards)]
}

// dirLeasePeriod is the lease duration replicas grant on lookup hits
// (0: leases off).
func (c *Cluster) dirLeasePeriod() netsim.Micros {
	if c.Config.DirLeaseMicros > 0 {
		return netsim.Micros(c.Config.DirLeaseMicros)
	}
	return 0
}

// dirLease is one cached ownership record, granted by a shard replica with
// a simulated-time expiry. The holder drops it early when a learned decree
// or its own chosen decree supersedes the epoch, or when the recorded home
// becomes suspect.
type dirLease struct {
	node    int32
	epoch   uint32
	expires netsim.Micros
}

// dirInvalidateLease drops a cached lease superseded by a decree at epoch
// (epoch-fenced: replayed learns for older epochs leave a fresher lease
// alone).
func (n *Node) dirInvalidateLease(o oid.OID, epoch uint32) {
	if l, ok := n.dirLeases[o]; ok && epoch > l.epoch {
		delete(n.dirLeases, o)
	}
}

// dirSend routes a directory message: remote replicas through the normal
// (charged, reliable-under-chaos) send path, this node's own replica role
// synchronously for the syscall charge alone — the kernel never puts a
// frame on the medium addressed to itself.
func (n *Node) dirSend(dst int, p wire.Payload) {
	if dst == n.ID {
		n.charge(uint64(n.cluster.Costs.SyscallCycles))
		n.handleMsg(n.ID, p)
		return
	}
	n.sendMsg(dst, p)
}

// ------------------------------------------------------------- proposer

// dirProposal is the kernel side of one decree the local node is driving:
// the pure synod state plus replica fan-out and completion callbacks.
type dirProposal struct {
	p        *dir.Proposal
	replicas []int
	// done callbacks fire once, when the decree resolves (chosen or
	// degraded); the move commit gates on them under chaos.
	done []func(chosen bool)
	// stalledTimer: the round timer fired while this node was down;
	// restart re-arms it.
	stalledTimer bool
}

// dirPropose starts (or joins) the decree recording object o at home as of
// epoch. done, if non-nil, fires when the decree resolves.
func (n *Node) dirPropose(o oid.OID, epoch uint32, home int32, done func(chosen bool)) {
	slot := dir.Slot{OID: o, Epoch: epoch}
	if dp, ok := n.dirProps[slot]; ok {
		if done != nil {
			dp.done = append(dp.done, done)
		}
		return
	}
	dp := &dirProposal{
		p:        dir.NewProposal(slot, home, int32(n.ID), n.cluster.dirCfg.Quorum()),
		replicas: n.dirReplicasOf(o),
	}
	if done != nil {
		dp.done = append(dp.done, done)
	}
	n.dirProps[slot] = dp
	n.dirRound(dp)
}

// dirRound starts the decree's next round under a fresh ballot and fans
// out the phase dir.Proposal.Start landed in: the accept straight away in
// the owner's first round, a prepare in every retry round (whose promise
// quorum then sends the accept from recvDirPromise).
func (n *Node) dirRound(dp *dirProposal) {
	dp.p.Start()
	if dp.p.Preparing() {
		n.cluster.Rec.Metrics().Add("dir_prepare_rounds", n.labels, 1)
	}
	n.dirFanOut(dp)
	n.armDirTimer(dp)
}

// dirFanOut sends the current phase's request to every replica of the
// slot's shard. With a single-replica set containing this node the whole
// decree resolves synchronously inside the first dirSend, so the fan-out
// re-checks that the proposal is still the live one.
func (n *Node) dirFanOut(dp *dirProposal) {
	slot, prepare := dp.p.Slot, dp.p.Preparing()
	for _, r := range dp.replicas {
		if n.dirProps[slot] != dp {
			return
		}
		if prepare {
			n.dirSend(r, &wire.DirPrepare{Target: slot.OID, Epoch: slot.Epoch, Ballot: dp.p.Ballot})
		} else {
			n.dirSend(r, &wire.DirAccept{Target: slot.OID, Epoch: slot.Epoch,
				Ballot: dp.p.Ballot, Node: dp.p.ChosenValue()})
		}
	}
}

// armDirTimer watches one decree round (chaos only — without faults every
// round completes). A window that saw replies arrive means the round is
// merely slower than the window — keep the ballot and wait another window;
// a silent window means the round is stuck, so the proposer retries with a
// higher ballot, up to dirMaxAttempts silent windows, then degrades: the
// decree is abandoned, callers fall back to forwarding addresses, and the
// record heals on the object's next move.
func (n *Node) armDirTimer(dp *dirProposal) {
	if !n.chaosOn() {
		return
	}
	attempt := dp.p.Attempt()
	progress := dp.p.Progress()
	n.sched.At(n.cluster.Chaos.CommitWindow(), func() {
		if n.dirProps[dp.p.Slot] != dp || dp.p.Done() {
			return
		}
		if !n.Up {
			dp.stalledTimer = true
			return
		}
		if dp.p.Attempt() != attempt {
			return // a newer round owns the live timer
		}
		if dp.p.Progress() != progress {
			n.armDirTimer(dp)
			return
		}
		if attempt >= dirMaxAttempts {
			n.dirResolve(dp, false, "decree attempts exhausted")
			return
		}
		n.dirRound(dp)
	})
}

// dirResolve finishes a decree (chosen or degraded) and fires the waiters.
func (n *Node) dirResolve(dp *dirProposal, chosen bool, reason string) {
	delete(n.dirProps, dp.p.Slot)
	if !chosen {
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvDirDegraded, Obj: uint32(dp.p.Slot.OID), Str: reason})
		n.cluster.Rec.Metrics().Add("dir_degraded", n.labels, 1)
	}
	done := dp.done
	dp.done = nil
	for _, f := range done {
		f(chosen)
	}
}

// recvDirPromise counts one promise; on quorum it broadcasts the accept.
func (n *Node) recvDirPromise(src int, p *wire.DirPromise) {
	slot := dir.Slot{OID: p.Target, Epoch: p.Epoch}
	dp := n.dirProps[slot]
	if dp == nil || dp.p.Done() {
		return
	}
	if dp.p.OnPromise(p.Ballot, p.Ok, p.AccBallot, p.AccNode, p.Promised) {
		n.dirFanOut(dp)
	}
}

// recvDirAccepted counts one accept; on quorum the decree is chosen: the
// proposer announces it to every replica and releases the waiters.
func (n *Node) recvDirAccepted(src int, p *wire.DirAccepted) {
	slot := dir.Slot{OID: p.Target, Epoch: p.Epoch}
	dp := n.dirProps[slot]
	if dp == nil {
		return
	}
	if !dp.p.OnAccepted(p.Ballot, p.Ok, p.Promised) {
		return
	}
	v := dp.p.ChosenValue()
	lbl := n.labels
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvDirDecree, Obj: uint32(slot.OID), A: uint64(slot.Epoch), B: uint64(v)})
	n.cluster.Rec.Metrics().Add("dir_decrees", lbl, 1)
	n.cluster.Rec.Metrics().Add("dir_decree_rounds", lbl, uint64(dp.p.Attempt()))
	n.dirInvalidateLease(slot.OID, slot.Epoch)
	for _, r := range dp.replicas {
		n.dirSend(r, &wire.DirLearn{Target: slot.OID, Epoch: slot.Epoch, Node: v})
	}
	n.dirResolve(dp, true, "")
}

// ------------------------------------------------------------- replica

// recvDirPrepare answers a prepare from this node's acceptor state.
func (n *Node) recvDirPrepare(src int, p *wire.DirPrepare) {
	slot := dir.Slot{OID: p.Target, Epoch: p.Epoch}
	a := n.dirAcc[slot]
	if a == nil {
		a = &dir.Acceptor{AccNode: -1}
		n.dirAcc[slot] = a
	}
	ok, promised, accBal, accNode := a.Prepare(p.Ballot)
	n.dirSend(src, &wire.DirPromise{Target: p.Target, Epoch: p.Epoch, Ballot: p.Ballot,
		Ok: ok, Promised: promised, AccBallot: accBal, AccNode: accNode})
}

// recvDirAccept answers an accept from this node's acceptor state.
func (n *Node) recvDirAccept(src int, p *wire.DirAccept) {
	slot := dir.Slot{OID: p.Target, Epoch: p.Epoch}
	a := n.dirAcc[slot]
	if a == nil {
		a = &dir.Acceptor{AccNode: -1}
		n.dirAcc[slot] = a
	}
	ok, promised := a.Accept(p.Ballot, p.Node)
	n.dirSend(src, &wire.DirAccepted{Target: p.Target, Epoch: p.Epoch, Ballot: p.Ballot,
		Ok: ok, Promised: promised})
}

// recvDirLearn applies a chosen decree to this replica's record store. The
// slot is decided, so its acceptor scratch state retires; each move of one
// object uses a fresh slot, and only the move's source proposes for it, so
// the slot can never be reopened.
func (n *Node) recvDirLearn(src int, p *wire.DirLearn) {
	n.dirStore.Learn(p.Target, p.Node, p.Epoch)
	delete(n.dirAcc, dir.Slot{OID: p.Target, Epoch: p.Epoch})
	n.dirInvalidateLease(p.Target, p.Epoch)
}

// dirAcceptor returns (creating on demand) this replica's acceptor for a
// slot.
func (n *Node) dirAcceptor(slot dir.Slot) *dir.Acceptor {
	a := n.dirAcc[slot]
	if a == nil {
		a = &dir.Acceptor{AccNode: -1}
		n.dirAcc[slot] = a
	}
	return a
}

// ------------------------------------------------- batched group decrees
//
// A MoveGroup cohort's location records commit in ONE multi-object quorum
// round: one DirGPrepare/DirGAccept fan-out covers every member slot
// instead of one single-decree round per member, cutting decree wire bytes
// per migrated object. Safety needs no new argument — each slot still has
// exactly one proposer (the cohort's source), the group just shares the
// ballot and the messages. The timers, degrade bound and crash/restart
// replay mirror the single-decree driver.

// dirGroupProposal is the kernel side of one group decree this node is
// driving.
type dirGroupProposal struct {
	g        *dir.GroupProposal
	replicas []int
	token    uint32
	done     []func(chosen bool)
	// stalledTimer: the round timer fired while this node was down;
	// restart re-arms it (in token order, after the single-decree slots).
	stalledTimer bool
}

// dirSlotRefs converts protocol slots to their wire form.
func dirSlotRefs(slots []dir.Slot) []wire.DirSlotRef {
	refs := make([]wire.DirSlotRef, len(slots))
	for i, s := range slots {
		refs[i] = wire.DirSlotRef{Target: s.OID, Epoch: s.Epoch}
	}
	return refs
}

// dirProposeGroup starts the batched decree recording each slots[i]'s
// object at homes[i]. Every slot must map to the same shard replica set
// (the cohort groupers guarantee it); a group of one degenerates to the
// single-decree path. done, if non-nil, fires when the group resolves.
func (n *Node) dirProposeGroup(slots []dir.Slot, homes []int32, done func(chosen bool)) {
	if len(slots) == 0 {
		return
	}
	if len(slots) == 1 {
		n.dirPropose(slots[0].OID, slots[0].Epoch, homes[0], done)
		return
	}
	n.dirGTok++
	gp := &dirGroupProposal{
		g:        dir.NewGroupProposal(slots, homes, int32(n.ID), n.cluster.dirCfg.Quorum()),
		replicas: n.dirReplicasOf(slots[0].OID),
		token:    n.dirGTok,
	}
	if done != nil {
		gp.done = append(gp.done, done)
	}
	n.dirGProps[gp.token] = gp
	n.dirGRound(gp)
}

// dirGRound starts the group decree's next round: one fresh ballot covering
// every member slot, accept-first in the owner's first round and prepare-
// first in every retry, exactly like dirRound.
func (n *Node) dirGRound(gp *dirGroupProposal) {
	gp.g.Start()
	if gp.g.Preparing() {
		n.cluster.Rec.Metrics().Add("dir_prepare_rounds", n.labels, 1)
	}
	n.dirGFanOut(gp)
	n.armDirGTimer(gp)
}

// dirGFanOut sends the current phase's group request to every replica of
// the shared shard.
func (n *Node) dirGFanOut(gp *dirGroupProposal) {
	refs, vals, prepare := dirSlotRefs(gp.g.Slots), gp.g.ChosenValues(), gp.g.Preparing()
	for _, r := range gp.replicas {
		if n.dirGProps[gp.token] != gp {
			return
		}
		if prepare {
			n.dirSend(r, &wire.DirGPrepare{Token: gp.token, Ballot: gp.g.Ballot, Slots: refs})
		} else {
			n.dirSend(r, &wire.DirGAccept{Token: gp.token, Ballot: gp.g.Ballot,
				Slots: refs, Nodes: vals})
		}
	}
}

// armDirGTimer watches one group round, with the same
// progress-or-retry-or-degrade policy as the single-decree timer.
func (n *Node) armDirGTimer(gp *dirGroupProposal) {
	if !n.chaosOn() {
		return
	}
	attempt := gp.g.Attempt()
	progress := gp.g.Progress()
	n.sched.At(n.cluster.Chaos.CommitWindow(), func() {
		if n.dirGProps[gp.token] != gp || gp.g.Done() {
			return
		}
		if !n.Up {
			gp.stalledTimer = true
			return
		}
		if gp.g.Attempt() != attempt {
			return // a newer round owns the live timer
		}
		if gp.g.Progress() != progress {
			n.armDirGTimer(gp)
			return
		}
		if attempt >= dirMaxAttempts {
			n.dirGResolve(gp, false, "group decree attempts exhausted")
			return
		}
		n.dirGRound(gp)
	})
}

// dirGResolve finishes a group decree (chosen or degraded) and fires the
// waiters.
func (n *Node) dirGResolve(gp *dirGroupProposal, chosen bool, reason string) {
	delete(n.dirGProps, gp.token)
	if !chosen {
		for _, s := range gp.g.Slots {
			n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
				Kind: obs.EvDirDegraded, Obj: uint32(s.OID), Str: reason})
		}
		n.cluster.Rec.Metrics().Add("dir_degraded", n.labels, uint64(len(gp.g.Slots)))
	}
	done := gp.done
	gp.done = nil
	for _, f := range done {
		f(chosen)
	}
}

// recvDirGPromise counts one group promise; on quorum it broadcasts the
// group accept with the per-slot value vector.
func (n *Node) recvDirGPromise(src int, p *wire.DirGPromise) {
	gp := n.dirGProps[p.Token]
	if gp == nil || gp.g.Done() {
		return
	}
	if gp.g.OnPromise(p.Ballot, p.Ok, p.AccBallots, p.AccNodes, p.Promised) {
		n.dirGFanOut(gp)
	}
}

// recvDirGAccepted counts one group accept; on quorum every member decree
// is chosen at once: per-slot decree events and learns, one group round's
// worth of messages.
func (n *Node) recvDirGAccepted(src int, p *wire.DirGAccepted) {
	gp := n.dirGProps[p.Token]
	if gp == nil {
		return
	}
	if !gp.g.OnAccepted(p.Ballot, p.Ok, p.Promised) {
		return
	}
	vals := gp.g.ChosenValues()
	lbl := n.labels
	for i, s := range gp.g.Slots {
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvDirDecree, Obj: uint32(s.OID), A: uint64(s.Epoch), B: uint64(vals[i])})
		n.dirInvalidateLease(s.OID, s.Epoch)
	}
	n.cluster.Rec.Metrics().Add("dir_decrees", lbl, uint64(len(gp.g.Slots)))
	n.cluster.Rec.Metrics().Add("dir_decree_rounds", lbl, uint64(gp.g.Attempt()))
	n.cluster.Rec.Metrics().Add("dir_group_decrees", lbl, 1)
	n.cluster.Rec.Metrics().Add("dir_group_slots", lbl, uint64(len(gp.g.Slots)))
	learn := &wire.DirGLearn{Slots: dirSlotRefs(gp.g.Slots), Nodes: vals}
	for _, r := range gp.replicas {
		n.dirSend(r, learn)
	}
	n.dirGResolve(gp, true, "")
}

// recvDirGPrepare answers a group prepare: every member slot must promise
// the ballot for the group to promise. Slots promised before a blocking
// one keep their (higher) promise — promising more never violates
// safety, and the proposer's retry ballot will clear the bar everywhere.
func (n *Node) recvDirGPrepare(src int, p *wire.DirGPrepare) {
	ok := true
	var blocked uint64
	accBals := make([]uint64, len(p.Slots))
	accNodes := make([]int32, len(p.Slots))
	for i, s := range p.Slots {
		a := n.dirAcceptor(dir.Slot{OID: s.Target, Epoch: s.Epoch})
		sok, promised, accBal, accNode := a.Prepare(p.Ballot)
		if !sok {
			ok = false
			if promised > blocked {
				blocked = promised
			}
			continue
		}
		accBals[i] = accBal
		accNodes[i] = accNode
	}
	reply := &wire.DirGPromise{Token: p.Token, Ballot: p.Ballot, Ok: ok, Promised: blocked}
	if ok {
		reply.AccBallots = accBals
		reply.AccNodes = accNodes
	}
	n.dirSend(src, reply)
}

// recvDirGAccept answers a group accept: every member slot must accept for
// the group to accept (partial accepts are safe — a slot's value can only
// be adopted by this same proposer's retry).
func (n *Node) recvDirGAccept(src int, p *wire.DirGAccept) {
	if len(p.Nodes) != len(p.Slots) {
		return // malformed (corrupt frame survived CRC); drop
	}
	ok := true
	var blocked uint64
	for i, s := range p.Slots {
		a := n.dirAcceptor(dir.Slot{OID: s.Target, Epoch: s.Epoch})
		sok, promised := a.Accept(p.Ballot, p.Nodes[i])
		if !sok {
			ok = false
			if promised > blocked {
				blocked = promised
			}
		}
	}
	n.dirSend(src, &wire.DirGAccepted{Token: p.Token, Ballot: p.Ballot, Ok: ok, Promised: blocked})
}

// recvDirGLearn applies a chosen group decree member by member, exactly
// like the equivalent run of single learns.
func (n *Node) recvDirGLearn(src int, p *wire.DirGLearn) {
	if len(p.Nodes) != len(p.Slots) {
		return
	}
	for i, s := range p.Slots {
		n.dirStore.Learn(s.Target, p.Nodes[i], s.Epoch)
		delete(n.dirAcc, dir.Slot{OID: s.Target, Epoch: s.Epoch})
		n.dirInvalidateLease(s.Target, s.Epoch)
	}
}

// recvDirLookup answers a location query from this replica's record store,
// granting a read lease on hits when leases are armed.
func (n *Node) recvDirLookup(src int, p *wire.DirLookup) {
	r, ok := n.dirStore.Lookup(p.Target)
	reply := &wire.DirLookupReply{Target: p.Target, Token: p.Token, Ok: ok,
		Node: r.Node, Epoch: r.Epoch}
	if !ok {
		reply.Node = -1
	}
	if ok {
		if lp := n.cluster.dirLeasePeriod(); lp > 0 {
			reply.Lease = uint32(lp)
		}
	}
	n.dirSend(src, reply)
}

// ------------------------------------------------------------- lookups

// dirLookup is one outstanding location query.
type dirLookup struct {
	oid  oid.OID
	done func(ok bool, node int32, epoch uint32)
	// stalledTimer: the query timeout fired while this node was down;
	// restart re-arms it.
	stalledTimer bool
	token        uint32
}

// dirLookupQuery asks one replica of o's shard for its ownership record —
// the O(1) locate. It prefers this node's own replica role (free and
// synchronous), else the first unsuspected replica. timed arms a degrade
// timeout under chaos; callers with a blocked fragment on the line want it,
// the compactor does not (its queries carry no strong timers, so an idle
// simulation can finish). done always fires exactly once; ok=false means
// degraded or miss and the caller falls back to the forwarding chase.
func (n *Node) dirLookupQuery(o oid.OID, timed bool, done func(ok bool, node int32, epoch uint32)) {
	lbl := n.labels
	if n.cluster.dirLeasePeriod() > 0 {
		if l, ok := n.dirLeases[o]; ok {
			if n.now() >= l.expires {
				delete(n.dirLeases, o)
				n.cluster.Rec.Metrics().Add("dir_lease_expired", lbl, 1)
			} else if n.suspects[int(l.node)] || int(l.node) == n.ID {
				// The leased home is suspect (the record is about to be
				// superseded or the chase must cover it) or names this very
				// node while the object is not resident here — either way
				// the lease is useless; drop it and ask the shard.
				delete(n.dirLeases, o)
			} else {
				// Lease hit: answer from the cached record for just the
				// syscall charge — no shard query, no messages. The same
				// monotonic epoch guard that fences replica records
				// (dirRefreshProxy) fences this one at the caller.
				n.charge(uint64(n.cluster.Costs.SyscallCycles))
				n.cluster.Rec.Metrics().Add("dir_lease_hits", lbl, 1)
				done(true, l.node, l.epoch)
				return
			}
		}
	}
	n.cluster.Rec.Metrics().Add("dir_lookups", lbl, 1)
	target := -1
	for _, r := range n.dirReplicasOf(o) {
		if r == n.ID {
			target = r
			break
		}
		if target < 0 && !n.suspects[r] {
			target = r
		}
	}
	if target < 0 {
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvDirDegraded, Obj: uint32(o), Str: "all replicas suspected"})
		n.cluster.Rec.Metrics().Add("dir_degraded", lbl, 1)
		done(false, -1, 0)
		return
	}
	n.dirTok++
	lk := &dirLookup{oid: o, done: done, token: n.dirTok}
	n.dirLooks[lk.token] = lk
	if timed && n.chaosOn() && target != n.ID {
		n.armDirLookupTimer(lk)
	}
	n.dirSend(target, &wire.DirLookup{Target: o, Token: lk.token})
}

// armDirLookupTimer degrades a remote query whose reply does not arrive
// within the commit window (replica crashed after suspicion checks, reply
// stalled). The fallback chase still answers the caller.
func (n *Node) armDirLookupTimer(lk *dirLookup) {
	n.sched.At(n.cluster.Chaos.CommitWindow(), func() {
		if n.dirLooks[lk.token] != lk {
			return
		}
		if !n.Up {
			lk.stalledTimer = true
			return
		}
		delete(n.dirLooks, lk.token)
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvDirDegraded, Obj: uint32(lk.oid), Str: "lookup timeout"})
		n.cluster.Rec.Metrics().Add("dir_degraded", n.labels, 1)
		lk.done(false, -1, 0)
	})
}

// recvDirLookupReply resolves an outstanding query.
func (n *Node) recvDirLookupReply(src int, p *wire.DirLookupReply) {
	lk := n.dirLooks[p.Token]
	if lk == nil {
		return // timed out and degraded, or duplicate
	}
	delete(n.dirLooks, p.Token)
	hit := uint64(0)
	if p.Ok {
		hit = 1
		n.cluster.Rec.Metrics().Add("dir_lookup_hits", n.labels, 1)
		if p.Lease > 0 && n.cluster.dirLeasePeriod() > 0 {
			n.dirLeases[p.Target] = dirLease{node: p.Node, epoch: p.Epoch,
				expires: n.now() + netsim.Micros(p.Lease)}
		}
	}
	n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
		Kind: obs.EvDirLookup, Obj: uint32(p.Target), A: hit, B: uint64(uint32(p.Node))})
	lk.done(p.Ok, p.Node, p.Epoch)
}

// dirRefreshProxy applies a directory record to a local proxy. Records are
// quorum-chosen truths, so they overwrite hint-derived knowledge of the
// same epoch; strictly older records never regress the proxy (the same
// monotonicity guard UpdateLoc uses). Reports whether the proxy moved.
func (n *Node) dirRefreshProxy(o *Obj, node int32, epoch uint32) bool {
	if o.Resident || o.transit != nil || node < 0 || int(node) >= len(n.cluster.Nodes) {
		return false
	}
	if int(node) == n.ID {
		// The record names this node but the object is not resident here:
		// an inbound move's decree raced the install, or we re-exported it.
		// Never point a proxy at ourselves.
		return false
	}
	if epoch > o.Epoch || (epoch == o.Epoch && int(node) != o.LastKnown) {
		o.LastKnown = int(node)
		o.Epoch = epoch
		o.LocStale = false
		o.chained = false
		return true
	}
	if epoch == o.Epoch && int(node) == o.LastKnown {
		o.LocStale = false
	}
	return false
}

// dirLocate services a locate for a blocked fragment: one shard query, then
// the (refreshed) forwarding protocol — the resident node still produces
// the authoritative answer, the directory just collapses the walk to ≤1
// hop. On miss or degrade the chase runs from the old hint unchanged.
func (n *Node) dirLocate(f *Frag, o *Obj) {
	n.dirLookupQuery(o.OID, true, func(ok bool, node int32, epoch uint32) {
		if cur, live := n.objects[o.OID]; live && cur == o && !o.Resident {
			if ok {
				n.dirRefreshProxy(o, node, epoch)
			}
			n.sendMsg(o.LastKnown, &wire.Locate{
				Target: o.OID, Origin: int32(n.ID), ReplyFrag: f.ID,
			})
			return
		}
		// The object became resident here while the query was in flight
		// (an inbound move landed): answer directly.
		n.pushTemp(f, uint32(n.ID))
		n.enqueue(f)
	})
}

// dirRerouteInvoke re-resolves a suspected-or-stale callee location through
// the directory before giving up on the invocation. Any record naming a
// healthy home lets the call redispatch — including the record that merely
// confirms the proxy's current knowledge (the home crashed, restarted and
// was unsuspected again while LocStale was still set: the call must go
// through, not fault). Only when the freshest location the directory knows
// is still a suspected node does the invocation fail, with the same typed
// fault the directory-free path raises.
func (n *Node) dirRerouteInvoke(f *Frag, recv *Obj, opName string, args []uint32) {
	f.Status = FragStateBlockedCall
	f.waitNode = -1
	n.dirLookupQuery(recv.OID, true, func(ok bool, node int32, epoch uint32) {
		if recv.Resident {
			// An inbound move landed the callee here mid-query.
			f.Status = FragStateReady
			n.dispatchCall(f, recv, opName, args)
			return
		}
		if ok {
			n.dirRefreshProxy(recv, node, epoch)
		}
		if !n.suspects[recv.LastKnown] {
			// The redispatch target is as fresh as the directory can make
			// it; clear the stale bit so the next invoke takes the fast
			// path instead of re-querying the shard every call.
			recv.LocStale = false
			n.cluster.Rec.Metrics().Add("dir_reroutes", n.labels, 1)
			f.Status = FragStateReady
			n.invokeRemote(f, recv, opName, args)
			return
		}
		recv.LocStale = false // fault now; a later suspicion re-marks
		n.faultErr(f, ErrNodeDown, fmt.Sprintf("remote invocation of %s on %v: node %d is down",
			opName, recv.OID, recv.LastKnown))
	})
}

// invalidateLocationsAt marks every proxy whose cached location points at
// the newly suspected peer: the forwarding address may dangle. The marks
// steer directory-armed lookups and the compactor; without the directory
// they are inert bits.
func (n *Node) invalidateLocationsAt(peer int) {
	for _, o := range n.objects {
		if !o.Resident && o.transit == nil && o.LastKnown == peer {
			o.LocStale = true
		}
	}
	// Leases pointing at the suspect peer drop too: a crashed home's record
	// is exactly the staleness a lease must not serve through.
	for o, l := range n.dirLeases {
		if int(l.node) == peer {
			delete(n.dirLeases, o)
		}
	}
}

// ------------------------------------------------------------ compactor

// dirCompactTick is the background chain compactor: each tick it refreshes
// a bounded batch of flagged proxies (chained through by traffic, or
// location-stale after a suspicion) from the directory, rewriting them to
// the decreed home so forwarding chains truncate to ≤1 hop. A weak
// periodic tick, like heartbeats.
func (n *Node) dirCompactTick() {
	if !n.Up {
		return
	}
	var ids []oid.OID
	for id, o := range n.objects {
		if !o.Resident && o.transit == nil && (o.LocStale || o.chained) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	if len(ids) > dirCompactBatch {
		ids = ids[:dirCompactBatch]
	}
	for _, id := range ids {
		id := id
		n.dirLookupQuery(id, false, func(ok bool, node int32, epoch uint32) {
			o := n.objects[id]
			if o == nil || o.Resident {
				return
			}
			// One query per flagging either way: a miss (the object never
			// moved under the directory) clears the flags too, or the
			// compactor would re-query it every tick forever.
			if ok && n.dirRefreshProxy(o, node, epoch) {
				n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
					Kind: obs.EvDirCompact, Obj: uint32(id), A: uint64(epoch), B: uint64(uint32(node))})
				n.cluster.Rec.Metrics().Add("dir_compactions", n.labels, 1)
			}
			o.LocStale = false
			o.chained = false
		})
	}
}

// -------------------------------------------------- move-commit ordering

// dirProposeMove drives the decree for a positively-acked move and commits
// the transaction when the decree resolves — chosen or degraded — provided
// the span is still pending (the commit timer cannot have aborted it: a
// delivered, acked move retires the timer; this is belt and braces).
func (n *Node) dirProposeMove(tx *moveTxn) {
	span := tx.span
	n.dirPropose(tx.obj.OID, tx.obj.Epoch, int32(tx.dest), func(chosen bool) {
		if cur, live := n.pendingCommits[span]; !live || cur != tx {
			return
		}
		n.commitMove(tx)
	})
}

// dirReplicaKey identifies o's shard replica set for cohort grouping: two
// members batch into one group decree exactly when their shards replicate
// on the same node set. Membership is what matters — placement orders the
// same set differently per shard anchor — so the key is sorted.
func (n *Node) dirReplicaKey(o oid.OID) string {
	replicas := n.dirReplicasOf(o)
	sorted := make([]int, len(replicas))
	copy(sorted, replicas)
	sort.Ints(sorted)
	return fmt.Sprint(sorted)
}

// dirGroupBatch collects one MoveGroup cohort's in-flight transactions
// under chaos so their decrees ride batched group rounds: members' MoveAcks
// arrive back to back (the whole cohort installs in one frame event), the
// batch waits until every member resolves — positively acked, refused or
// aborted — then proposes one group decree per replica set over the acked
// members. Each member's commit still gates on its decree resolving, like
// the single-object path.
type dirGroupBatch struct {
	outstanding int
	ready       []*moveTxn
}

// dirBatchAcked records one positively-acked member; the last resolution
// triggers the batched proposals.
func (n *Node) dirBatchAcked(tx *moveTxn) {
	b := tx.dirBatch
	tx.dirBatch = nil
	b.ready = append(b.ready, tx)
	b.outstanding--
	if b.outstanding == 0 {
		n.dirBatchPropose(b)
	}
}

// dirBatchDrop removes an aborted or refused member from its batch (no-op
// for batchless transactions); the remaining acked members still decree.
func (n *Node) dirBatchDrop(tx *moveTxn) {
	b := tx.dirBatch
	if b == nil {
		return
	}
	tx.dirBatch = nil
	b.outstanding--
	if b.outstanding == 0 && len(b.ready) > 0 {
		n.dirBatchPropose(b)
	}
}

// dirBatchPropose groups the batch's acked members by replica set and
// drives one group decree per set (singles degenerate), committing each
// member when its group resolves.
func (n *Node) dirBatchPropose(b *dirGroupBatch) {
	var order []string
	groups := map[string][]*moveTxn{}
	for _, tx := range b.ready {
		key := n.dirReplicaKey(tx.obj.OID)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], tx)
	}
	for _, key := range order {
		txs := groups[key]
		if len(txs) == 1 {
			n.dirProposeMove(txs[0])
			continue
		}
		slots := make([]dir.Slot, len(txs))
		homes := make([]int32, len(txs))
		for i, tx := range txs {
			slots[i] = dir.Slot{OID: tx.obj.OID, Epoch: tx.obj.Epoch}
			homes[i] = int32(tx.dest)
		}
		n.dirProposeGroup(slots, homes, func(chosen bool) {
			for _, tx := range txs {
				if cur, live := n.pendingCommits[tx.span]; !live || cur != tx {
					continue
				}
				n.commitMove(tx)
			}
		})
	}
}

// dirCohortPropose drives the chaos-off fire-and-forget decrees for a
// MoveGroup cohort, batched per shard replica set: members whose shards
// replicate on the same node set share one group decree round instead of
// opening one single-slot decree each.
func (n *Node) dirCohortPropose(cohort []groupItem, dest int) {
	var order []string
	groups := map[string][]groupItem{}
	for _, it := range cohort {
		key := n.dirReplicaKey(it.msg.Object)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], it)
	}
	for _, key := range order {
		its := groups[key]
		if len(its) == 1 {
			n.dirPropose(its[0].msg.Object, its[0].msg.Epoch, int32(dest), nil)
			continue
		}
		slots := make([]dir.Slot, len(its))
		homes := make([]int32, len(its))
		for i, it := range its {
			slots[i] = dir.Slot{OID: it.msg.Object, Epoch: it.msg.Epoch}
			homes[i] = int32(dest)
		}
		n.dirProposeGroup(slots, homes, nil)
	}
}

// restartDir re-arms directory timers that fired while the node was down,
// in deterministic order; called from restart().
func (n *Node) restartDir() {
	slots := make([]dir.Slot, 0, len(n.dirProps))
	for slot, dp := range n.dirProps {
		if dp.stalledTimer {
			slots = append(slots, slot)
		}
	}
	dir.SortSlots(slots)
	for _, slot := range slots {
		dp := n.dirProps[slot]
		dp.stalledTimer = false
		n.armDirTimer(dp)
	}
	// Stalled group decrees re-arm after the single slots, in token order —
	// tokens are minted in proposal order, so reruns replay identically.
	gtoks := make([]uint32, 0, len(n.dirGProps))
	for tok, gp := range n.dirGProps {
		if gp.stalledTimer {
			gtoks = append(gtoks, tok)
		}
	}
	slices.Sort(gtoks)
	for _, tok := range gtoks {
		gp := n.dirGProps[tok]
		gp.stalledTimer = false
		n.armDirGTimer(gp)
	}
	toks := make([]uint32, 0, len(n.dirLooks))
	for tok, lk := range n.dirLooks {
		if lk.stalledTimer {
			toks = append(toks, tok)
		}
	}
	slices.Sort(toks)
	for _, tok := range toks {
		lk := n.dirLooks[tok]
		lk.stalledTimer = false
		n.armDirLookupTimer(lk)
	}
}
