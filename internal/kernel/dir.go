// Replicated object directory (emdir), active only when Config.DirReplicas
// > 0. Every committed move drives one Paxos round (see internal/dir)
// recording the object's new home across the replicas of its shard — one
// round, one proposer path, whether the decree covers a single move or the
// members of a MoveGroup cohort that share a replica set; locates and
// calls at a stale proxy consult the directory first (dirAsk), and repair
// the proxy they use — nothing repairs proxies in the background. All
// directory traffic travels as ordinary protocol messages through sendMsg
// — charged, observed and fault-injected like any other kernel traffic —
// except that a node acting as a replica of its own query answers locally
// for just the syscall charge. Directory-off runs take none of these code
// paths: no messages, metrics, events or timers. Under chaos a decree is
// proposed after the destination's positive MoveAck and the move commits
// when it resolves, chosen or degraded (twophase.go); chaos-off it is
// fire-and-forget from the send tail.

package kernel

import (
	"slices"

	"repro/internal/dir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

// dirMaxAttempts bounds a decree's rounds — the owner's accept-first round
// and the two-phase retries after it — before degrading.
const dirMaxAttempts = 3

// armDir enables the directory: sizes the shard/replica layout and
// tabulates each shard's replica set.
func (c *Cluster) armDir() {
	c.dirOn = true
	c.dirCfg = dir.Config{Replicas: c.Config.DirReplicas}.Normalize(len(c.Nodes))
	// Replica placement is fixed for the run and every node derives the
	// same table, so no placement messages are needed; tabulating it once
	// keeps dirReplicasOf free of allocation.
	c.dirPlace = make([][]int, c.dirCfg.Shards)
	for s := range c.dirPlace {
		c.dirPlace[s] = dir.ReplicaSet(s, c.dirCfg.Replicas, len(c.Nodes))
	}
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
// the pure synod state plus replica fan-out and the moves waiting on it.
type dirProposal struct {
	dir.Proposal
	replicas []int
	// slots is the slot list in message form, refilled for every fan-out (a
	// retry round may have adopted other values). one backs it for the
	// usual decree over a single object, which then allocates no list.
	slots []wire.DirEntry
	one   [1]wire.DirEntry
	// commit holds the moves whose two-phase commit gates on this decree
	// (under chaos only): they commit once it resolves, chosen or degraded.
	commit []*liveMove
}

// dirPropose starts the decrees recording the moves — one move, or a
// cohort's members — at their destinations: one decree per shard replica
// set, so members whose shards replicate on the same node set share one
// round (with DirNoGroupDecrees, one decree per move). It reorders moves in
// place, stably, grouping each replica set's members. A proposal is filed
// under its first slot: a slot has one proposer and one proposal, so that
// is unique. Under chaos the moves commit when their decree resolves.
func (n *Node) dirPropose(moves []*liveMove) {
	for len(moves) > 0 {
		// moves[:k] becomes the members on moves[0]'s replica set, in order.
		k := 1
		if !n.cluster.Config.DirNoGroupDecrees {
			set := n.dirReplicasOf(moves[0].Data.obj.OID)
			for i := 1; i < len(moves); i++ {
				if mv := moves[i]; slices.Equal(n.dirReplicasOf(mv.Data.obj.OID), set) {
					copy(moves[k+1:i+1], moves[k:i])
					moves[k] = mv
					k++
				}
			}
		}
		same := moves[:k]
		moves = moves[k:]
		es := make([]dir.Entry, len(same))
		for i, mv := range same {
			o := mv.Data.obj
			es[i] = dir.Entry{Slot: dir.Slot{OID: o.OID, Epoch: o.Epoch}, Value: int32(mv.Dest)}
		}
		dp := &dirProposal{
			Proposal: dir.NewProposal(es, int32(n.ID), n.cluster.dirCfg.Quorum()),
			replicas: n.dirReplicasOf(same[0].Data.obj.OID),
		}
		dp.slots = dp.one[:0]
		live, joined := n.dirProps[dp.Key()]
		if joined {
			dp = live // the decree is already in flight
		} else {
			n.dirProps[dp.Key()] = dp
		}
		if n.chaosOn() {
			dp.commit = append(dp.commit, same...)
		}
		if !joined {
			n.dirRound(dp)
		}
	}
}

// dirRound starts the decree's next round under a fresh ballot and fans
// out the phase dir.Proposal.Start landed in: the accept straight away in
// the owner's first round, a prepare in every retry round (whose promise
// quorum then sends the accept from recvDirPromise).
func (n *Node) dirRound(dp *dirProposal) {
	dp.Start()
	if dp.Preparing() {
		n.cluster.Rec.Metrics().Add("dir_prepare_rounds", n.labels, 1)
	}
	n.dirFanOut(dp)
	n.armDirTimer(dp)
}

// dirSlots is the proposal's slot list in wire form, each slot with the
// value the accept phase proposes for it.
func dirSlots(dp *dirProposal) []wire.DirEntry {
	dp.slots = dp.slots[:0]
	for i, e := range dp.Entries {
		dp.slots = append(dp.slots, wire.DirEntry{Slot: e.Slot, Node: dp.Chosen(i)})
	}
	return dp.slots
}

// dirFanOut sends the current phase's request — one message value, shared —
// to every replica of the slots' shard. With a single-replica set containing
// this node the whole decree resolves synchronously inside the first
// dirSend, so the fan-out re-checks that the proposal is still the live one.
func (n *Node) dirFanOut(dp *dirProposal) {
	var req wire.Payload
	if dp.Preparing() {
		req = &wire.DirPrepare{Ballot: dp.Ballot, Slots: dirSlots(dp)}
	} else {
		req = &wire.DirAccept{Ballot: dp.Ballot, Slots: dirSlots(dp)}
	}
	for _, r := range dp.replicas {
		if n.dirProps[dp.Key()] != dp {
			return
		}
		n.dirSend(r, req)
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
	attempt := dp.Attempt()
	progress := dp.Progress()
	n.sched.At(n.cluster.Chaos.CommitWindow(), func() {
		if n.dirProps[dp.Key()] != dp || dp.Done() {
			return
		}
		if !n.Up {
			k := dp.Key()
			n.stall(stallDecree, uint64(k.OID)<<32|uint64(k.Epoch), func() { n.armDirTimer(dp) })
			return
		}
		if dp.Attempt() != attempt {
			return // a newer round owns the live timer
		}
		if dp.Progress() != progress {
			n.armDirTimer(dp)
			return
		}
		if attempt >= dirMaxAttempts {
			n.dirResolve(dp, false)
			return
		}
		n.dirRound(dp)
	})
}

// dirResolve finishes a decree (chosen or degraded) and commits the moves
// waiting on it — degraded too: availability of the move protocol is
// preserved and the forwarding-address chase covers the stale record.
func (n *Node) dirResolve(dp *dirProposal, chosen bool) {
	delete(n.dirProps, dp.Key())
	if !chosen {
		for _, e := range dp.Entries {
			n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
				Kind: obs.EvDirDegraded, Obj: uint32(e.Slot.OID), Str: "decree attempts exhausted"})
		}
		n.cluster.Rec.Metrics().Add("dir_degraded", n.labels, uint64(len(dp.Entries)))
	}
	for _, mv := range dp.commit { // those still live commit
		n.decide(n.moves.Resolve(mv), "")
	}
}

// recvDirPromise counts one promise; on quorum it broadcasts the accept
// with the per-slot value vector.
func (n *Node) recvDirPromise(src int, p *wire.DirPromise) {
	dp := n.dirProps[p.Slot]
	if dp == nil || dp.Done() {
		return
	}
	if dp.OnPromise(p.Ballot, p.Ok, p.Acc, p.Promised) {
		n.dirFanOut(dp)
	}
}

// recvDirAccepted counts one accept; on quorum every slot's decree is
// chosen at once: the proposer announces them to every replica and releases
// the waiters.
func (n *Node) recvDirAccepted(src int, p *wire.DirAccepted) {
	dp := n.dirProps[p.Slot]
	if dp == nil || !dp.OnAccepted(p.Ballot, p.Ok, p.Promised) {
		return
	}
	learn := &wire.DirLearn{Slots: dirSlots(dp)}
	for _, e := range learn.Slots {
		n.cluster.Rec.Emit(obs.Event{At: int64(n.now()), Node: int32(n.ID),
			Kind: obs.EvDirDecree, Obj: uint32(e.Slot.OID), A: uint64(e.Slot.Epoch), B: uint64(e.Node)})
		n.dirInvalidateLease(e.Slot.OID, e.Slot.Epoch)
	}
	m, lbl, slots := n.cluster.Rec.Metrics(), n.labels, uint64(len(dp.Entries))
	m.Add("dir_decrees", lbl, slots)
	m.Add("dir_decree_rounds", lbl, uint64(dp.Attempt()))
	if slots > 1 {
		m.Add("dir_group_decrees", lbl, 1)
		m.Add("dir_group_slots", lbl, slots)
	}
	for _, r := range dp.replicas {
		n.dirSend(r, learn)
	}
	n.dirResolve(dp, true)
}

// ------------------------------------------------------------- replica

// recvDirPrepare answers a prepare from this node's acceptor state: every
// slot must promise the ballot for the list to promise. Slots promised
// before a blocking one keep their (higher) promise — promising more never
// violates safety, and the proposer's retry ballot will clear the bar
// everywhere.
func (n *Node) recvDirPrepare(src int, p *wire.DirPrepare) {
	if len(p.Slots) == 0 {
		return
	}
	reply := &wire.DirPromise{Slot: p.Slots[0].Slot, Ballot: p.Ballot, Ok: true,
		Acc: make([]dir.Accepted, len(p.Slots))}
	for i, s := range p.Slots {
		a := n.dirAcc[s.Slot]
		ok, promised, accBal, accNode := a.Prepare(p.Ballot)
		n.dirAcc[s.Slot] = a
		reply.Acc[i] = dir.Accepted{Ballot: accBal, Node: accNode}
		if !ok {
			reply.Ok = false
			reply.Promised = max(reply.Promised, promised)
		}
	}
	n.dirSend(src, reply)
}

// recvDirAccept answers an accept: every slot must accept for the list to
// accept (partial accepts are safe — a slot's value can only be adopted by
// this same proposer's retry).
func (n *Node) recvDirAccept(src int, p *wire.DirAccept) {
	if len(p.Slots) == 0 {
		return
	}
	reply := &wire.DirAccepted{Slot: p.Slots[0].Slot, Ballot: p.Ballot, Ok: true}
	for _, s := range p.Slots {
		a := n.dirAcc[s.Slot]
		ok, promised := a.Accept(p.Ballot, s.Node)
		n.dirAcc[s.Slot] = a
		if !ok {
			reply.Ok = false
			reply.Promised = max(reply.Promised, promised)
		}
	}
	n.dirSend(src, reply)
}

// recvDirLearn applies a chosen decree to this replica's record store, slot
// by slot. A decided slot's acceptor scratch state retires; each move of one
// object uses a fresh slot, and only the move's source proposes for it, so
// the slot can never be reopened.
func (n *Node) recvDirLearn(src int, p *wire.DirLearn) {
	for _, s := range p.Slots {
		n.dirStore.Learn(s.Slot.OID, s.Node, s.Slot.Epoch)
		delete(n.dirAcc, s.Slot)
		n.dirInvalidateLease(s.Slot.OID, s.Slot.Epoch)
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
	oid   oid.OID
	done  func(ok bool, node int32, epoch uint32)
	token uint32
}

// dirLookupQuery asks one replica of o's shard for its ownership record —
// the O(1) locate. It prefers this node's own replica role (free and
// synchronous), else the first unsuspected replica; under chaos a remote
// query arms a degrade timeout, since a blocked fragment waits on it. done
// always fires exactly once; ok=false means degraded or miss and the caller
// falls back to the forwarding chase.
func (n *Node) dirLookupQuery(o oid.OID, done func(ok bool, node int32, epoch uint32)) {
	lbl := n.labels
	if n.cluster.dirLeasePeriod() > 0 {
		if l, ok := n.dirLeases[o]; ok {
			if n.now() >= l.expires {
				delete(n.dirLeases, o)
				n.cluster.Rec.Metrics().Add("dir_lease_expired", lbl, 1)
			} else if n.link.Suspected(int(l.node)) || int(l.node) == n.ID {
				// The leased home is suspect (the record is about to be
				// superseded or the chase must cover it) or names this very
				// node while the object is not resident here — either way
				// the lease is useless; drop it and ask the shard.
				delete(n.dirLeases, o)
			} else {
				// Lease hit: answer from the cached record for just the
				// syscall charge — no shard query, no messages. The same
				// monotonic epoch guard that fences replica records
				// (learnLoc) fences this one at the caller.
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
		if target < 0 && !n.link.Suspected(r) {
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
	if n.chaosOn() && target != n.ID {
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
			n.stall(stallLookup, uint64(lk.token), func() { n.armDirLookupTimer(lk) })
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

// dirAsk blocks f while o's shard says where o is, learns the answer and
// resumes f with k, which finds o resident if it arrived meanwhile. The
// proxy's own knowledge stands in for a miss, a degraded query and a
// record older than it or naming this node, so a proxy is never stale
// after dirAsk.
func (n *Node) dirAsk(f *Frag, o *Obj, k func(n *Node, f *Frag, o *Obj)) {
	n.blockCall(f, -1, 0)
	n.dirLookupQuery(o.OID, func(ok bool, node int32, epoch uint32) {
		if !ok || epoch < o.Epoch || int(node) == n.ID {
			node, epoch = int32(o.LastKnown), o.Epoch
		}
		n.learnLoc(o, int(node), epoch)
		n.setStatus(f, FragStateReady)
		k(n, f, o)
	})
}

// dropLeasesAt drops the leases that name the newly suspected peer: a
// crashed home's record is exactly the staleness a lease must not serve
// through.
func (n *Node) dropLeasesAt(peer int) {
	for o, l := range n.dirLeases {
		if int(l.node) == peer {
			delete(n.dirLeases, o)
		}
	}
}
