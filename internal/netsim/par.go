// The parallel engine (empar): conservative parallel discrete-event
// execution with the network's per-frame latency as lookahead.
//
// The engine is a barrier-window design. Let L = Network.LatencyMicros and
// T = the earliest pending event anywhere. Every frame sent at a time
// t ≥ T is delivered no earlier than t + L ≥ T + L, so all events in the
// window [T, T+L) are causally independent across nodes: each node's
// goroutine can drain its own queue through the window without observing
// any other node. At the barrier the coordinator arbitrates the window's
// sends on the shared medium — in the exact order the sequential engine
// would have issued them — inserts the resulting deliveries, and opens the
// next window.
//
// Determinism: both engines execute events in the canonical
// (time, node, class, per-node seq) order (netsim.go). Within a window
// node queues are disjoint, so per-node execution order is the canonical
// order restricted to that node; sends are harvested per node and sorted
// by (send time, src, per-src index), which equals the canonical order of
// their originating events; medium arbitration is a fold over that
// sequence, so transmission starts, deliveries, and every traffic counter
// come out identical to the sequential engine. See DESIGN.md §12.
package netsim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// sendReq is one frame awaiting medium arbitration at the window barrier.
// Everything node-local (size, transmission time, fault verdict, payload
// copies, observer events) was already computed on the sending node's
// goroutine; only the shared-medium fold is deferred.
type sendReq struct {
	src, dst   int
	sendAt     Micros // sending node's clock at the Send call
	earliest   Micros // sender CPU free (transmission cannot start before)
	idx        uint64 // per-src issue order
	size       int
	payloadLen int
	xmit       Micros
	v          Verdict
	buf        []byte // primary delivery copy (corrupted if the verdict says); nil when dropped
	dupBuf     []byte // duplicate's own uncorrupted copy when v.Dup
}

// nodeRunner owns one node's event queue, clock and goroutine.
type nodeRunner struct {
	id   int
	heap eventHeap
	seq  uint64 // per-node scheduling sequence (continues the global one)
	now  Micros
	// strong/ran/reqs are written by the runner goroutine during a window
	// and read by the coordinator at the barrier (the start/done channel
	// pair orders every access).
	strong int
	ran    uint64
	sends  uint64 // per-src send index
	reqs   []sendReq
	// pool recycles delivery buffers, touched only by this runner's
	// goroutine: sends grab from the sending runner's pool, and arrive
	// releases into the destination runner's pool after the handler runs.
	// Buffers therefore migrate along traffic — a request/response
	// exchange refills both ends — and steady-state parallel traffic
	// allocates no per-frame buffers, matching the sequential engine's
	// pooling.
	pool bufPool

	start chan Micros // window end; closing it stops the goroutine
	done  chan struct{}
	// panicked is what an event panicked with (nil: none), at time
	// panicAt: the runner drains no further, and the coordinator re-raises
	// the earliest on RunParallel's goroutine.
	panicked any
	panicAt  Micros
}

// push stamps e with this node's next sequence number and queues it.
func (r *nodeRunner) push(e event) {
	r.seq++
	e.seq = r.seq
	if !e.weak {
		r.strong++
	}
	r.heap.push(&e)
}

// at schedules fn on this runner's own queue (called from the runner's
// goroutine via NodeSched, or from the coordinator at a barrier).
func (r *nodeRunner) at(class int8, delay Micros, fn func(), weak bool) {
	if delay < 0 {
		delay = 0
	}
	r.push(event{at: r.now + delay, node: int32(r.id), class: class, weak: weak, fn: fn})
}

// head returns the earliest pending event time, or ok=false when idle.
func (r *nodeRunner) head() (Micros, bool) {
	if r.heap.len() == 0 {
		return 0, false
	}
	return r.heap.head(), true
}

// run is the node goroutine: drain events strictly before each window end,
// until the start channel closes.
func (r *nodeRunner) run() {
	for w := range r.start {
		if r.panicked == nil {
			r.drain(w)
		}
		r.done <- struct{}{}
	}
}

// drain runs the events strictly before w, stopping at one that panics.
func (r *nodeRunner) drain(w Micros) {
	defer func() {
		if v := recover(); v != nil {
			r.panicked, r.panicAt = v, r.now
		}
	}()
	for r.heap.len() > 0 && r.heap.head() < w {
		e := r.heap.pop()
		r.now = e.at
		r.ran++
		if !e.weak {
			r.strong--
		}
		if e.fn != nil {
			e.fn()
		} else {
			e.net.arrive(r.now, &r.pool, &e)
		}
	}
}

// parRun is one parallel execution: the runners plus the shared network.
type parRun struct {
	sim       *Sim
	net       *Network
	lookahead Micros
	runners   []*nodeRunner
}

// sendParallel is Network.Send on a sending node's goroutine: compute
// everything link-local now (frame size, observer event, fault verdict,
// payload copies), defer only the shared-medium arbitration to the
// barrier. Payload copies come from the sending runner's own buffer pool
// (never the sequential engine's — pools are single-goroutine).
func (n *Network) sendParallel(p *parRun, src, dst int, payload []byte, earliest Micros) error {
	if src < 0 || src >= len(p.runners) {
		return fmt.Errorf("netsim: parallel send from unknown node %d", src)
	}
	r := p.runners[src]
	size, xmit := n.frameSize(len(payload))
	if n.Observer != nil {
		n.Observer.OnFrame(int64(r.now), src, dst, len(payload), size, int64(xmit))
	}
	var v Verdict
	if n.Inject != nil {
		v = n.Inject.Frame(r.now, src, dst, len(payload))
	}
	req := sendReq{
		src: src, dst: dst,
		sendAt: r.now, earliest: earliest, idx: r.sends,
		size: size, payloadLen: len(payload), xmit: xmit, v: v,
	}
	r.sends++
	if !v.Drop {
		req.buf = r.pool.grab(payload)
		corrupt(req.buf, v)
	}
	if v.Dup {
		// Distinct grab: the duplicate must never alias the primary copy
		// (each is released independently at the destination).
		req.dupBuf = r.pool.grab(payload)
	}
	r.reqs = append(r.reqs, req)
	return nil
}

// flushSends arbitrates the window's sends in canonical order and inserts
// the resulting delivery events. Runs at the barrier (all runners idle).
func (p *parRun) flushSends() {
	var all []sendReq
	for _, r := range p.runners {
		all = append(all, r.reqs...)
		r.reqs = r.reqs[:0]
	}
	if len(all) == 0 {
		return
	}
	// (sendAt, src, idx) is exactly the order the sequential engine's
	// canonical event order would have issued these Send calls in: events
	// at one instant run in node order, and one node's sends at one
	// instant run in issue order.
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.sendAt != b.sendAt {
			return a.sendAt < b.sendAt
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.idx < b.idx
	})
	n := p.net
	for _, req := range all {
		deliverAt := n.arbitrate(req.sendAt, req.earliest, req.xmit, req.size, req.payloadLen)
		if req.v.Drop {
			atomic.AddUint64(&n.Lost, 1)
		} else {
			p.insertDelivery(req.src, req.dst, deliverAt+req.v.ExtraDelay, req.buf)
		}
		if req.v.Dup {
			n.Dups++
			p.insertDelivery(req.src, req.dst, deliverAt+dupDelay(req.v), req.dupBuf)
		}
	}
}

// insertDelivery queues a frame arrival on the destination runner: the same
// delivery event the sequential engine schedules, so it runs through the
// same Network.arrive — on the destination runner's goroutine, releasing
// the scratch buffer into that runner's pool even though the sender's pool
// supplied it.
func (p *parRun) insertDelivery(src, dst int, at Micros, buf []byte) {
	r := p.runners[dst]
	if at < r.now {
		// Lookahead violation — cannot happen while deliverAt ≥ sendAt+L,
		// but guard it loudly rather than silently reordering time.
		panic(fmt.Sprintf("netsim: delivery at %dµs behind node %d clock %dµs", at, dst, r.now))
	}
	r.push(p.net.delivery(at, src, dst, buf))
}

// RunParallel drives the simulation to completion with one goroutine per
// node, producing byte-identical observable results to Run (see the
// package comment). numNodes is the cluster size; net must be the network
// the nodes communicate over (its LatencyMicros is the lookahead, so it
// must be ≥ 1). Every pending event must have been scheduled via
// AtNode/AtNodeWeak/NodeSched — node-less events have no home queue.
//
// Differences from Run, both only observable under a chaos plan: weak
// events that fall inside the final window may still run after the last
// strong event (the sequential engine stops mid-window), and the event
// budget is only checked at window barriers. Without weak events the
// engines terminate identically.
func (s *Sim) RunParallel(net *Network, numNodes int, maxEvents uint64) error {
	if s.par != nil {
		return fmt.Errorf("netsim: parallel run already active")
	}
	if net == nil || net.sim != s {
		return fmt.Errorf("netsim: RunParallel needs this simulation's network")
	}
	if net.LatencyMicros < 1 {
		return fmt.Errorf("netsim: parallel execution needs nonzero link latency for lookahead")
	}
	if numNodes < 1 || numNodes > maxNode+1 {
		return fmt.Errorf("netsim: parallel execution needs 1 to %d nodes, not %d", maxNode+1, numNodes)
	}
	p := &parRun{sim: s, net: net, lookahead: net.LatencyMicros}
	for i := 0; i < numNodes; i++ {
		p.runners = append(p.runners, &nodeRunner{
			id: i, seq: s.seq, now: s.now,
			start: make(chan Micros), done: make(chan struct{}),
		})
	}
	// Shard the pending queue onto the per-node runners.
	for _, k := range s.queue.keys {
		e := &s.queue.slab[k.slot]
		if e.node < 0 || int(e.node) >= numNodes {
			return fmt.Errorf("netsim: pending event owned by no node (node %d); schedule via AtNode before RunParallel", e.node)
		}
		// The event keeps the sequence number the sequential clock gave it
		// (runner counters continue from s.seq), and a pending delivery
		// moves over whole: it will arrive through the runner's pool.
		r := p.runners[e.node]
		r.heap.push(e)
		if !e.weak {
			r.strong++
		}
	}
	s.queue.drop()
	s.strong = 0
	s.par = p

	var wg sync.WaitGroup
	for _, r := range p.runners {
		wg.Add(1)
		go func(r *nodeRunner) {
			defer wg.Done()
			r.run()
		}(r)
	}
	err := p.drive(maxEvents)
	for _, r := range p.runners {
		close(r.start)
	}
	wg.Wait()
	// Fold the per-node state back into the sequential clock so post-run
	// reads (Now, Events) behave as after Run.
	for _, r := range p.runners {
		if r.now > s.now {
			s.now = r.now
		}
		s.events += r.ran
		if r.seq > s.seq {
			s.seq = r.seq
		}
	}
	s.par = nil
	// An event panicked: re-raise the earliest in (time, node) order —
	// the one the sequential engine would have raised.
	var first *nodeRunner
	for _, r := range p.runners {
		if r.panicked != nil && (first == nil || r.panicAt < first.panicAt) {
			first = r
		}
	}
	if first != nil {
		panic(first.panicked)
	}
	return err
}

// drive is the coordinator loop: pick the next window, let every runner
// drain it, arbitrate the harvested sends, repeat until no strong events
// remain anywhere.
func (p *parRun) drive(maxEvents uint64) error {
	for {
		// Barrier state: all runners idle, queues quiescent.
		strong := 0
		ran := uint64(0)
		var horizon Micros
		have := false
		for _, r := range p.runners {
			strong += r.strong
			ran += r.ran
			if at, ok := r.head(); ok && (!have || at < horizon) {
				horizon, have = at, true
			}
		}
		if strong == 0 {
			// Leftover weak events are abandoned, as in dropAbandoned.
			for _, r := range p.runners {
				r.heap.drop()
			}
			return nil
		}
		if ran >= maxEvents {
			return fmt.Errorf("netsim: event budget %d exhausted at t=%v µs", maxEvents, horizon)
		}
		if !have {
			return nil // unreachable: strong > 0 implies a queued event
		}
		w := horizon + p.lookahead
		for _, r := range p.runners {
			r.start <- w
		}
		stop := false
		for _, r := range p.runners {
			<-r.done
			stop = stop || r.panicked != nil
		}
		if stop {
			return nil // RunParallel re-raises the panic
		}
		p.flushSends()
	}
}
