// Package netsim is a deterministic discrete-event simulation of the
// prototype's hardware substrate: workstation CPUs of different clock rates
// connected by a shared 10 Mbit/s Ethernet (Figure 1).
//
// Simulated time is in microseconds. Node CPU work is charged in cycles and
// converted to time through the node's clock rate; the network charges a
// fixed per-frame latency plus serialized transmission time on the shared
// medium, which serves frames first fit, in time order (Network). All
// experiment timings (Table 1) are measured in this simulated time, so
// runs are exactly reproducible.
//
// One goroutine drains one heap of events in a canonical total order —
// (time, node, class, scheduling sequence) — so a run's observable results
// are a function of its inputs alone (DESIGN.md §12).
package netsim

import "fmt"

// Micros is a simulated time in microseconds.
type Micros int64

// MS renders a time in milliseconds.
func (m Micros) MS() float64 { return float64(m) / 1000 }

// Event classes: at one (time, node) instant, locally scheduled work runs
// before frame deliveries. The class makes that tie a pure function of the
// event's origin; it fixes the event order every golden event log pins.
const (
	classLocal    = int8(0)
	classDelivery = int8(1)
)

// event is one queued piece of work: either a locally scheduled closure
// (fn) or a frame delivery, which carries its (network, src, handler,
// buffer) itself so that a frame in flight costs no closure. The
// destination of a delivery is the owning node. An event is written once
// into its queue's slab and read back once when it runs; the heap itself
// moves only its eventKey.
type event struct {
	at  Micros
	seq uint64
	fn  func() // local work; nil for a frame delivery

	net *Network // delivery: the network the frame arrives on
	h   Handler  // delivery: the destination's handler at send time
	buf []byte   // delivery: network-owned scratch copy of the payload
	src int32    // delivery: sending node

	node  int32 // owning node; -1 for setup/cluster events
	class int8  // classLocal or classDelivery
	weak  bool
}

// maxNode is the largest node an event may belong to: eventKey packs the
// node and class into one int32 as node<<1|class.
const maxNode = 1<<30 - 1

// eventKey is what the heap sifts: an event's place in the canonical order
// and the slab slot holding the event. It holds no pointer, so a sift step
// is a 24-byte copy with no write barrier.
type eventKey struct {
	at   Micros
	seq  uint64
	nc   int32  // node<<1 | class: orders by node, then class
	slot uint32 // the event's index in eventHeap.slab
}

// less is the canonical event order: time, then node (cluster events
// first), then class (local work before deliveries), then scheduling
// sequence. (event.less, in the tests, states the same order over the
// event's own fields.)
func (k *eventKey) less(o *eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.nc != o.nc {
		return k.nc < o.nc
	}
	return k.seq < o.seq
}

// eventHeap is a binary min-heap of events in the canonical order. The order is total (no two events compare
// equal), so the pop sequence is a function of the pushed set alone, not of
// the heap's internal layout. The heap sifts keys; each event sits in a
// slab slot from push to pop, and a popped slot is zeroed (so it pins no
// closure or buffer) and reused. Push and pop move a hole instead of
// swapping and allocate nothing once the backing arrays have grown.
type eventHeap struct {
	keys []eventKey
	slab []event
	free []uint32 // zeroed slots of slab, reused last-freed first
}

func (h *eventHeap) len() int { return len(h.keys) }

// push queues *e (a copy: the caller keeps e).
func (h *eventHeap) push(e *event) {
	var slot uint32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = *e
	} else {
		slot = uint32(len(h.slab))
		h.slab = append(h.slab, *e)
	}
	k := eventKey{at: e.at, seq: e.seq, nc: e.node<<1 | int32(e.class), slot: slot}
	q := append(h.keys, k)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.less(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = k
	h.keys = q
}

func (h *eventHeap) pop() event {
	q := h.keys
	n := len(q) - 1
	top, k := q[0], q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].less(&q[c]) {
				c++
			}
			if !q[c].less(&k) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = k
	}
	h.keys = q
	e := h.slab[top.slot]
	h.slab[top.slot] = event{}
	h.free = append(h.free, top.slot)
	return e
}

// drop empties the heap, zeroing the slab so its closures and carried
// delivery buffers become garbage instead of staying pinned by the backing
// array.
func (h *eventHeap) drop() {
	clear(h.slab)
	h.keys, h.slab, h.free = h.keys[:0], h.slab[:0], h.free[:0]
}

// Sim is the event queue and clock.
type Sim struct {
	now    Micros
	queue  eventHeap
	seq    uint64
	events uint64
	strong int // pending non-weak events; Run stops when this hits zero
}

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Micros { return s.now }

// Events returns the number of events processed so far.
func (s *Sim) Events() uint64 { return s.events }

// At schedules fn at now+delay (FIFO among equal times). Events scheduled
// this way belong to no node: they run before every node's events at their
// instant. Node work goes through AtNode or a NodeSched.
func (s *Sim) At(delay Micros, fn func()) { s.schedule(-1, delay, fn, false) }

// AtWeak schedules fn like At but weakly: weak events do not keep the
// simulation alive. Run returns once only weak events remain, so periodic
// background work (heartbeat ticks, crash/restart schedules) can re-arm
// itself without preventing termination.
func (s *Sim) AtWeak(delay Micros, fn func()) { s.schedule(-1, delay, fn, true) }

// AtNode schedules fn at now+delay on node's timeline.
func (s *Sim) AtNode(node int, delay Micros, fn func()) { s.schedule(int32(node), delay, fn, false) }

// AtNodeWeak is AtNode with weak (non-liveness-holding) semantics.
func (s *Sim) AtNodeWeak(node int, delay Micros, fn func()) { s.schedule(int32(node), delay, fn, true) }

func (s *Sim) schedule(node int32, delay Micros, fn func(), weak bool) {
	if delay < 0 {
		delay = 0
	}
	if node > maxNode {
		panic(fmt.Sprintf("netsim: node %d past the largest schedulable node %d", node, maxNode))
	}
	s.push(event{at: s.now + delay, node: node, class: classLocal, weak: weak, fn: fn})
}

// push stamps e with the next scheduling sequence number and queues it.
func (s *Sim) push(e event) {
	s.seq++
	e.seq = s.seq
	if !e.weak {
		s.strong++
	}
	s.queue.push(&e)
}

// Step runs the next event; it reports whether one was run.
func (s *Sim) Step() bool {
	if s.queue.len() == 0 {
		return false
	}
	e := s.queue.pop()
	s.now = e.at
	s.events++
	if !e.weak {
		s.strong--
	}
	if e.fn != nil {
		e.fn()
	} else {
		e.net.arrive(s.now, &e)
	}
	return true
}

// Run processes events until no strong events remain (weak events left in
// the queue are abandoned) or maxEvents have run. It returns an error if
// the event budget was exhausted (livelock guard). Termination is checked
// before the budget, so a run that quiesces in exactly maxEvents events
// succeeds.
func (s *Sim) Run(maxEvents uint64) error {
	for ran := uint64(0); ; ran++ {
		if s.strong == 0 {
			s.dropAbandoned()
			return nil
		}
		if ran >= maxEvents {
			return fmt.Errorf("netsim: event budget %d exhausted at t=%v µs", maxEvents, s.now)
		}
		if !s.Step() {
			return nil
		}
	}
}

// dropAbandoned clears the weak events left behind when the simulation
// quiesces.
func (s *Sim) dropAbandoned() { s.queue.drop() }

// PendingEvents reports how many events are still queued (after Run this
// counts only abandoned work; the quiesce path clears it to zero).
func (s *Sim) PendingEvents() int { return s.queue.len() }

// NodeSched is a node-owned scheduling handle: the three operations a node
// kernel needs (clock, timer, weak timer). It tags every event with the
// node, which places it in the canonical order.
type NodeSched struct {
	s    *Sim
	node int
}

// NodeSched returns node's scheduling handle.
func (s *Sim) NodeSched(node int) NodeSched { return NodeSched{s: s, node: node} }

// Now returns the current simulated time.
func (ns NodeSched) Now() Micros { return ns.s.now }

// At schedules fn at now+delay on the node's timeline.
func (ns NodeSched) At(delay Micros, fn func()) { ns.s.schedule(int32(ns.node), delay, fn, false) }

// AtWeak schedules fn weakly at now+delay on the node's timeline.
func (ns NodeSched) AtWeak(delay Micros, fn func()) { ns.s.schedule(int32(ns.node), delay, fn, true) }

// ---------------------------------------------------------------- CPU model

// CPU models one workstation processor: cycles are charged and converted
// to simulated time through the clock rate; FreeAt serializes work on the
// node.
type CPU struct {
	MHz    float64
	FreeAt Micros
	Cycles uint64 // total cycles charged (for reporting)
}

// CyclesToMicros converts a cycle count to time on this CPU.
func (c *CPU) CyclesToMicros(cycles uint64) Micros {
	return Micros(float64(cycles) / c.MHz)
}

// Charge accounts cycles of work starting no earlier than `from`, returning
// the completion time.
func (c *CPU) Charge(from Micros, cycles uint64) Micros {
	if c.FreeAt > from {
		from = c.FreeAt
	}
	c.Cycles += cycles
	c.FreeAt = from + c.CyclesToMicros(cycles)
	return c.FreeAt
}

// ---------------------------------------------------------------- network

// Handler receives a delivered frame.
type Handler func(src int, payload []byte)

// Network models the shared 10 Mbit/s Ethernet: a per-frame latency plus
// serialized transmission on the single medium, with minimum frame size.
// The medium is first fit: a frame starts at the earliest instant, at or
// after its send instant and its sender's CPU being free, from which its
// transmission overlaps no frame already placed. A frame whose sender is
// busy thus holds a future slot without delaying frames ready before it.
type Network struct {
	sim *Sim
	// BitsPerSecond is the raw medium rate (default 10 Mbit/s).
	BitsPerSecond float64
	// LatencyMicros is propagation plus interface latency per frame.
	LatencyMicros Micros
	// MinFrameBytes pads small frames (Ethernet minimum 64 bytes).
	MinFrameBytes int
	// OverheadBytes is framing overhead added to every payload.
	OverheadBytes int

	// medium holds the reservations that may still delay a frame:
	// non-overlapping, each ending after the last send instant, and sorted
	// latest first, so those the send instant has passed are cut off the
	// end.
	medium []span
	// handlers[i] is node i's frame handler (nil: not attached) and down[i]
	// marks node i crashed. Indexed, not maps: a Send costs no hashing.
	handlers []Handler
	down     []bool

	// Observer, when set, sees every frame the medium carries (the
	// observability recorder implements it; see internal/obs).
	Observer FrameObserver

	// Inject, when set, decides per-frame fault injection (drops,
	// duplicates, delays, corruption); see internal/chaos.
	Inject Injector

	// OnLost, when set, is called when a frame is discarded at delivery
	// time because the destination node is down.
	OnLost func(at Micros, src, dst int)

	// Counters.
	Frames     uint64
	Bytes      uint64
	PayloadLen uint64
	// BusyMicros accumulates serialization time on the shared medium (the
	// network's utilization clock).
	BusyMicros Micros

	// bufs recycles delivery buffers by power-of-two size class. Send
	// copies each payload into a scratch buffer (senders may reuse their
	// marshal buffer immediately), and arrive returns the scratch to the
	// freelist after the handler runs — handlers fully consume the frame
	// synchronously — so steady-state traffic does not allocate per frame.
	bufs bufPool
}

const (
	bufMinClassBits = 6  // smallest delivery-buffer class: 64 B
	bufNumClasses   = 10 // classes up to 32 KB; larger frames use the top class
	bufClassKeep    = 32 // retained scratch buffers per class
)

// bufPool is a size-classed freelist of delivery scratch buffers. It is
// not safe for concurrent use: the network's event loop owns it.
type bufPool struct {
	free [bufNumClasses][][]byte
}

// grab returns a scratch buffer holding a copy of payload. Each call
// returns a distinct buffer — a duplicated frame must never alias its
// primary copy, or the first delivery's release would hand the second
// delivery's bytes back to the pool while still in flight.
func (p *bufPool) grab(payload []byte) []byte {
	c := 0
	for c < bufNumClasses-1 && 1<<(bufMinClassBits+c) < len(payload) {
		c++
	}
	if s := p.free[c]; len(s) > 0 {
		b := s[len(s)-1]
		p.free[c] = s[:len(s)-1]
		return append(b[:0], payload...)
	}
	return append(make([]byte, 0, 1<<(bufMinClassBits+c)), payload...)
}

// release returns a delivery buffer to its size-class freelist.
func (p *bufPool) release(buf []byte) {
	if cap(buf) < 1<<bufMinClassBits {
		return
	}
	c := 0
	for c < bufNumClasses-1 && cap(buf) >= 1<<(bufMinClassBits+c+1) {
		c++
	}
	if len(p.free[c]) < bufClassKeep {
		p.free[c] = append(p.free[c], buf)
	}
}

// Verdict is a fault-injection decision for one frame in flight. The zero
// Verdict delivers the frame normally.
type Verdict struct {
	Drop       bool   // discard the frame (it still occupied the medium)
	Dup        bool   // deliver a second copy
	DupDelay   Micros // extra delay on the duplicate (min 1µs)
	ExtraDelay Micros // extra delivery delay on the primary copy
	Corrupt    bool   // flip bits in the delivered copy
	CorruptOff int    // byte offset to corrupt (mod payload length)
	CorruptXor byte   // XOR mask applied at CorruptOff
}

// Injector decides the fate of each frame the medium carries. It must be
// deterministic in (at, src, dst, payloadLen) and its own internal state.
// internal/chaos keeps one random stream per (src,dst) link, and the chaos
// goldens pin the verdicts those streams draw.
type Injector interface {
	Frame(at Micros, src, dst, payloadLen int) Verdict
}

// FrameObserver receives frame-level events. xmitMicros is the frame's
// serialization time on the medium; at is the simulated send instant.
type FrameObserver interface {
	OnFrame(at int64, src, dst int, payload, frame int, xmitMicros int64)
}

// Counters is a snapshot of the network's traffic counters.
type Counters struct {
	Frames     uint64
	Bytes      uint64
	PayloadLen uint64
	BusyMicros Micros
}

// Counters returns the current traffic counters (readable at any simulated
// instant).
func (n *Network) Counters() Counters {
	return Counters{Frames: n.Frames, Bytes: n.Bytes,
		PayloadLen: n.PayloadLen, BusyMicros: n.BusyMicros}
}

// NewNetwork returns an Ethernet-like network on sim.
func NewNetwork(sim *Sim) *Network {
	return &Network{
		sim:           sim,
		BitsPerSecond: 10e6,
		LatencyMicros: 200, // interface + propagation + interrupt latency
		MinFrameBytes: 64,
		OverheadBytes: 18 + 20 + 8, // Ethernet + IP + UDP-ish headers
	}
}

// Attach registers the frame handler for node id.
func (n *Network) Attach(node int, h Handler) {
	n.growNodes(node)
	n.handlers[node] = h
}

// growNodes extends the per-node tables to cover node.
func (n *Network) growNodes(node int) {
	for len(n.down) <= node {
		n.down = append(n.down, false)
		n.handlers = append(n.handlers, nil)
	}
}

// SetNodeUp marks node id up or down. Frames addressed to a down node are
// discarded at delivery time (the sender cannot tell; fail-stop model).
func (n *Network) SetNodeUp(node int, up bool) {
	n.growNodes(node)
	n.down[node] = !up
}

// NodeUp reports whether node id is currently up.
func (n *Network) NodeUp(node int) bool {
	return node < 0 || node >= len(n.down) || !n.down[node]
}

// frameSize returns the on-wire size of a payload and its serialization
// time on the medium.
func (n *Network) frameSize(payloadLen int) (size int, xmit Micros) {
	size = payloadLen + n.OverheadBytes
	if size < n.MinFrameBytes {
		size = n.MinFrameBytes
	}
	xmit = Micros(float64(size*8) / n.BitsPerSecond * 1e6)
	return size, xmit
}

// span is one reservation of the medium, [start, end).
type span struct{ start, end Micros }

// arbitrate claims the shared medium for one frame: transmission begins at
// the first gap of xmit at or after both the send instant and earliest.
// It returns the delivery instant.
func (n *Network) arbitrate(sendAt, earliest Micros, xmit Micros, size, payloadLen int) (deliverAt Micros) {
	n.Frames++
	n.Bytes += uint64(size)
	n.PayloadLen += uint64(payloadLen)
	n.BusyMicros += xmit
	start, m := max(sendAt, earliest), n.medium
	for len(m) > 0 && m[len(m)-1].end <= sendAt { // no later frame can meet it
		m = m[:len(m)-1]
	}
	i := len(m)
	for ; i > 0 && start+xmit > m[i-1].start; i-- {
		start = max(start, m[i-1].end)
	}
	m = append(m, span{})
	copy(m[i+1:], m[i:])
	m[i] = span{start, start + xmit}
	n.medium = m
	return start + xmit + n.LatencyMicros
}

// Send transmits payload from src to dst. Transmission begins no earlier
// than `earliest` (the sender's CPU finishing the marshalling work), in the
// first gap of the shared medium long enough for the frame; the frame then
// serializes at the medium rate and the per-frame latency elapses before
// delivery.
func (n *Network) Send(src, dst int, payload []byte, earliest Micros) error {
	if dst < 0 || dst >= len(n.handlers) || n.handlers[dst] == nil {
		return fmt.Errorf("netsim: no node %d attached", dst)
	}
	size, xmit := n.frameSize(len(payload))
	if n.Observer != nil {
		n.Observer.OnFrame(int64(n.sim.Now()), src, dst, len(payload), size, int64(xmit))
	}
	var v Verdict
	if n.Inject != nil {
		v = n.Inject.Frame(n.sim.Now(), src, dst, len(payload))
	}
	deliverAt := n.arbitrate(n.sim.Now(), earliest, xmit, size, len(payload))
	if !v.Drop {
		buf := n.bufs.grab(payload)
		corrupt(buf, v)
		n.sim.push(n.delivery(deliverAt+v.ExtraDelay, src, dst, buf))
	}
	if v.Dup {
		// The duplicate gets its own copy of the (uncorrupted) payload:
		// both copies are released independently after their handlers run,
		// so they must never share a pooled buffer.
		n.sim.push(n.delivery(deliverAt+dupDelay(v), src, dst, n.bufs.grab(payload)))
	}
	return nil
}

// corrupt applies a verdict's bit-flip to the primary delivery copy.
func corrupt(buf []byte, v Verdict) {
	if !v.Corrupt || len(buf) == 0 {
		return
	}
	off := v.CorruptOff % len(buf)
	if off < 0 {
		off += len(buf)
	}
	buf[off] ^= v.CorruptXor
}

// dupDelay returns the duplicate copy's extra delay (minimum 1µs, so the
// duplicate never lands before the original).
func dupDelay(v Verdict) Micros {
	if v.DupDelay < 1 {
		return 1
	}
	return v.DupDelay
}

// delivery builds the event for a frame's arrival at dst. buf is a scratch
// buffer owned by the network, recycled once the handler returns.
func (n *Network) delivery(at Micros, src, dst int, buf []byte) event {
	return event{at: at, node: int32(dst), class: classDelivery,
		net: n, h: n.handlers[dst], src: int32(src), buf: buf}
}

// arrive runs a delivery event. A frame addressed to a node that is down at
// the delivery instant vanishes. Either way the scratch buffer goes back to
// the network's pool, so handlers must not retain it: they copy whatever
// outlives the call — Unmarshal copies strings, the chaos link layer copies
// held frames.
func (n *Network) arrive(now Micros, e *event) {
	src, dst := int(e.src), int(e.node)
	if n.NodeUp(dst) {
		e.h(src, e.buf)
	} else if n.OnLost != nil {
		n.OnLost(now, src, dst)
	}
	n.bufs.release(e.buf)
}

// ---------------------------------------------------------------- machines

// MachineModel is a workstation model from the paper's evaluation (§3.6).
// MHz is an effective rate calibrated so that kernel-side cycle counts
// reproduce the paper's absolute milliseconds; EXPERIMENTS.md records the
// calibration. Family groups machines of one workstation type: the
// original Emerald system supported mobility only within a family.
type MachineModel struct {
	Name   string
	Family string
	Arch   byte // arch.ID; byte avoids an import cycle
	MHz    float64
	// ConvSlowdown scales the cost of network-format conversion routines
	// on this machine ("depending on the processor type, 2-3 procedure
	// calls are performed to convert a simple integer value", §3.5 — the
	// Sun-3's hand-written routines were the slowest). Zero means 1.
	ConvSlowdown float64
}

// ConvFactor returns the conversion slowdown (1 when unset).
func (m MachineModel) ConvFactor() float64 {
	if m.ConvSlowdown == 0 {
		return 1
	}
	return m.ConvSlowdown
}

// The paper's machines (§3.6). Sun-3 and the two HP9000/300 models share
// the M68K ISA and differ only in clock rate; the VAXstation 2000 is the
// slow VAX the original figures used. Effective MHz values are calibration
// constants, not nameplate clock rates.
var (
	SPARCstationSLC = MachineModel{Name: "SPARCstation SLC", Family: "sparc", Arch: 2, MHz: 20}
	Sun3_100        = MachineModel{Name: "Sun-3/100", Family: "sun3", Arch: 1, MHz: 11.8, ConvSlowdown: 2.6}
	HP9000_433s     = MachineModel{Name: "HP9000/400-433s", Family: "hp300", Arch: 1, MHz: 33}
	HP9000_385      = MachineModel{Name: "HP9000/300-385", Family: "hp300", Arch: 1, MHz: 25}
	VAXstation2000  = MachineModel{Name: "VAXstation 2000", Family: "vax", Arch: 0, MHz: 9.7}
)
