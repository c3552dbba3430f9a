// Package obs is the runtime's deterministic observability subsystem:
// structured trace events stamped with simulated time, per-migration spans
// that attribute each hop's latency to its phases (MD→MI conversion, wire,
// MI→MD respecialization — the breakdown behind the paper's Table 1), and a
// metrics registry of counters/gauges/histograms keyed by node and ISA.
//
// Everything here is driven by the discrete-event simulation: the same
// program on the same topology produces a byte-identical event stream and
// metrics snapshot on every run (asserted by test). The package deliberately
// imports nothing from the rest of the runtime — times are raw simulated
// microseconds (int64) and object identities are raw OID bits (uint32) — so
// every layer (netsim, wire, kernel, core) can emit into it without import
// cycles.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Kind identifies a structured event type.
type Kind uint8

// Event kinds. The order is part of the (internal) stream format; new kinds
// go at the end, each with its row in the kind table (kinds, below).
const (
	// EvText is a free-form kernel trace line (the legacy Trace hook is a
	// text sink over the event stream; lines that have no typed event yet
	// travel as EvText).
	EvText Kind = iota + 1
	// EvThreadStop: a thread's activation was observed stopped at bus stop
	// A of function Str (during migration marshalling). Frag/Obj identify
	// the thread piece and the migrating object.
	EvThreadStop
	// EvThreadResume: a migrated-in thread fragment was re-specialized and
	// rescheduled; A is the number of activation records installed.
	EvThreadResume
	// EvConvOut: an MD→MI conversion batch completed on Node; A is the
	// number of conversion-procedure calls, B the converted bytes.
	EvConvOut
	// EvConvIn: an MI→MD conversion batch completed (same payload as
	// EvConvOut).
	EvConvIn
	// EvWireSend: Node sent a protocol message of kind Str to node B; A is
	// the serialized payload length.
	EvWireSend
	// EvWireRecv: Node received a message of kind Str from node B; A is the
	// payload length.
	EvWireRecv
	// EvNetFrame: the shared medium carried a frame of A bytes (B payload
	// bytes) from Node; Span holds the transmission time in µs.
	EvNetFrame
	// EvMigrateOut: Node began migrating object Obj to node B (span Span);
	// Str is the object kind (plain/array/immutable), A the fragment count.
	EvMigrateOut
	// EvMigrateIn: Node finished installing object Obj from node B (span
	// Span).
	EvMigrateIn
	// EvRemoteInvoke: Node sent operation Str on object Obj to node B.
	EvRemoteInvoke
	// EvProxyForward: Node forwarded a message about Obj (kind Str) along
	// its forwarding address to node B.
	EvProxyForward
	// EvMonitorWait: Frag waited on condition A of object Obj.
	EvMonitorWait
	// EvMonitorSignal: Frag signalled condition A of object Obj.
	EvMonitorSignal
	// EvMonitorBlock: Frag blocked at monitor entry of Obj (contention).
	EvMonitorBlock
	// EvGCCycle: a collection on Node freed A objects (B bytes).
	EvGCCycle
	// EvFault: a thread died; Str is the message.
	EvFault
	// EvFaultInject: the chaos injector faulted a frame from Node to node B;
	// Str names the fault (drop/dup/delay/corrupt/partition).
	EvFaultInject
	// EvRetransmit: Node retransmitted link frame seq A to node B (Str is
	// the inner message kind); Span holds the attempt number.
	EvRetransmit
	// EvMoveCommit: Node's move of Obj to node B (span Span) was acked by
	// the destination and committed.
	EvMoveCommit
	// EvMoveAbort: Node aborted the move of Obj to node B (span Span); Str
	// is the reason (timeout/refused/degraded).
	EvMoveAbort
	// EvMoveDupDrop: Node suppressed a duplicate Move of Obj (span Span)
	// from node B — the object was already installed.
	EvMoveDupDrop
	// EvNodeCrash: Node crashed (fail-stop) at the scheduled instant.
	EvNodeCrash
	// EvNodeRestart: Node restarted with durable state intact.
	EvNodeRestart
	// EvNodeSuspect: Node started suspecting node B down (no frame for A µs).
	EvNodeSuspect
	// EvNodeRecover: Node heard from suspected node B again.
	EvNodeRecover
	// EvLinkDrop: Node discarded an undeliverable or unusable frame from
	// node B (Str is the reason, e.g. crc/down).
	EvLinkDrop
	// EvMoveGroupOut: Node sent a batched cohort move of A objects to node
	// B in one frame (span Span is the first member's span; Str labels the
	// cohort).
	EvMoveGroupOut
	// EvMoveGroupIn: Node finished installing a batched cohort move of A
	// objects from node B (span Span is the first member's span).
	EvMoveGroupIn
	// EvAutoDecision: the placement policy Str decided to move object Obj
	// (named by the decision text in Str) to node B; A is the decision
	// index within the tick.
	EvAutoDecision
	// EvDirDecree: Node (a move's source) drove the directory decree for
	// object Obj to completion — a quorum chose home node B at epoch A.
	EvDirDecree
	// EvDirDegraded: the directory round for object Obj gave up (Str says
	// why: decree attempts exhausted, lookup timeout, all replicas
	// suspected); the caller fell back to forwarding-address mode.
	EvDirDegraded
	// EvDirLookup: Node resolved a directory lookup for object Obj; A is 1
	// on a hit (B is the recorded home node) and 0 on a miss/degrade.
	EvDirLookup
)

// kindRow states one event kind once: its name, its trace-line renderer
// and its Chrome-trace lane. Kind.String, Event.Text and WriteChromeTrace
// read it; no other code names, renders or places a kind.
type kindRow struct {
	name string
	// tid is the lane of the kind's Chrome instants (tidKernel, tidWire),
	// or 0 when the kind is no instant (conversion batches and frames are
	// inside span slices).
	tid int32
	// chrome, when set, names the Chrome instant as chrome+" "+Str instead
	// of by the kind's name.
	chrome string
	// text renders the event as a trace line, without the timestamp
	// prefix the sink adds.
	text func(e Event) string
}

var kinds = [...]kindRow{
	EvText: {"text", 0, "", func(e Event) string { return e.Str }},
	EvThreadStop: {"thread-stop", tidKernel, "", func(e Event) string {
		return fmt.Sprintf("node%d frag%08x stopped at bus stop %d in %s", e.Node, e.Frag, e.A, e.Str)
	}},
	EvThreadResume: {"thread-resume", tidKernel, "", func(e Event) string {
		return fmt.Sprintf("node%d frag%08x resumed (%d records respecialized)", e.Node, e.Frag, e.A)
	}},
	EvConvOut: {"conv-out", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d MD->MI conversion: %d calls, %d bytes", e.Node, e.A, e.B)
	}},
	EvConvIn: {"conv-in", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d MI->MD conversion: %d calls, %d bytes", e.Node, e.A, e.B)
	}},
	EvWireSend: {"wire-send", tidWire, "wire-send", func(e Event) string {
		return fmt.Sprintf("node%d -> node%d %s (%d bytes)", e.Node, e.B, e.Str, e.A)
	}},
	EvWireRecv: {"wire-recv", tidWire, "wire-recv", func(e Event) string {
		return fmt.Sprintf("node%d <- node%d %s (%d bytes)", e.Node, e.B, e.Str, e.A)
	}},
	EvNetFrame: {"net-frame", 0, "", func(e Event) string {
		return fmt.Sprintf("net: frame from node%d, %d bytes (%d payload), %dµs on the medium", e.Node, e.A, e.B, e.Span)
	}},
	EvMigrateOut: {"migrate-out", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d migrate-out obj%08x -> node%d (%s, %d frags, span %d)", e.Node, e.Obj, e.B, e.Str, e.A, e.Span)
	}},
	EvMigrateIn: {"migrate-in", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d migrate-in obj%08x <- node%d (span %d)", e.Node, e.Obj, e.B, e.Span)
	}},
	EvRemoteInvoke: {"remote-invoke", tidKernel, "invoke", func(e Event) string {
		return fmt.Sprintf("node%d remote invoke %s on obj%08x at node%d", e.Node, e.Str, e.Obj, e.B)
	}},
	EvProxyForward: {"proxy-forward", tidKernel, "forward", func(e Event) string {
		return fmt.Sprintf("node%d forwarded %s about obj%08x to node%d", e.Node, e.Str, e.Obj, e.B)
	}},
	EvMonitorWait: {"monitor-wait", tidKernel, "", func(e Event) string {
		return fmt.Sprintf("node%d frag%08x wait on cond %d of obj%08x", e.Node, e.Frag, e.A, e.Obj)
	}},
	EvMonitorSignal: {"monitor-signal", tidKernel, "", func(e Event) string {
		return fmt.Sprintf("node%d frag%08x signal cond %d of obj%08x", e.Node, e.Frag, e.A, e.Obj)
	}},
	EvMonitorBlock: {"monitor-block", tidKernel, "", func(e Event) string {
		return fmt.Sprintf("node%d frag%08x blocked at monitor entry of obj%08x", e.Node, e.Frag, e.Obj)
	}},
	EvGCCycle: {"gc-cycle", tidKernel, "", func(e Event) string {
		return fmt.Sprintf("node%d gc: freed %d objects (%d bytes)", e.Node, e.A, e.B)
	}},
	EvFault: {"fault", tidKernel, "", func(e Event) string {
		return fmt.Sprintf("node%d frag%08x FAULT: %s", e.Node, e.Frag, e.Str)
	}},
	EvFaultInject: {"fault-inject", 0, "", func(e Event) string {
		return fmt.Sprintf("chaos: %s frame node%d -> node%d", e.Str, e.Node, e.B)
	}},
	EvRetransmit: {"retransmit", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d retransmit seq %d -> node%d (%s, attempt %d)", e.Node, e.A, e.B, e.Str, e.Span)
	}},
	EvMoveCommit: {"move-commit", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d move-commit obj%08x -> node%d (span %d)", e.Node, e.Obj, e.B, e.Span)
	}},
	EvMoveAbort: {"move-abort", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d move-abort obj%08x -> node%d (span %d): %s", e.Node, e.Obj, e.B, e.Span, e.Str)
	}},
	EvMoveDupDrop: {"move-dup-drop", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d dropped duplicate Move of obj%08x from node%d (span %d)", e.Node, e.Obj, e.B, e.Span)
	}},
	EvNodeCrash: {"node-crash", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d CRASHED", e.Node)
	}},
	EvNodeRestart: {"node-restart", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d restarted", e.Node)
	}},
	EvNodeSuspect: {"node-suspect", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d suspects node%d down (silent %dµs)", e.Node, e.B, e.A)
	}},
	EvNodeRecover: {"node-recover", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d heard from node%d again", e.Node, e.B)
	}},
	EvLinkDrop: {"link-drop", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d dropped frame from node%d (%s)", e.Node, e.B, e.Str)
	}},
	EvMoveGroupOut: {"move-group-out", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d move-group-out %d objects -> node%d (span %d)", e.Node, e.A, e.B, e.Span)
	}},
	EvMoveGroupIn: {"move-group-in", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d move-group-in %d objects <- node%d (span %d)", e.Node, e.A, e.B, e.Span)
	}},
	EvAutoDecision: {"auto-decision", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d auto-decision #%d: %s -> node%d", e.Node, e.A, e.Str, e.B)
	}},
	EvDirDecree: {"dir-decree", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d dir-decree obj%08x @ epoch %d -> node%d", e.Node, e.Obj, e.A, e.B)
	}},
	EvDirDegraded: {"dir-degraded", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d dir-degraded obj%08x: %s", e.Node, e.Obj, e.Str)
	}},
	EvDirLookup: {"dir-lookup", 0, "", func(e Event) string {
		return fmt.Sprintf("node%d dir-lookup obj%08x: hit=%d node%d", e.Node, e.Obj, e.A, e.B)
	}},
}

// row returns k's table row, or nil for a kind outside the table.
func (k Kind) row() *kindRow {
	if int(k) < len(kinds) && kinds[k].text != nil {
		return &kinds[k]
	}
	return nil
}

func (k Kind) String() string {
	if r := k.row(); r != nil {
		return r.name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one structured trace event. Field meaning depends on Kind (see
// the kind constants); unused fields are zero. At is simulated microseconds,
// Seq the event's emission index within its node's ring (per-node; cross-
// node order comes from sorting on (At, Node, Seq)).
type Event struct {
	Seq  uint64
	At   int64
	Node int32
	Kind Kind
	Span uint32 // migration span id (0: none)
	Frag uint32 // thread fragment id (0: none)
	Obj  uint32 // object identity bits (0: none)
	A, B uint64 // kind-specific scalars
	Str  string // kind-specific label
}

// Text renders the event as a legacy-style kernel trace line (without the
// timestamp prefix, which the sink adds).
func (e Event) Text() string {
	if r := e.Kind.row(); r != nil {
		return r.text(e)
	}
	return fmt.Sprintf("node%d %s", e.Node, e.Kind)
}

// ring is a bounded per-node event buffer: the most recent cap events.
// Each ring numbers its own events (seq) and counts its own evictions
// (dropped): a ring is only ever written by its node's execution context,
// and a bounded ring per node keeps one busy node from evicting another's
// events.
type ring struct {
	buf     []Event
	next    int
	wrapped bool
	seq     uint64
	dropped uint64
}

func (r *ring) push(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	r.wrapped = true
}

// all returns the retained events oldest first.
func (r *ring) all() []Event {
	if !r.wrapped {
		return r.buf
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// NodeInfo labels one node in exports.
type NodeInfo struct {
	Name string // machine model name
	Arch string // ISA name
}

// DefaultRingCap bounds each node's event ring in a cluster's recorder.
const DefaultRingCap = 8192

// Recorder collects events, spans and metrics for one cluster. Per-node
// event emission is partitioned: node i's events go to node i's ring,
// numbered by that ring's own counter. The span table and metrics
// registry are internally locked; the text sink is not.
type Recorder struct {
	nodes   []NodeInfo
	rings   []ring
	ringCap int // each ring's capacity (DefaultRingCap in a cluster)
	spanMu  sync.Mutex
	// spans[lane][idx] is the idx-th span opened by source node lane; a
	// span's id encodes both (see BeginSpan), so lookup is two indexings.
	spans [][]*Span
	reg   *Registry
	sink  func(string)
}

// NewRecorder returns a recorder for n nodes with per-node rings of ringCap
// (at least 1) events.
func NewRecorder(n, ringCap int) *Recorder {
	r := &Recorder{
		nodes:   make([]NodeInfo, n),
		ringCap: ringCap,
		rings:   make([]ring, n),
		spans:   make([][]*Span, max(n, 1)),
		reg:     NewRegistry(),
	}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, 0, ringCap)
	}
	return r
}

// SetNodeInfo labels node i for exports.
func (r *Recorder) SetNodeInfo(i int, name, arch string) {
	if i >= 0 && i < len(r.nodes) {
		r.nodes[i] = NodeInfo{Name: name, Arch: arch}
	}
}

// Node returns node i's label.
func (r *Recorder) Node(i int) NodeInfo {
	if i >= 0 && i < len(r.nodes) {
		return r.nodes[i]
	}
	return NodeInfo{Name: fmt.Sprintf("node%d", i)}
}

// NumNodes returns the node count.
func (r *Recorder) NumNodes() int { return len(r.nodes) }

// Metrics returns the registry.
func (r *Recorder) Metrics() *Registry { return r.reg }

// SetTextSink installs a line sink that receives every event rendered as a
// legacy trace line (the old kernel Trace hook).
func (r *Recorder) SetTextSink(f func(string)) { r.sink = f }

// Emit records one event: stamps the owning ring's sequence number and
// appends to that ring, rendering to the text sink if one is installed.
// Every event belongs to a node: an event of a node outside the recorder
// is a programming error, and panics.
// Seq is per-ring (node), not global: it is what the canonical
// (At, Node, Seq) merge in Events sorts by, and the event log prints it.
func (r *Recorder) Emit(e Event) {
	rg := &r.rings[e.Node]
	rg.seq++
	e.Seq = rg.seq
	if rg.wrapped || len(rg.buf) == cap(rg.buf) {
		rg.dropped++
	}
	rg.push(e)
	if r.sink != nil {
		r.sink(fmt.Sprintf("[%8dµs] %s", e.At, e.Text()))
	}
}

// Textf emits a free-form trace line as an EvText event.
func (r *Recorder) Textf(at int64, node int32, format string, args ...any) {
	r.Emit(Event{At: at, Node: node, Kind: EvText, Str: fmt.Sprintf(format, args...)})
}

// Dropped reports how many events were evicted from full rings (coverage
// caps are never silent).
func (r *Recorder) Dropped() uint64 {
	var d uint64
	for i := range r.rings {
		d += r.rings[i].dropped
	}
	return d
}

// Events returns every retained event merged in the canonical
// (At, Node, Seq) order — time, then node, then each ring's own emission
// order. This is the simulator's canonical event order.
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.rings {
		out = append(out, r.rings[i].all()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}

// OnFrame implements netsim's FrameObserver: the shared medium carried a
// frame. xmitMicros is the serialization time on the medium. Aggregate
// traffic counters come from netsim.Network.Counters at snapshot time; the
// observer only contributes the per-frame event.
func (r *Recorder) OnFrame(at int64, src, dst int, payload, frame int, xmitMicros int64) {
	r.Emit(Event{At: at, Node: int32(src), Kind: EvNetFrame,
		A: uint64(frame), B: uint64(payload), Span: uint32(xmitMicros)})
}
