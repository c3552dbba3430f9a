// Package kernel is the per-node runtime of the system: objects and object
// tables, native-code threads and their distributed call stacks, monitors,
// local and remote invocation, and — the paper's contribution — object and
// native-code thread migration among heterogeneous nodes using bus stops
// and templates (§3.5).
//
// A Cluster is a deterministic simulation of a network of heterogeneous
// workstations (Figure 1): every node runs real byte-encoded machine code
// for its own ISA against its own byte-ordered memory; all cross-node
// traffic is genuinely serialized network-format bytes.
package kernel

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/auto"
	"repro/internal/chaos"
	"repro/internal/codegen"
	"repro/internal/codesrv"
	"repro/internal/dir"
	"repro/internal/ir"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

// ConvMode selects the data-conversion regime, the axis of Table 1.
type ConvMode int

// Conversion regimes. The zero value is the paper's enhanced system.
const (
	// ModeEnhanced is the paper's system: everything is converted through
	// the machine-independent network format with per-value conversion
	// procedures, regardless of the peer's architecture.
	ModeEnhanced ConvMode = iota
	// ModeOriginal is the original homogeneous-only Emerald: machine words
	// travel raw, so source and destination architectures must match.
	ModeOriginal
	// ModeEnhancedBatched uses the efficient conversion routines the paper
	// predicts would halve the penalty (§3.6 ablation).
	ModeEnhancedBatched
	// ModeEnhancedFastPath converts only between unlike architectures,
	// taking the raw path for homogeneous pairs ([SC88] multi-protocol RPC).
	ModeEnhancedFastPath
)

func (m ConvMode) String() string {
	switch m {
	case ModeOriginal:
		return "original"
	case ModeEnhanced:
		return "enhanced"
	case ModeEnhancedBatched:
		return "enhanced-batched"
	case ModeEnhancedFastPath:
		return "enhanced-fastpath"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// MarshalText writes the mode by name, as BENCH_conv.json records it.
func (m ConvMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// convRegime is what a transfer with one peer costs under a ConvMode: the
// converter its values go through and the density of the network-format
// layer's per-byte calls (§3.6), in halves of Costs.ConvCallsPerKB.
type convRegime struct {
	conv        wire.Regime
	protoHalves uint64
}

// convRegimes states each ConvMode's costs once: [0] for a peer of the
// node's own ISA, [1] for a peer of another ISA.
var convRegimes = [...][2]convRegime{
	ModeEnhanced:         {{wire.PerValue, 2}, {wire.PerValue, 2}},
	ModeOriginal:         {{wire.Raw, 0}, {wire.Raw, 0}},
	ModeEnhancedBatched:  {{wire.Batched, 1}, {wire.Batched, 1}},
	ModeEnhancedFastPath: {{wire.Raw, 0}, {wire.PerValue, 2}},
}

// regimeFor returns the costs of a transfer between n and node peer.
func (n *Node) regimeFor(peer int) convRegime {
	unlike := 0
	if n.cluster.Nodes[peer].Spec.ID != n.Spec.ID {
		unlike = 1
	}
	return convRegimes[n.cluster.Mode][unlike]
}

// converterFor returns the converter n uses for a transfer to or from node
// peer.
func (n *Node) converterFor(peer int) *wire.Converter {
	return &n.conv[n.regimeFor(peer).conv]
}

// Costs are the kernel-side cycle costs of the simulation's cost model.
// They are calibrated against the paper's absolute Table 1 numbers; see
// EXPERIMENTS.md. Structural quantities (conversion calls, bytes, message
// counts, executed instructions) are measured, not assumed.
type Costs struct {
	// ConvCallCycles per conversion-procedure call (§3.6 driver).
	ConvCallCycles uint32
	// ConvCallsPerKB: the enhanced system's network-format layer performs
	// "an average of 1-2 calls of conversion procedures for each byte being
	// transferred" (§3.6); this is that density, in calls per 1024 payload
	// bytes, charged at each end of a converting transfer at the fraction
	// convRegimes gives (the batched routines halve it: the paper's ~50%
	// guess).
	ConvCallsPerKB uint32
	// SendCycles / RecvCycles: per-message protocol + OS networking stack.
	SendCycles, RecvCycles uint32
	// PerByteCycles: copying/marshalling cost per payload byte.
	PerByteCycles uint32
	// CallCycles / RetCycles / PerArgCycles: local invocation service.
	CallCycles, RetCycles, PerArgCycles uint32
	// SyscallCycles: base cost of simple kernel services.
	SyscallCycles uint32
	// MigrateCycles: fixed per-object migration bookkeeping on each side.
	MigrateCycles uint32
}

// DefaultCosts is the calibrated cost model (see EXPERIMENTS.md for the
// calibration against Table 1).
func DefaultCosts() Costs {
	return Costs{
		ConvCallCycles: 907,
		ConvCallsPerKB: 768, // 0.75 calls per byte at each end (~1.9 measured overall)
		SendCycles:     170000,
		RecvCycles:     170000,
		PerByteCycles:  16,
		CallCycles:     60,
		RetCycles:      50,
		PerArgCycles:   6,
		SyscallCycles:  40,
		MigrateCycles:  15000,
	}
}

// Config describes one run. The zero value is the shipped system, so
// callers set only what they change; NewCluster resolves the zero sizing
// fields (withDefaults) and the cluster's embedded Config then holds the
// values in force. core.Options is this type and core.RegisterFlags the one
// place a field gets a command-line spelling (DESIGN.md §17 lists them all).
type Config struct {
	Mode ConvMode // zero: ModeEnhanced, the paper's system
	// Costs is the kernel-side cycle cost model (zero: DefaultCosts).
	Costs    Costs
	MemBytes int // per node, a cap: Node.Mem grows to it (0: 8 MB)
	// SliceInstrs requests preemption after that many instructions of a
	// slice: the next poll yields (0: 200000). The differential tests
	// shrink it to force constant preemption.
	SliceInstrs int
	// Placement maps root objects to nodes for core.System.Run (nil: all
	// on node 0).
	Placement func(objName string, rootIdx int) int
	// Parallel makes Run drive each node's events on its own goroutine,
	// with results identical to the sequential engine (DESIGN.md §12).
	Parallel bool
	// SpecOverride substitutes custom architecture specs (register-home
	// ablations); nil uses arch.SpecOf. The program must have been compiled
	// with the same specs.
	SpecOverride func(arch.ID) *arch.Spec
	// VetOnLoad runs the mobility-soundness metadata passes (internal/vet)
	// over each code object the first time a node loads it, refusing the
	// load when an error-severity finding exists. A program with skewed
	// bus-stop tables or mismatched templates would otherwise corrupt the
	// first thread that migrates through it.
	VetOnLoad bool
	// LegacyDispatch forces the byte-at-a-time reference emulator
	// (arch.Step / arch.RunLegacy) instead of the fused program compiled
	// at load (arch.Fuse). Observable behavior — traps, cycle counts,
	// memory images, printed output — is identical either way; the
	// differential tests flip this knob to prove it, and it is the one
	// triage escape hatch. The legacy path is ~40x slower on compute-bound
	// code (BENCH_jit.json): it decodes and compiles every instruction it
	// steps.
	LegacyDispatch bool
	// Trace, when set, receives kernel event lines (for debugging). It is
	// installed as a text sink over the structured event stream (see
	// internal/obs): every emitted event renders as one legacy-style line.
	// The sink is a plain callback, so NewCluster refuses it under Parallel.
	Trace func(string)
	// Chaos, when non-nil, arms the deterministic fault plan (frame drops,
	// duplicates, delays, corruption, partitions, node crashes) and switches
	// the kernel to the crash-tolerant migration protocol: CRC'd sequence-
	// numbered acked frames with retransmission, two-phase commit for moves,
	// and heartbeat-based crash suspicion. When nil (the default) the wire
	// format and event stream are byte-identical to previous releases.
	Chaos *chaos.Plan
	// AutoPolicy, when non-empty, arms the adaptive-placement subsystem
	// (internal/auto) with the named policy: the cluster periodically builds
	// a metrics view, asks the policy for placement decisions, and executes
	// them as (batched cohort) migrations. Empty keeps the engine byte-
	// identical to a policy-free build — no extra metrics, events or
	// timers. Placement runs on the sequential engine only (the tick is a
	// cluster-level simulation event).
	AutoPolicy string
	// AutoCohorts are class-name groups that migrate together, computed by
	// internal/pta group-cohort analysis (core.NewSystem fills them in,
	// translating site labels to class names so the kernel needs no pta
	// dependency).
	AutoCohorts [][]string
	// AutoPinned are class names the policy must never schedule (the
	// immobile-reach pinned constraint from internal/pta; filled in by
	// core.NewSystem).
	AutoPinned []string
	// AutoNoBatch makes each policy decision move only the named object
	// instead of its whole cohort in one batched transfer. The control arm
	// of the batching experiment (embench auto); no flag.
	AutoNoBatch bool
	// NoSharpen disables live-set sharpening: the per-stop LiveVars masks
	// the compiler embeds in bus-stop tables normally canonicalize
	// statically dead int/real frame slots (substituting the canonical zero
	// word) while marshalling; set, those slots ship their stale payload.
	// The wire format, converter call sequence, simulated charges and event
	// stream are byte-identical either way — only the payload bits of words
	// no execution can read change. The control arm of the sharpening
	// differential; no flag.
	NoSharpen bool
	// DirReplicas, when > 0, arms the replicated object directory (emdir,
	// internal/dir): every move commit drives a Paxos round recording the
	// object's new home across that many replicas of its shard (clamped to
	// the node count), locates consult the directory first (one shard query
	// instead of a forwarding-address walk), and a background compactor
	// rewrites stale proxies. 0 (the default) keeps both engines
	// byte-identical to a directory-free build — no extra messages,
	// metrics, events or timers.
	DirReplicas int
	// DirCompactPeriodMicros is the per-node compactor tick period (0
	// selects DefaultDirCompactMicros).
	DirCompactPeriodMicros int64
	// DirLeaseMicros, when > 0 with the directory armed, makes shard
	// replicas grant that many simulated microseconds of read lease on
	// every positive lookup reply: the asker caches the record and repeat
	// locates/invokes of a stable object skip the shard query entirely.
	// Leases are epoch-fenced and invalidated early by learned decrees and
	// by peer suspicion. 0 (the default) keeps lookup behavior identical
	// to the lease-free directory.
	DirLeaseMicros int64
	// DirNoGroupDecrees keeps every decree's slot list at length 1: each
	// member of a MoveGroup cohort then drives its own decree round instead
	// of sharing one with the members on its replica set. The control arm
	// of the batching experiment (embench dir); no flag.
	DirNoGroupDecrees bool
}

// withDefaults resolves the zero-valued sizing fields.
func (cfg Config) withDefaults() Config {
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 8 << 20
	}
	if cfg.SliceInstrs <= 0 {
		cfg.SliceInstrs = 200000
	}
	return cfg
}

// stackSize is the memory region each thread fragment's stack owns.
const stackSize uint32 = 64 << 10

// OutputLine is one print statement's output.
type OutputLine struct {
	Node int
	At   netsim.Micros
	Text string
}

// Fault records a thread that died from a runtime error.
type Fault struct {
	Node int
	At   netsim.Micros
	Frag uint32
	Msg  string
	// Err, when non-nil, types the failure cause (errors.Is against
	// ErrNodeDown distinguishes crash-induced faults from program errors).
	Err error
}

// Cluster is a simulated network of nodes executing one program.
type Cluster struct {
	Config
	Sim     *netsim.Sim
	Net     *netsim.Network
	Prog    *codegen.Program
	CodeSrv *codesrv.Server
	Nodes   []*Node

	// Rec is the cluster's observability recorder: structured events,
	// migration spans and the metrics registry (see internal/obs).
	Rec *obs.Recorder

	Output []OutputLine
	Faults []Fault

	// sharded is set while Run drives the cluster on the parallel engine:
	// printed lines and faults shard into per-node logs (merged afterwards)
	// instead of appending to the shared slices above.
	sharded bool

	// Adaptive-placement state (see auto.go); autoOn gates the policy-feed
	// metrics so policy-disabled runs stay byte-identical.
	autoOn     bool
	autoEng    *auto.Engine
	autoCohort map[string]map[string]bool
	autoPinned map[string]bool

	// Replicated-directory state (see dir.go); dirOn gates every directory
	// code path so directory-off runs stay byte-identical. dirPlace is the
	// per-shard replica set (dir.ReplicaSet), tabulated at arming time.
	dirOn    bool
	dirCfg   dir.Config
	dirPlace [][]int
}

// NewCluster builds a cluster of the given machine models. In ModeOriginal
// all models must share one architecture.
func NewCluster(prog *codegen.Program, models []netsim.MachineModel, cfg Config) (*Cluster, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("kernel: need at least one node")
	}
	if cfg.AutoPolicy != "" && cfg.Parallel {
		return nil, fmt.Errorf("kernel: adaptive placement (-auto) requires the sequential engine")
	}
	if cfg.Trace != nil && cfg.Parallel {
		return nil, fmt.Errorf("kernel: the text trace (-trace) requires the sequential engine")
	}
	cfg = cfg.withDefaults()
	if cfg.Mode < 0 || int(cfg.Mode) >= len(convRegimes) {
		return nil, fmt.Errorf("kernel: unknown conversion mode %v", cfg.Mode)
	}
	if cfg.Mode == ModeOriginal {
		for _, m := range models[1:] {
			if m.Arch != models[0].Arch {
				return nil, fmt.Errorf("kernel: the original system supports only homogeneous networks (%s vs %s)",
					arch.ID(models[0].Arch), arch.ID(m.Arch))
			}
		}
	}
	c := &Cluster{
		Config:  cfg,
		Sim:     netsim.NewSim(),
		Prog:    prog,
		CodeSrv: codesrv.New(prog),
		Rec:     obs.NewRecorder(len(models), obs.DefaultRingCap),
	}
	c.Rec.SetTextSink(cfg.Trace)
	c.Net = netsim.NewNetwork(c.Sim)
	c.Net.Observer = c.Rec
	for i, m := range models {
		n := newNode(c, i, m)
		c.Nodes = append(c.Nodes, n)
		c.Net.Attach(i, n.deliver)
		c.Rec.SetNodeInfo(i, m.Name, arch.ID(m.Arch).String())
	}
	if cfg.Chaos != nil {
		if err := c.armChaos(cfg.Chaos); err != nil {
			return nil, err
		}
	}
	if cfg.AutoPolicy != "" {
		if err := c.armAuto(); err != nil {
			return nil, err
		}
	}
	if cfg.DirReplicas > 0 {
		c.armDir()
	}
	return c, nil
}

// armChaos installs the fault injector and schedules the plan's crashes,
// restarts and per-node heartbeats. All chaos timers are weak simulation
// events: they never keep an otherwise-finished simulation alive.
func (c *Cluster) armChaos(plan *chaos.Plan) error {
	c.Net.Inject = chaos.NewInjector(plan, c.Rec)
	c.Net.OnLost = func(at netsim.Micros, src, dst int) {
		c.Rec.Emit(obs.Event{At: int64(at), Node: int32(dst), Kind: obs.EvLinkDrop,
			B: uint64(src), Str: "down"})
	}
	for _, cr := range plan.Crashes {
		cr := cr
		if cr.Node < 0 || cr.Node >= len(c.Nodes) {
			return fmt.Errorf("kernel: chaos plan crashes node %d; cluster has %d nodes", cr.Node, len(c.Nodes))
		}
		c.Sim.AtNodeWeak(cr.Node, cr.At, func() { c.Nodes[cr.Node].crash() })
		if cr.RestartAt > 0 {
			c.Sim.AtNodeWeak(cr.Node, cr.RestartAt, func() { c.Nodes[cr.Node].restart() })
		}
	}
	for _, p := range plan.Partitions {
		if p.A < 0 || p.A >= len(c.Nodes) || p.B < 0 || p.B >= len(c.Nodes) {
			return fmt.Errorf("kernel: chaos plan partitions node pair %d-%d; cluster has %d nodes", p.A, p.B, len(c.Nodes))
		}
	}
	for _, n := range c.Nodes {
		n.lastSent = make([]netsim.Micros, len(c.Nodes))
		n.every(plan.HeartbeatPeriod(), n.heartbeatTick)
	}
	return nil
}

// Start boots the program: the loader instantiates the object named "Main"
// (which must have a process section); other objects — including ones with
// process sections, which spawn their thread at creation — come to life via
// `new`. If no object is named Main, every object with a process section is
// instantiated as a root, in declaration order. placement maps root index
// to node id; nil places every root on node 0.
func (c *Cluster) Start(placement func(objName string, rootIdx int) int) {
	var roots []string
	if m := c.Prog.Object("Main"); m != nil && m.HasProcess {
		roots = []string{"Main"}
	} else {
		for _, oc := range c.Prog.Objects {
			if oc.HasProcess {
				roots = append(roots, oc.Name)
			}
		}
	}
	c.StartRoots(roots, placement)
}

// StartRoots instantiates the named objects as program roots.
func (c *Cluster) StartRoots(roots []string, placement func(objName string, rootIdx int) int) {
	for i, name := range roots {
		nodeID := 0
		if placement != nil {
			nodeID = placement(name, i)
		}
		n := c.Nodes[nodeID]
		name := name
		c.Sim.AtNode(nodeID, 0, func() { n.bootstrap(name) })
	}
}

// Run drives the simulation to completion (or the event budget) on the
// engine Config.Parallel selects. The parallel engine runs one goroutine
// per node; its observable results — printed lines, faults, events, spans,
// metrics, per-node counters — are identical to the sequential engine's
// (DESIGN.md §12 has the argument).
func (c *Cluster) Run(maxEvents uint64) error {
	if !c.Parallel {
		return c.Sim.Run(maxEvents)
	}
	c.sharded = true
	err := c.Sim.RunParallel(c.Net, len(c.Nodes), maxEvents)
	c.sharded = false
	c.mergeShards()
	return err
}

// mergeShards folds the per-node output and fault shards accumulated during
// a parallel run into the shared cluster slices, in the canonical order the
// sequential engine produces: (At, Node, per-node emission order). A stable
// sort by At over the node-ordered concatenation yields exactly that.
func (c *Cluster) mergeShards() {
	for _, n := range c.Nodes {
		c.Output = append(c.Output, n.out...)
		c.Faults = append(c.Faults, n.faultLog...)
		n.out, n.faultLog = nil, nil
	}
	sort.SliceStable(c.Output, func(i, j int) bool { return c.Output[i].At < c.Output[j].At })
	sort.SliceStable(c.Faults, func(i, j int) bool { return c.Faults[i].At < c.Faults[j].At })
}

// PrintedLines returns all output text in order.
func (c *Cluster) PrintedLines() []string {
	out := make([]string, len(c.Output))
	for i, l := range c.Output {
		out[i] = l.Text
	}
	return out
}

// OutputText joins all printed lines.
func (c *Cluster) OutputText() string {
	return strings.Join(c.PrintedLines(), "\n")
}

// ConvStats sums conversion statistics over all nodes and converters,
// including the network-format layer's per-byte conversion calls.
func (c *Cluster) ConvStats() wire.Stats {
	var s wire.Stats
	for _, n := range c.Nodes {
		s.Add(n.convStats())
		s.Calls += n.ProtoConvCalls
	}
	return s
}

// convStats sums the counters of n's converters.
func (n *Node) convStats() (s wire.Stats) {
	for i := range n.conv {
		s.Add(n.conv[i].Stats())
	}
	return s
}

// LoadedFuncs counts functions loaded across all nodes (each node that
// loads a code object gets its own loadedFunc per function).
func (c *Cluster) LoadedFuncs() int {
	total := 0
	for _, n := range c.Nodes {
		total += len(n.descs)
	}
	return total
}

// LoadedFuncCodes lists the compiled functions n has loaded, in load order
// (nodes of one ISA list the same values, fused by the first load anywhere).
func (n *Node) LoadedFuncCodes() (fcs []*codegen.FuncCode) {
	for _, lf := range n.descs {
		fcs = append(fcs, lf.fc)
	}
	return fcs
}

// BlockedThreads lists fragments that are still blocked (for deadlock
// diagnostics after Run).
func (c *Cluster) BlockedThreads() []string {
	var out []string
	for _, n := range c.Nodes {
		ids := make([]uint32, 0, len(n.frags))
		for id := range n.frags {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			f := n.frags[id]
			out = append(out, fmt.Sprintf("node%d frag%08x %s in %s",
				n.ID, f.ID, f.Status, f.topName()))
		}
	}
	return out
}

// tracef emits a node-attributed free-form trace line.
func (n *Node) tracef(format string, args ...any) {
	n.cluster.Rec.Textf(int64(n.now()), int32(n.ID), format, args...)
}

// MetricsSnapshot captures the cluster's metrics registry at the current
// simulated instant, folding in the per-node kernel statistics, per-kind
// conversion counters, and the network's traffic counters.
func (c *Cluster) MetricsSnapshot() obs.Snapshot {
	reg := c.Rec.Metrics()
	for _, n := range c.Nodes {
		lbl := n.labels
		reg.SetGauge("msgs_sent", lbl, int64(n.MsgsSent))
		reg.SetGauge("msgs_recv", lbl, int64(n.MsgsRecv))
		reg.SetGauge("instrs", lbl, int64(n.Instrs))
		reg.SetGauge("migrations", lbl, int64(n.Migrations))
		reg.SetGauge("proto_conv_calls", lbl, int64(n.ProtoConvCalls))
		reg.SetGauge("cpu_cycles", lbl, int64(n.CPU.Cycles))
		s := n.convStats()
		reg.SetGauge("conv_calls", lbl+",kind=int", int64(s.IntCalls))
		reg.SetGauge("conv_calls", lbl+",kind=real", int64(s.RealCalls))
		reg.SetGauge("conv_calls", lbl+",kind=ref", int64(s.RefCalls))
		reg.SetGauge("conv_values", lbl+",kind=int", int64(s.IntVals))
		reg.SetGauge("conv_values", lbl+",kind=real", int64(s.RealVals))
		reg.SetGauge("conv_values", lbl+",kind=ref", int64(s.RefVals))
	}
	nc := c.Net.Counters()
	reg.SetGauge("net_frames", "", int64(nc.Frames))
	reg.SetGauge("net_wire_bytes", "", int64(nc.Bytes))
	reg.SetGauge("net_busy_micros", "", int64(nc.BusyMicros))
	return reg.Snapshot(int64(c.Sim.Now()))
}

// ---------------------------------------------------------------- objects

// ObjKind distinguishes heap object classes.
type ObjKind byte

// Object classes.
const (
	ObjPlain ObjKind = iota
	ObjArray
	ObjString
)

// Obj is one object-table entry: a resident object or a remote proxy.
type Obj struct {
	OID      oid.OID
	Kind     ObjKind
	Resident bool
	// Resident state.
	Addr     uint32 // header address in node memory
	TableIdx uint32
	Code     *loadedCode // plain objects
	ElemKind ir.VK       // arrays
	Len      uint32      // arrays/strings
	Fixed    bool
	Mon      *Monitor
	// Epoch counts the object's moves (a forwarding-address timestamp).
	Epoch uint32
	// Proxy state.
	LastKnown int
	// LocStale marks a proxy whose LastKnown points at a node that has been
	// suspected down since we learned it: the cached location may be a
	// dangling forwarding address. Directory-armed runs re-resolve such
	// proxies through the directory instead of retrying into the dead node.
	LocStale bool
	// chained marks a proxy this node has forwarded traffic through (it sits
	// inside a forwarding chain); the directory compactor rewrites chained
	// proxies to point at the decreed home so chains shrink to ≤1 hop.
	chained bool
	// transit is the in-flight two-phase move this object is the subject of
	// (chaos runs only): while set, the object is still resident here but
	// operations on it park on the transaction and replay after commit or
	// abort.
	transit *moveTxn
}

// Monitor is the per-object monitor: a lock with an entry queue and
// condition queues, in the style the paper's Emerald implements with
// doubly-linked lists (hence the VAX UNLINK, §3.3).
type Monitor struct {
	Holder *Frag
	Entry  []*Frag
	Conds  [][]*Frag
}

func newMonitor(conds int) *Monitor { return &Monitor{Conds: make([][]*Frag, conds)} }
