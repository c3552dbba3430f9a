// Package auto is the adaptive-placement subsystem: pluggable policies that
// consume the kernel's metrics (per-node instruction pressure and per-object
// invocation traffic) and decide, periodically, which objects should live
// where, plus the static facts (Facts: group-migration cohorts, pinned
// classes) the kernel applies to every decision. The decision logic imports
// nothing from the kernel; the kernel builds a View each tick and executes
// the returned Decisions (see kernel/auto.go).
//
// Determinism is a hard requirement: the same sequence of Views must yield
// the same sequence of Decisions and a byte-identical decision log, because
// placement runs inside the deterministic simulation and its goldens.
// Every map iteration below is therefore sorted before use.
package auto

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/pta"
)

// ObjInfo describes one placement-eligible resident object.
type ObjInfo struct {
	OID   uint32
	Class string
	Node  int
	// Pinned objects are never scheduled: explicitly fixed, of an
	// immobile-reach pinned class, immutable, or mid-transit.
	Pinned bool
}

// ObjCall is the cumulative remote-invocation count addressed to one object
// from one caller node.
type ObjCall struct {
	OID   uint32
	Src   int
	Count uint64
}

// View is one periodic observation of the cluster, with cumulative
// counters; the engine differences successive views into per-window Deltas.
type View struct {
	Now      int64
	Nodes    int
	Instrs   []uint64  // per-node cumulative executed instructions
	ObjCalls []ObjCall // cumulative per-(object, caller) remote invocations, any order
	Objects  []ObjInfo // resident plain objects, any order
}

// Delta is the traffic of one observation window, numerically sorted.
type Delta struct {
	Instrs   []uint64
	ObjCalls []ObjCall // sorted by (OID, Src)
}

// Decision is one placement action: move Obj (and, implicitly, its static
// cohort) from its current node to To.
type Decision struct {
	Policy   string
	Obj      uint32
	Class    string
	From, To int
	Why      string
}

// Policy turns one window's observation into placement decisions. Decide
// must be deterministic in (v, d) and must not retain either.
type Policy interface {
	Name() string
	Decide(v View, d Delta) []Decision
}

// Facts computes the static placement facts of p from the points-to
// analysis. cohort maps each class to its cohort-mates: the classes of every
// allocation closure (pta.Cohorts) that holds the class, over closures of at
// least two classes; the kernel batches a moved object with its resident
// cohort-mates. pinned holds every class a fix can reach from a process
// thread (the immobile-reach facts); no instance of one is ever scheduled.
func Facts(p *ir.Program) (cohort map[string]map[string]bool, pinned map[string]bool, err error) {
	r, err := pta.Analyze(p)
	if err != nil {
		return nil, nil, err
	}
	cohort = map[string]map[string]bool{}
	for _, c := range r.Cohorts() {
		set := map[string]bool{}
		for _, m := range c.Members {
			set[m.TypeName] = true
		}
		if len(set) < 2 {
			continue
		}
		for cls := range set {
			if cohort[cls] == nil {
				cohort[cls] = map[string]bool{}
			}
			maps.Copy(cohort[cls], set)
		}
	}
	pinned = map[string]bool{}
	for _, obj := range p.Objects {
		for _, reach := range r.ProcessPinnedReach(obj.Name) {
			for _, cls := range reach.Classes {
				pinned[cls] = true
			}
		}
	}
	return cohort, pinned, nil
}

// Names lists the registered policies.
func Names() []string { return []string{"greedy-colocate", "load-balance"} }

// New builds an engine driving the named policy.
func New(policy string) (*Engine, error) {
	var pol Policy
	switch policy {
	case "greedy-colocate":
		pol = &GreedyColocate{MinCalls: 4, MaxMoves: 4}
	case "load-balance":
		pol = &LoadBalance{MinInstrs: 1000, Ratio: 4}
	default:
		return nil, fmt.Errorf("auto: unknown policy %q (have: %s)",
			policy, strings.Join(Names(), ", "))
	}
	return NewEngine(pol), nil
}

// Engine differences successive Views, consults the policy, filters out
// illegal decisions (pinned objects, self-moves), and keeps the canonical
// decision log.
type Engine struct {
	pol       Policy
	prevInstr []uint64
	prevObj   map[objKey]uint64
	log       []string
}

type objKey struct {
	oid uint32
	src int
}

// NewEngine wraps a policy (useful for tests injecting custom policies).
func NewEngine(pol Policy) *Engine {
	return &Engine{pol: pol, prevObj: map[objKey]uint64{}}
}

// Log returns the decision log: one line per decision, in decision order.
func (e *Engine) Log() []string { return e.log }

// Tick consumes one observation and returns the legal decisions, stamped
// with the policy name and appended to the log.
func (e *Engine) Tick(v View) []Decision {
	d := e.delta(v)
	sort.Slice(v.Objects, func(i, j int) bool { return v.Objects[i].OID < v.Objects[j].OID })
	byOID := make(map[uint32]ObjInfo, len(v.Objects))
	for _, o := range v.Objects {
		byOID[o.OID] = o
	}
	var out []Decision
	for _, dec := range e.pol.Decide(v, d) {
		o, ok := byOID[dec.Obj]
		if !ok || o.Pinned || dec.From == dec.To ||
			dec.To < 0 || dec.To >= v.Nodes || o.Node != dec.From {
			continue
		}
		dec.Policy = e.pol.Name()
		out = append(out, dec)
		e.log = append(e.log, fmt.Sprintf("t=%dus %s: move obj %d (%s) node%d -> node%d: %s",
			v.Now, dec.Policy, dec.Obj, dec.Class, dec.From, dec.To, dec.Why))
	}
	return out
}

// delta differences v against the previous view and advances the baseline.
func (e *Engine) delta(v View) Delta {
	d := Delta{Instrs: make([]uint64, len(v.Instrs))}
	for i, cum := range v.Instrs {
		var prev uint64
		if i < len(e.prevInstr) {
			prev = e.prevInstr[i]
		}
		d.Instrs[i] = cum - prev
	}
	e.prevInstr = append(e.prevInstr[:0], v.Instrs...)
	for _, oc := range v.ObjCalls {
		k := objKey{oc.OID, oc.Src}
		if w := oc.Count - e.prevObj[k]; w > 0 {
			d.ObjCalls = append(d.ObjCalls, ObjCall{OID: oc.OID, Src: oc.Src, Count: w})
		}
		e.prevObj[k] = oc.Count
	}
	sort.Slice(d.ObjCalls, func(i, j int) bool {
		if d.ObjCalls[i].OID != d.ObjCalls[j].OID {
			return d.ObjCalls[i].OID < d.ObjCalls[j].OID
		}
		return d.ObjCalls[i].Src < d.ObjCalls[j].Src
	})
	return d
}
