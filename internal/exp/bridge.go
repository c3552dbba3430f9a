// The paper's §2.4 technique for thread mobility among processors
// executing *differently optimized* codes — a design the paper describes
// but did not prototype ("the techniques described in this section are not
// backed up by a prototype implementation"). This is the Figure 3/4
// reproduction at the abstract-operation level, not a running-system
// component: no compiler pass emits these instances.
//
// Model: optimized instances derive from an abstract operation sequence
// (the paper's Figure 3 "abstract") by reversible primitive code-motion
// edits. A thread stopped at a visible program point of one instance has
// executed some prefix of that instance's operations. To continue in
// another instance, bridging code is synthesized: a fragment that executes
// exactly the operations the destination's join point expects but the
// source had not yet executed — each operation "executed exactly once" —
// after which control enters the destination code (Figure 4).
//
// The join point is chosen as the earliest destination position whose
// suffix is disjoint from the already-executed set (maximizing reuse of the
// destination's own code); the bridge runs in original program order, which
// is always a legal order since every instance is produced from the
// original by legal motions. Bridging from bridging code (a thread migrated
// again before the bridge finishes) works with the same algorithm because
// the executed set, not the code shape, is the input (§2.4, Example 3).

package exp

import (
	"fmt"
	"strings"
)

// AbsOp is an abstract operation (the paper's o1, o2, ..., switch()).
type AbsOp string

// OptCode is one optimized instance of an operation sequence.
type OptCode struct {
	Name string
	Ops  []AbsOp
}

// String renders the instance.
func (c *OptCode) String() string {
	parts := make([]string, len(c.Ops))
	for i, o := range c.Ops {
		parts[i] = string(o)
	}
	return c.Name + ": " + strings.Join(parts, "; ")
}

// IndexOf returns the position of op, or -1.
func (c *OptCode) IndexOf(op AbsOp) int {
	for i, o := range c.Ops {
		if o == op {
			return i
		}
	}
	return -1
}

// Motion is a primitive reversible code-motion edit: the operation at From
// is removed and reinserted at To (positions in the pre-edit sequence
// semantics: To is the index in the post-removal slice).
type Motion struct {
	From, To int
}

// Reverse returns the inverse edit.
func (m Motion) Reverse() Motion { return Motion{From: m.To, To: m.From} }

// Apply performs the edit on a copy of ops.
func (m Motion) Apply(ops []AbsOp) ([]AbsOp, error) {
	n := len(ops)
	if m.From < 0 || m.From >= n || m.To < 0 || m.To >= n {
		return nil, fmt.Errorf("bridge: move %d->%d outside code of %d ops", m.From, m.To, n)
	}
	out := make([]AbsOp, 0, n)
	out = append(out, ops[:m.From]...)
	out = append(out, ops[m.From+1:]...)
	rest := append([]AbsOp(nil), out[m.To:]...)
	out = append(out[:m.To:m.To], ops[m.From])
	out = append(out, rest...)
	return out, nil
}

// Optimize derives an instance from original by a sequence of primitive
// code motions, recording the edits (§2.4's "specification of how to
// construct the bridging code ... in terms of primitive code editing
// operations").
func Optimize(original *OptCode, name string, edits []Motion) (*OptCode, error) {
	ops := append([]AbsOp(nil), original.Ops...)
	var err error
	for _, e := range edits {
		ops, err = e.Apply(ops)
		if err != nil {
			return nil, err
		}
	}
	out := &OptCode{Name: name, Ops: ops}
	if err := sameOps(original, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Unoptimize reverses the edit sequence, recovering the original — the
// reversibility property §2.4 relies on.
func Unoptimize(optimized *OptCode, name string, edits []Motion) (*OptCode, error) {
	rev := make([]Motion, len(edits))
	for i, e := range edits {
		rev[len(edits)-1-i] = e.Reverse()
	}
	return Optimize(optimized, name, rev)
}

// sameOps verifies two instances are permutations of each other.
func sameOps(a, b *OptCode) error {
	if len(a.Ops) != len(b.Ops) {
		return fmt.Errorf("bridge: %s and %s have different lengths", a.Name, b.Name)
	}
	count := map[AbsOp]int{}
	for _, o := range a.Ops {
		count[o]++
		if count[o] > 1 {
			return fmt.Errorf("bridge: duplicate op %s in %s", o, a.Name)
		}
	}
	for _, o := range b.Ops {
		count[o]--
		if count[o] < 0 {
			return fmt.Errorf("bridge: op %s of %s missing from %s", o, b.Name, a.Name)
		}
	}
	return nil
}

// BridgePlan is synthesized bridging code: execute Bridge (in order), then
// enter To at JoinIdx.
type BridgePlan struct {
	To      *OptCode
	Bridge  []AbsOp
	JoinIdx int
}

// String renders the plan like Figure 4.
func (p *BridgePlan) String() string {
	parts := make([]string, len(p.Bridge))
	for i, o := range p.Bridge {
		parts[i] = string(o)
	}
	at := "<end>"
	if p.JoinIdx < len(p.To.Ops) {
		at = string(p.To.Ops[p.JoinIdx])
	}
	return fmt.Sprintf("bridge: %s; -> %s@%s", strings.Join(parts, "; "), p.To.Name, at)
}

// BuildBridge synthesizes bridging code for a thread whose executed set is
// the first stopIdx operations of from, targeting to. original fixes the legal
// execution order of bridge operations.
func BuildBridge(original, from *OptCode, stopIdx int, to *OptCode) (*BridgePlan, error) {
	if stopIdx < 0 || stopIdx > len(from.Ops) {
		return nil, fmt.Errorf("bridge: stop %d outside %s", stopIdx, from.Name)
	}
	executed := map[AbsOp]bool{}
	for _, o := range from.Ops[:stopIdx] {
		executed[o] = true
	}
	return BuildBridgeFromSet(original, executed, to)
}

// BuildBridgeFromSet synthesizes bridging code given the set of operations
// the thread has already executed (composable: works from bridging code
// too).
func BuildBridgeFromSet(original *OptCode, executed map[AbsOp]bool, to *OptCode) (*BridgePlan, error) {
	if err := validateSet(original, executed); err != nil {
		return nil, err
	}
	// Earliest join whose suffix is disjoint from the executed set.
	join := len(to.Ops)
	for q := len(to.Ops); q >= 0; q-- {
		ok := true
		for _, o := range to.Ops[q:] {
			if executed[o] {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		join = q
	}
	// Bridge = everything neither executed nor in the suffix, in original
	// program order.
	inSuffix := map[AbsOp]bool{}
	for _, o := range to.Ops[join:] {
		inSuffix[o] = true
	}
	var bridgeOps []AbsOp
	for _, o := range original.Ops {
		if !executed[o] && !inSuffix[o] {
			bridgeOps = append(bridgeOps, o)
		}
	}
	return &BridgePlan{To: to, Bridge: bridgeOps, JoinIdx: join}, nil
}

func validateSet(original *OptCode, executed map[AbsOp]bool) error {
	for o := range executed {
		if original.IndexOf(o) < 0 {
			return fmt.Errorf("bridge: executed op %s is not in the original code", o)
		}
	}
	return nil
}

// ---------------------------------------------------------------- execution

// BridgeTrace simulates executions for the exactly-once property tests: it
// logs every operation executed.
type BridgeTrace struct {
	Log []AbsOp
}

// Exec runs ops, logging them.
func (t *BridgeTrace) Exec(ops []AbsOp) {
	t.Log = append(t.Log, ops...)
}

// RunWithMigration simulates: execute from up to stopIdx, migrate using
// plan, then run the destination from the join point.
func RunWithMigration(from *OptCode, stopIdx int, plan *BridgePlan) *BridgeTrace {
	t := &BridgeTrace{}
	t.Exec(from.Ops[:stopIdx])
	t.Exec(plan.Bridge)
	t.Exec(plan.To.Ops[plan.JoinIdx:])
	return t
}

// ExactlyOnce verifies the trace executed precisely the original's
// operations, each one time (order may differ — that is the point).
func (t *BridgeTrace) ExactlyOnce(original *OptCode) error {
	count := map[AbsOp]int{}
	for _, o := range t.Log {
		count[o]++
	}
	for _, o := range original.Ops {
		switch count[o] {
		case 0:
			return fmt.Errorf("bridge: op %s never executed", o)
		case 1:
		default:
			return fmt.Errorf("bridge: op %s executed %d times", o, count[o])
		}
		delete(count, o)
	}
	for o, c := range count {
		return fmt.Errorf("bridge: foreign op %s executed %d times", o, c)
	}
	return nil
}

// Figure3 returns the paper's running example: the abstract sequence and
// the two differently optimized instances of Figure 3.
func Figure3() (abstract, code1, code2 *OptCode, edits1, edits2 []Motion) {
	abstract = &OptCode{Name: "abstract", Ops: []AbsOp{
		"o1", "o2", "o3", "switch()", "o4", "o5", "o6",
	}}
	// code1: o1; switch(); o2; o3; o4; o5; o6  — switch moved before o2/o3.
	edits1 = []Motion{{From: 3, To: 1}}
	// code2: o2; o5; switch(); o4; o1; o3; o6.
	edits2 = []Motion{
		{From: 1, To: 0}, // o2 first:          o2 o1 o3 sw o4 o5 o6
		{From: 5, To: 1}, // o5 second:         o2 o5 o1 o3 sw o4 o5? (o5 at idx5) -> o2 o5 o1 o3 sw o4 o6
		{From: 4, To: 2}, // switch third:      o2 o5 sw o1 o3 o4 o6
		{From: 5, To: 3}, // o4 fourth:         o2 o5 sw o4 o1 o3 o6
	}
	var err error
	code1, err = Optimize(abstract, "code1", edits1)
	if err != nil {
		panic(err)
	}
	code2, err = Optimize(abstract, "code2", edits2)
	if err != nil {
		panic(err)
	}
	return abstract, code1, code2, edits1, edits2
}
