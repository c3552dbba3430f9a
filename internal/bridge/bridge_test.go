// The bridging-code property tests: Figures 3 and 4 exactly, Example 3's
// composition, and exactly-once execution under random code motion and
// re-migration from half-executed bridges. The code they test is
// internal/exp's bridge.go.
package bridge_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestFigure3Shapes(t *testing.T) {
	abstract, code1, code2, _, _ := exp.Figure3()
	if got := code1.String(); got != "code1: o1; switch(); o2; o3; o4; o5; o6" {
		t.Errorf("code1 = %s", got)
	}
	if got := code2.String(); got != "code2: o2; o5; switch(); o4; o1; o3; o6" {
		t.Errorf("code2 = %s", got)
	}
	if got := abstract.String(); got != "abstract: o1; o2; o3; switch(); o4; o5; o6" {
		t.Errorf("abstract = %s", got)
	}
}

func TestFigure4Bridge(t *testing.T) {
	// The paper's Example 2: a thread stopped at the visible point after
	// switch() in code1 moves to a processor running code2. The bridge must
	// execute o2, o4, o5 and join code2 at o3 (Figure 4).
	abstract, code1, code2, _, _ := exp.Figure3()
	stop := code1.IndexOf("switch()") + 1 // o1 and switch() executed
	plan, err := exp.BuildBridge(abstract, code1, stop, code2)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.String(); got != "bridge: o2; o4; o5; -> code2@o3" {
		t.Errorf("plan = %s", got)
	}
	tr := exp.RunWithMigration(code1, stop, plan)
	if err := tr.ExactlyOnce(abstract); err != nil {
		t.Errorf("exactly-once violated: %v", err)
	}
}

func TestExample3Composition(t *testing.T) {
	// Example 3: the bridge can equivalently be built via the abstract
	// code — bridge(code1 -> abstract) composed with bridge(abstract ->
	// code2) yields the same executed-exactly-once behaviour.
	abstract, code1, code2, _, _ := exp.Figure3()
	stop := code1.IndexOf("switch()") + 1
	toAbstract, err := exp.BuildBridge(abstract, code1, stop, abstract)
	if err != nil {
		t.Fatal(err)
	}
	// "The bridging code from code1 to abstract consists of operations o2
	// and o3."
	if got := opsString(toAbstract.Bridge); got != "o2 o3" {
		t.Errorf("code1->abstract bridge = %q, want \"o2 o3\"", got)
	}
	// Continue: executed = prefix of code1 + bridge ops; then to code2.
	executed := map[exp.AbsOp]bool{}
	for _, o := range code1.Ops[:stop] {
		executed[o] = true
	}
	for _, o := range toAbstract.Bridge {
		executed[o] = true
	}
	toCode2, err := exp.BuildBridgeFromSet(abstract, executed, code2)
	if err != nil {
		t.Fatal(err)
	}
	tr := &exp.BridgeTrace{}
	tr.Exec(code1.Ops[:stop])
	tr.Exec(toAbstract.Bridge)
	tr.Exec(toCode2.Bridge)
	tr.Exec(code2.Ops[toCode2.JoinIdx:])
	if err := tr.ExactlyOnce(abstract); err != nil {
		t.Errorf("composed bridge violates exactly-once: %v", err)
	}
}

func opsString(ops []exp.AbsOp) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = string(o)
	}
	return strings.Join(parts, " ")
}

func TestMoveReversibility(t *testing.T) {
	abstract, _, code2, _, edits2 := exp.Figure3()
	back, err := exp.Unoptimize(code2, "recovered", edits2)
	if err != nil {
		t.Fatal(err)
	}
	if opsString(back.Ops) != opsString(abstract.Ops) {
		t.Errorf("reverse edits: got %v, want %v", back.Ops, abstract.Ops)
	}
}

func TestBridgeAtEveryStop(t *testing.T) {
	// Every visible point of code1 and code2 must bridge to the other with
	// the exactly-once property.
	abstract, code1, code2, _, _ := exp.Figure3()
	for _, pair := range [][2]*exp.OptCode{{code1, code2}, {code2, code1}, {code1, abstract}, {abstract, code2}} {
		from, to := pair[0], pair[1]
		for stop := 0; stop <= len(from.Ops); stop++ {
			plan, err := exp.BuildBridge(abstract, from, stop, to)
			if err != nil {
				t.Fatalf("%s@%d -> %s: %v", from.Name, stop, to.Name, err)
			}
			tr := exp.RunWithMigration(from, stop, plan)
			if err := tr.ExactlyOnce(abstract); err != nil {
				t.Errorf("%s@%d -> %s: %v", from.Name, stop, to.Name, err)
			}
		}
	}
}

func TestBridgeIdentityWhenCodesMatch(t *testing.T) {
	abstract, code1, _, _, _ := exp.Figure3()
	for stop := 0; stop <= len(code1.Ops); stop++ {
		plan, err := exp.BuildBridge(abstract, code1, stop, code1)
		if err != nil {
			t.Fatal(err)
		}
		// Same code: no bridge ops needed, join where we stopped.
		if len(plan.Bridge) != 0 || plan.JoinIdx != stop {
			t.Errorf("stop %d: bridge=%v join=%d", stop, plan.Bridge, plan.JoinIdx)
		}
	}
}

// randomCode builds a random optimized instance, returning it with its
// edits.
func randomCode(rng *rand.Rand, original *exp.OptCode, name string) *exp.OptCode {
	n := len(original.Ops)
	var edits []exp.Motion
	for i := 0; i < rng.Intn(8); i++ {
		edits = append(edits, exp.Motion{From: rng.Intn(n), To: rng.Intn(n)})
	}
	c, err := exp.Optimize(original, name, edits)
	if err != nil {
		panic(err)
	}
	return c
}

func TestPropertyExactlyOnceUnderRandomMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	original := &exp.OptCode{Name: "orig", Ops: []exp.AbsOp{
		"a", "b", "c", "d", "e", "f", "g", "h",
	}}
	for trial := 0; trial < 500; trial++ {
		from := randomCode(rng, original, "from")
		to := randomCode(rng, original, "to")
		stop := rng.Intn(len(from.Ops) + 1)
		plan, err := exp.BuildBridge(original, from, stop, to)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr := exp.RunWithMigration(from, stop, plan)
		if err := tr.ExactlyOnce(original); err != nil {
			t.Fatalf("trial %d (%s@%d -> %s): %v\nbridge: %v",
				trial, from, stop, to, err, plan.Bridge)
		}
	}
}

func TestPropertyDoubleMigrationMidBridge(t *testing.T) {
	// A thread migrated again while still executing bridging code (§2.4:
	// "The thread state may, of course, be moved once more before it has
	// finished executing the bridging code").
	rng := rand.New(rand.NewSource(7))
	original := &exp.OptCode{Name: "orig", Ops: []exp.AbsOp{"a", "b", "c", "d", "e", "f"}}
	for trial := 0; trial < 300; trial++ {
		c1 := randomCode(rng, original, "c1")
		c2 := randomCode(rng, original, "c2")
		c3 := randomCode(rng, original, "c3")
		stop1 := rng.Intn(len(c1.Ops) + 1)
		plan12, err := exp.BuildBridge(original, c1, stop1, c2)
		if err != nil {
			t.Fatal(err)
		}
		// Interrupt the first bridge partway.
		cut := rng.Intn(len(plan12.Bridge) + 1)
		executed := map[exp.AbsOp]bool{}
		tr := &exp.BridgeTrace{}
		tr.Exec(c1.Ops[:stop1])
		tr.Exec(plan12.Bridge[:cut])
		for _, o := range tr.Log {
			executed[o] = true
		}
		plan13, err := exp.BuildBridgeFromSet(original, executed, c3)
		if err != nil {
			t.Fatal(err)
		}
		tr.Exec(plan13.Bridge)
		tr.Exec(c3.Ops[plan13.JoinIdx:])
		if err := tr.ExactlyOnce(original); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestOptimizeRejectsBadEdits(t *testing.T) {
	original := &exp.OptCode{Name: "o", Ops: []exp.AbsOp{"a", "b"}}
	if _, err := exp.Optimize(original, "x", []exp.Motion{{From: 5, To: 0}}); err == nil {
		t.Error("out-of-range edit accepted")
	}
	dup := &exp.OptCode{Name: "dup", Ops: []exp.AbsOp{"a", "a"}}
	if _, err := exp.Optimize(dup, "y", nil); err == nil {
		t.Error("duplicate ops accepted")
	}
}

func TestBuildRejectsForeignExecutedSet(t *testing.T) {
	original := &exp.OptCode{Name: "o", Ops: []exp.AbsOp{"a", "b"}}
	if _, err := exp.BuildBridgeFromSet(original, map[exp.AbsOp]bool{"zz": true}, original); err == nil {
		t.Error("foreign executed op accepted")
	}
}
