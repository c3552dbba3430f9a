package exp

import (
	"strings"
	"testing"
)

func TestCompareBenchJSONIdentical(t *testing.T) {
	doc := []byte(`{"benchmark":"t","rows":[{"pair":"a","ms":10.5,"calls":26}]}`)
	if err := CompareBenchJSON(doc, doc, 0.20); err != nil {
		t.Errorf("identical documents flagged: %v", err)
	}
}

func TestCompareBenchJSONWithinTolerance(t *testing.T) {
	base := []byte(`{"ms":100,"n":26}`)
	fresh := []byte(`{"ms":115,"n":26}`)
	if err := CompareBenchJSON(fresh, base, 0.20); err != nil {
		t.Errorf("15%% drift flagged at 20%% tolerance: %v", err)
	}
}

func TestCompareBenchJSONDrift(t *testing.T) {
	base := []byte(`{"rows":[{"pair":"a","ms":100}]}`)
	fresh := []byte(`{"rows":[{"pair":"a","ms":130}]}`)
	err := CompareBenchJSON(fresh, base, 0.20)
	if err == nil {
		t.Fatal("30% drift not flagged at 20% tolerance")
	}
	if !strings.Contains(err.Error(), "$.rows[0].ms") {
		t.Errorf("error does not name the drifted field: %v", err)
	}
}

func TestCompareBenchJSONStructure(t *testing.T) {
	base := []byte(`{"rows":[{"pair":"a","ms":100},{"pair":"b","ms":100}],"unit":"ms"}`)
	for _, tc := range []struct {
		name, fresh, wantIn string
	}{
		{"missing field", `{"rows":[{"pair":"a"},{"pair":"b","ms":100}],"unit":"ms"}`, "missing in fresh"},
		{"extra field", `{"rows":[{"pair":"a","ms":100,"x":1},{"pair":"b","ms":100}],"unit":"ms"}`, "not in baseline"},
		{"row count", `{"rows":[{"pair":"a","ms":100}],"unit":"ms"}`, "entries"},
		{"string change", `{"rows":[{"pair":"Z","ms":100},{"pair":"b","ms":100}],"unit":"ms"}`, "$.rows[0].pair"},
		{"zero baseline", `{"rows":[{"pair":"a","ms":100},{"pair":"b","ms":100}],"unit":"ms","z":1}`, "not in baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CompareBenchJSON([]byte(tc.fresh), base, 0.20)
			if err == nil {
				t.Fatal("structural difference not flagged")
			}
			if !strings.Contains(err.Error(), tc.wantIn) {
				t.Errorf("error %q does not mention %q", err, tc.wantIn)
			}
		})
	}
}

// "host*" fields carry host-dependent measurements (wall-clock MIPS,
// CPU counts): any amount of drift, absence, or novelty is fine, while
// the deterministic fields beside them stay gated.
func TestCompareBenchJSONSkipsHostFields(t *testing.T) {
	base := []byte(`{"instrs":1000,"host_mips_fused":12.5}`)
	for _, fresh := range []string{
		`{"instrs":1000,"host_mips_fused":99.9}`,                // wild drift
		`{"instrs":1000}`,                                       // absent in fresh
		`{"instrs":1000,"host_mips_fused":12.5,"host_cpus":64}`, // novel host field
	} {
		if err := CompareBenchJSON([]byte(fresh), base, 0.20); err != nil {
			t.Errorf("host-prefixed field flagged: %v (fresh %s)", err, fresh)
		}
	}
	// The gate still bites on the simulated field next door.
	if err := CompareBenchJSON([]byte(`{"instrs":2000,"host_mips_fused":12.5}`), base, 0.20); err == nil {
		t.Error("instrs drift not flagged despite host-field skip")
	}
}

func TestCompareBenchJSONZeroBaseline(t *testing.T) {
	base := []byte(`{"ms":0}`)
	if err := CompareBenchJSON([]byte(`{"ms":0}`), base, 0.20); err != nil {
		t.Errorf("0 vs 0 flagged: %v", err)
	}
	if err := CompareBenchJSON([]byte(`{"ms":0.1}`), base, 0.20); err == nil {
		t.Error("nonzero against zero baseline not flagged")
	}
}

func TestNumericDrift(t *testing.T) {
	for _, tc := range []struct {
		name        string
		fresh, base float64
		tol         float64
		drift       bool
	}{
		{"zero/zero", 0, 0, 0.20, false},
		{"nonzero/zero", 0.1, 0, 0.20, true},
		{"negative nonzero/zero", -0.1, 0, 0.20, true},
		{"zero/nonzero beyond tol", 0, 100, 0.20, true},
		{"equal", 42, 42, 0.20, false},
		{"within tolerance", 115, 100, 0.20, false},
		{"at boundary", 120, 100, 0.20, false},
		{"beyond tolerance", 130, 100, 0.20, true},
		{"negative baseline within", -110, -100, 0.20, false},
		{"negative baseline beyond", -130, -100, 0.20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := numericDrift(tc.fresh, tc.base, tc.tol)
			if got := msg != ""; got != tc.drift {
				t.Errorf("numericDrift(%v, %v, %v) = %q, want drift=%v",
					tc.fresh, tc.base, tc.tol, msg, tc.drift)
			}
			// The rendered message must never leak the raw Inf/NaN ratio a
			// naive zero-baseline division would produce.
			for _, bad := range []string{"Inf", "NaN"} {
				if strings.Contains(msg, bad) {
					t.Errorf("drift message contains %s: %q", bad, msg)
				}
			}
		})
	}
}

func TestCompareBenchJSONZeroBaselineMessage(t *testing.T) {
	err := CompareBenchJSON([]byte(`{"ms":5}`), []byte(`{"ms":0}`), 0.20)
	if err == nil {
		t.Fatal("nonzero against zero baseline not flagged")
	}
	if !strings.Contains(err.Error(), "zero baseline") {
		t.Errorf("error does not explain the zero-baseline rule: %v", err)
	}
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(err.Error(), bad) {
			t.Errorf("error leaks %s: %v", bad, err)
		}
	}
}
