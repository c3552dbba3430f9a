package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/kernel"
)

func sampleCells() []Cell {
	pairs := Table1Pairs()
	return []Cell{
		{Pair: pairs[0], OriginalMS: 38.9, EnhancedMS: 64.8, OverheadPct: 66.4,
			ConvCalls: 572, BytesPerMoves: 154},
		{Pair: pairs[1], OriginalMS: -1, EnhancedMS: 121.7, OverheadPct: -1,
			ConvCalls: 572, BytesPerMoves: 154},
	}
}

func TestBenchJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteBenchJSON(dir, BenchDoc{Benchmark: "table1", Rows: sampleCells()})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_table1.json"); path != want {
		t.Errorf("path = %q, want %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmark string
		Rows      []map[string]any
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_table1.json is not valid JSON: %v", err)
	}
	if doc.Benchmark != "table1" || len(doc.Rows) != 2 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	r := doc.Rows[0]
	if r["pair"] != "SPARC<->SPARC" || r["src_machine"] != "SPARCstation SLC" ||
		r["enhanced_ms"] != 64.8 || r["conv_calls_per_two_moves"] != 572.0 {
		t.Errorf("row 0 did not round-trip: %+v", r)
	}
	if doc.Rows[1]["original_ms"] != -1.0 {
		t.Errorf("inapplicable original cell should stay -1, got %v", doc.Rows[1]["original_ms"])
	}
	// Unset header fields are omitted, not written empty.
	if bytes.Contains(data, []byte(`"unit"`)) || bytes.Contains(data, []byte(`"host_cpus"`)) {
		t.Errorf("empty header fields written:\n%s", data)
	}
}

func TestBenchJSONDeterministic(t *testing.T) {
	doc := BenchDoc{Benchmark: "table1", Rows: sampleCells()}
	p1, err := WriteBenchJSON(t.TempDir(), doc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := WriteBenchJSON(t.TempDir(), doc)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Error("identical documents encoded to different bytes")
	}
}

// A fig2 row carries exactly the file's five keys: the levels' wall-clock
// times vary run to run and are not measured at all.
func TestBenchFig2ExcludesWallClock(t *testing.T) {
	rows := []Fig2Row{{Level: "source", Output: "7", Work: 99, Hardware: "machine independent"}}
	data, err := json.Marshal(BenchDoc{Benchmark: "fig2", Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Rows []map[string]any }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc.Rows[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, " "); got != "level output sim_ms thread_state work_units" {
		t.Errorf("fig2 row keys = %s", got)
	}
	if doc.Rows[0]["work_units"] != 99.0 {
		t.Errorf("work_units = %v, want 99", doc.Rows[0]["work_units"])
	}
}

func TestBenchConvDoc(t *testing.T) {
	rs := []ConvResult{{Mode: kernel.ModeEnhanced, MovesMS: 64.8, ConvCalls: 14872,
		WireBytes: 8022, CallsPerByte: 1.85}}
	data, err := json.Marshal(BenchDoc{Benchmark: "conv", Rows: rs})
	if err != nil {
		t.Fatal(err)
	}
	want := `"rows":[{"mode":"enhanced","two_move_ms":64.8,"conv_calls":14872,"wire_bytes":8022,"calls_per_byte":1.85}]`
	if !strings.Contains(string(data), want) {
		t.Errorf("conv document %s lacks %s", data, want)
	}
}

func TestCompareBenchJSONIdentical(t *testing.T) {
	doc := []byte(`{"benchmark":"t","rows":[{"pair":"a","ms":10.5,"calls":26}]}`)
	if err := CompareBenchJSON(doc, doc); err != nil {
		t.Errorf("identical documents flagged: %v", err)
	}
}

func TestCompareBenchJSONDrift(t *testing.T) {
	base := []byte(`{"rows":[{"pair":"a","ms":100}]}`)
	fresh := []byte(`{"rows":[{"pair":"a","ms":130}]}`)
	err := CompareBenchJSON(fresh, base)
	if err == nil {
		t.Fatal("drift not flagged")
	}
	if !strings.Contains(err.Error(), "$.rows[0].ms: 130, baseline 100") {
		t.Errorf("error does not name the drifted field: %v", err)
	}
}

func TestCompareBenchJSONStructure(t *testing.T) {
	base := []byte(`{"rows":[{"pair":"a","ms":100},{"pair":"b","ms":100}],"unit":"ms"}`)
	for _, tc := range []struct {
		name, fresh, wantIn string
	}{
		{"missing field", `{"rows":[{"pair":"a"},{"pair":"b","ms":100}],"unit":"ms"}`, "$.rows[0].ms: <nil>, baseline 100"},
		{"extra field", `{"rows":[{"pair":"a","ms":100,"x":1},{"pair":"b","ms":100}],"unit":"ms"}`, "$.rows[0].x: 1, baseline <nil>"},
		{"row count", `{"rows":[{"pair":"a","ms":100}],"unit":"ms"}`, "$.rows: 1 entries, baseline 2"},
		{"string change", `{"rows":[{"pair":"Z","ms":100},{"pair":"b","ms":100}],"unit":"ms"}`, "$.rows[0].pair: Z, baseline a"},
		{"zero baseline", `{"rows":[{"pair":"a","ms":100},{"pair":"b","ms":100}],"unit":"ms","z":1}`, "$.z: 1, baseline <nil>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CompareBenchJSON([]byte(tc.fresh), base)
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
		if err := CompareBenchJSON([]byte(fresh), base); err != nil {
			t.Errorf("host-prefixed field flagged: %v (fresh %s)", err, fresh)
		}
	}
	// The gate still bites on the simulated field next door.
	if err := CompareBenchJSON([]byte(`{"instrs":2000,"host_mips_fused":12.5}`), base); err == nil {
		t.Error("instrs drift not flagged despite host-field skip")
	}
}

func TestCompareBenchJSONZeroBaseline(t *testing.T) {
	base := []byte(`{"ms":0}`)
	if err := CompareBenchJSON([]byte(`{"ms":0}`), base); err != nil {
		t.Errorf("0 vs 0 flagged: %v", err)
	}
	if err := CompareBenchJSON([]byte(`{"ms":0.1}`), base); err == nil {
		t.Error("nonzero against zero baseline not flagged")
	}
}

// TestNumericDrift runs the old 20 % gate's numeric cases through the
// exact gate: every unequal pair is drift now, the ones the tolerance
// admitted (within, at boundary, negative within) included.
func TestNumericDrift(t *testing.T) {
	for _, tc := range []struct {
		name        string
		fresh, base float64
		drift       bool
	}{
		{"zero/zero", 0, 0, false},
		{"nonzero/zero", 0.1, 0, true},
		{"negative nonzero/zero", -0.1, 0, true},
		{"zero/nonzero beyond tol", 0, 100, true},
		{"equal", 42, 42, false},
		{"within tolerance", 115, 100, true},
		{"at boundary", 120, 100, true},
		{"beyond tolerance", 130, 100, true},
		{"negative baseline within", -110, -100, true},
		{"negative baseline beyond", -130, -100, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := func(v float64) []byte { return []byte(fmt.Sprintf(`{"ms":%v}`, v)) }
			err := CompareBenchJSON(doc(tc.fresh), doc(tc.base))
			if got := err != nil; got != tc.drift {
				t.Errorf("%v against baseline %v: err = %v, want drift=%v", tc.fresh, tc.base, err, tc.drift)
			}
		})
	}
}

// A difference against a zero baseline is reported like any other: the
// path and both values, never an Inf or NaN ratio.
func TestCompareBenchJSONZeroBaselineMessage(t *testing.T) {
	err := CompareBenchJSON([]byte(`{"ms":5}`), []byte(`{"ms":0}`))
	if err == nil {
		t.Fatal("nonzero against zero baseline not flagged")
	}
	if !strings.Contains(err.Error(), "$.ms: 5, baseline 0") {
		t.Errorf("error does not name the field and both values: %v", err)
	}
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(err.Error(), bad) {
			t.Errorf("error leaks %s: %v", bad, err)
		}
	}
}

// The committed baselines are facts of a deterministic simulation, so the
// gate admits no drift at all: one simulated value off in its last digit
// fails and is named, as does a structural change, while host wall-clock
// fields may differ freely.
func TestBaselineGateIsExact(t *testing.T) {
	committed := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := committed("BENCH_dir.json")
	if err := CompareBenchJSON(dir, dir); err != nil {
		t.Fatalf("BENCH_dir.json differs from itself: %v", err)
	}

	simMS := regexp.MustCompile(`"sim_ms": [0-9.]+`).FindIndex(dir)
	if simMS == nil {
		t.Fatal("BENCH_dir.json has no sim_ms")
	}
	fresh := bytes.Clone(dir)
	if last := &fresh[simMS[1]-1]; *last == '9' {
		*last = '8'
	} else {
		*last++
	}
	err := CompareBenchJSON(fresh, dir)
	if err == nil || !strings.Contains(err.Error(), "$.rows[0].sim_ms") {
		t.Errorf("last-digit change of rows[0].sim_ms: err = %v, want it named", err)
	}

	renamed := bytes.Replace(dir, []byte(`"decrees"`), []byte(`"decree"`), 1)
	if err := CompareBenchJSON(renamed, dir); err == nil || !strings.Contains(err.Error(), "$.rows[0].decree") {
		t.Errorf("renamed key: err = %v, want $.rows[0].decree named", err)
	}

	jit := committed("BENCH_jit.json")
	hostOnly := regexp.MustCompile(`("host_mips_\w+": )[0-9.]+`).ReplaceAll(jit, []byte("${1}1.5"))
	if bytes.Equal(hostOnly, jit) {
		t.Fatal("BENCH_jit.json has no host_mips fields")
	}
	if err := CompareBenchJSON(hostOnly, jit); err != nil {
		t.Errorf("host-only difference flagged: %v", err)
	}
}
