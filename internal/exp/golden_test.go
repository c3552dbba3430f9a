package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the .golden files")

// TestStudyReportsGolden pins every field the studies that no BENCH_*.json
// baseline gates return: the bus-stop density and register-home ablations,
// the intra-node invariant on each Figure 1 machine, the static frame
// shrink over the example corpus and the Figure 3/4 rendering. The
// simulation is deterministic, so any difference is a behavior change;
// -update rewrites the golden file.
func TestStudyReportsGolden(t *testing.T) {
	var b bytes.Buffer
	bs, err := BusStopDensity()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "BusStopDensity %+v\n", *bs)
	homes, err := RegisterHomes()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range homes {
		fmt.Fprintf(&b, "RegisterHomes %+v\n", h)
	}
	for _, m := range core.Figure1Network() {
		r, err := IntraNode(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		fmt.Fprintf(&b, "IntraNode %+v\n", *r)
	}
	rows, err := Shrink(filepath.Join("..", "..", "examples", "programs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "Shrink %+v\n", r)
	}
	fig, err := Figure34()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "Figure34\n%s", fig)

	path := filepath.Join("testdata", "studies.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("%s drifted (run with -update to accept):\ngot:\n%s\nwant:\n%s", path, b.Bytes(), want)
	}
}
