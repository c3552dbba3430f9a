package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// quickRun runs the benchmark in-process at 1/50 scale and returns its
// result file.
func quickRun(t *testing.T, args ...string) resultFile {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	args = append([]string{"-quick", "-reps", "1", "-seconds", "0", "-out", out}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	var f resultFile
	if err := readJSON(out, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func equalSets(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d names %v, BENCHMARK.json lists %d %v", what, len(got), got, len(want), want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: emitted %q where BENCHMARK.json lists %q", what, got[i], want[i])
		}
	}
}

// TestQuickPass keeps the benchmark compiling and its names honest: every
// workload passes its oracle at 1/50 scale, the simulated metrics repeat
// exactly across two runs, and the emitted workload and metric names are
// the ones BENCHMARK.json lists.
func TestQuickPass(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	var wantWorkloads, wantE2E, wantLayer []string
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range spec.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}

	first := quickRun(t)
	second := quickRun(t, "-trace", "0")

	legal := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var gotWorkloads []string
	for i, r := range first.Workloads {
		gotWorkloads = append(gotWorkloads, r.Workload)
		if r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: %d of %d ops failed: %v", r.Workload, r.Failed, r.Attempted, r.Errors)
		}
		equalSets(t, r.Workload+" end-to-end metrics", sortedNames(r.EndToEnd), wantE2E)
		equalSets(t, r.Workload+" per-layer metrics", sortedNames(r.PerLayer), wantLayer)
		for _, n := range append(sortedNames(r.EndToEnd), sortedNames(r.PerLayer)...) {
			if !legal.MatchString(n) {
				t.Errorf("%s: metric name %q", r.Workload, n)
			}
		}
		again := second.Workloads[i]
		if again.Failed != 0 {
			t.Errorf("%s, second run: %d ops failed: %v", r.Workload, again.Failed, again.Errors)
		}
		for n := range exactAtSeed {
			if a, b := r.EndToEnd[n].Median, again.EndToEnd[n].Median; a != b || a == 0 {
				t.Errorf("%s: %s read %v then %v; the simulator must repeat exactly", r.Workload, n, a, b)
			}
		}
	}
	equalSets(t, "workloads", gotWorkloads, wantWorkloads)

	// The catalogue in metrics.go is what the report prints from; hold its
	// units, directions and bounds to BENCHMARK.json too.
	for i, d := range endToEnd {
		if s := spec.EndToEnd[i]; s != (specMetric{d.name, d.unit, d.better, d.bound}) {
			t.Errorf("end-to-end metric %d: metrics.go has %+v, BENCHMARK.json %+v", i, d, s)
		}
	}
	for i, d := range perLayer {
		if s := spec.PerLayer[i]; s != (specMetric{d.name, d.unit, d.better, 0}) {
			t.Errorf("per-layer metric %d: metrics.go has %+v, BENCHMARK.json %+v", i, d, s)
		}
	}
}

// TestOracleCatchesWrongOutput: a run that prints a wrong or extra line, or
// dies, fails the ops that line vouches for instead of passing or crashing.
func TestOracleCatchesWrongOutput(t *testing.T) {
	w, err := generate("migrate_storm", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]string, len(w.checks))
	for i, c := range w.checks {
		good[i] = c.line
	}
	join := func(lines []string) observed { return observed{output: strings.Join(lines, "\n")} }
	if att, failed := w.score(join(good), nil); att != w.ops || failed != 0 {
		t.Errorf("correct output: attempted %d failed %d, want %d and 0", att, failed, w.ops)
	}
	bad := append([]string(nil), good...)
	bad[3] = "0"
	if _, failed := w.score(join(bad), nil); failed != w.ops {
		t.Errorf("a line no check expects: failed %d, want all %d", failed, w.ops)
	}
	if _, failed := w.score(join(good[:len(good)-1]), nil); failed != w.checks[0].ops {
		t.Errorf("one missing line: failed %d, want %d", failed, w.checks[0].ops)
	}
	if _, failed := w.score(join(good), errors.New("runtime fault")); failed != w.ops {
		t.Errorf("run error: failed %d, want all %d", failed, w.ops)
	}
}

// TestVerdict pins -compare's four verdicts.
func TestVerdict(t *testing.T) {
	tight := func(m float64) sample {
		return newSample("s", []float64{m * 0.999, m, m, m, m * 1.001})
	}
	wide := func(m float64) sample {
		return newSample("s", []float64{m * 0.8, m * 0.9, m, m * 1.1, m * 1.2})
	}
	for _, c := range []struct {
		a, b   sample
		better string
		want   string
	}{
		{tight(1), tight(1.05), "lower", "same"},
		{tight(1), tight(1.2), "lower", "worse"},
		{tight(1), tight(0.8), "lower", "better"},
		{tight(1), tight(0.8), "higher", "worse"},
		{wide(1), wide(1.05), "lower", "unresolved"},
		{wide(1), wide(0.5), "lower", "better"}, // every run reads better
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v -> %v, %s is better) = %s, want %s", c.a.Median, c.b.Median, c.better, got, c.want)
		}
	}
}
