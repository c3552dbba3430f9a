// -compare: judge one result file against another, one row per (workload,
// end-to-end metric), with the bounds BENCHMARK.json fixes.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specPath is BENCHMARK.json as seen from the benchmark's directory, which
// is where `go -C bench run .` and `go test` run it.
const specPath = "../BENCHMARK.json"

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is a sample's interquartile range as a share of its median.
func (s sample) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// verdict judges b against a for a metric where `better` says which way is
// good. worse is how much worse b's median is, as a share of a's.
//
//	unresolved  either side's spread is wider than the bound, and b's runs
//	            do not all read better than all of a's
//	worse       b's median is worse than a's by more than the bound
//	better      ... better by more than the bound (or every run reads better)
//	same        within the bound
func verdict(a, b sample, better string, bound float64) (worse float64, v string) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse = sign * ratio(b.Median-a.Median, a.Median)
	if a.spread() > bound || b.spread() > bound {
		allBetter := len(a.Samples) > 0 && len(b.Samples) > 0
		for _, x := range a.Samples {
			for _, y := range b.Samples {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return worse, "better"
		}
		return worse, "unresolved"
	}
	switch {
	case worse > bound:
		return worse, "worse"
	case worse < -bound:
		return worse, "better"
	}
	return worse, "same"
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var a, b resultFile
	var spec benchmarkSpec
	for _, in := range []struct {
		path string
		v    any
	}{{pathA, &a}, {pathB, &b}, {specPath, &spec}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if a.Quick != b.Quick {
		fmt.Fprintln(stderr, "bench: one file is a -quick run and the other is not")
		return 2
	}
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(stdout, "a: %s  seed %d  %+v\nb: %s  seed %d  %+v\n", pathA, a.Seed, a.Host, pathB, b.Seed, b.Host)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3] n\tb median [q1, q3] n\tworse by\tbound\tverdict")
	anyWorse := false
	for _, ra := range a.Workloads {
		var rb *result
		for _, r := range b.Workloads {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed ops\t%d of %d\t%d of %d\t\t0\tworse\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			anyWorse = true
		}
		for _, d := range spec.EndToEnd {
			sa, oka := ra.EndToEnd[d.Name]
			sb, okb := rb.EndToEnd[d.Name]
			if !oka || !okb {
				continue
			}
			bound := d.Bound
			if sameSeed && exactAtSeed[d.Name] {
				bound = 0 // the simulator is deterministic: any drift is a change
			}
			worse, v := verdict(sa, sb, d.Better, bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g] %d\t%.6g [%.6g, %.6g] %d\t%+.2f%%\t%g%%\t%s\n",
				ra.Workload, d.Name, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N,
				100*worse, 100*bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if anyWorse {
		return 1
	}
	return 0
}
