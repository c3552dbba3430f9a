// Command bench is emperf, the repo's end-to-end benchmark: five seeded
// whole-simulation workloads on the Figure 1 network, measured from outside
// the system. See README.md for the metric catalogue and how to read it.
//
//	go -C bench run .                                   every workload, both passes
//	go -C bench run . -workload dir_tour -trace 0       end-to-end metrics only
//	go -C bench run . -workload dir_tour -trace 1       per-layer metrics only
//	go -C bench run . -out a.json                       also write a result file
//	go -C bench run . -compare a.json b.json            judge b against a
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The benchmark is one
// process and starts no goroutines; GOMAXPROCS is left at the host default.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// host describes where a result file was made.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      host      `json:"host"`
	Seed      uint64    `json:"seed"`
	Quick     bool      `json:"quick"`
	Workloads []*result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "run only this workload and end with the JSON result line (default: all five)")
	seed := fs.Uint64("seed", 1, "seed for every workload generator")
	seconds := fs.Float64("seconds", 10, "measure each workload for at least this long")
	reps := fs.Int("reps", 5, "least number of timed reps per workload")
	trace := fs.Int("trace", -1, "0: end-to-end metrics (tracing off); 1: per-layer metrics (traced run); default both")
	quick := fs.Bool("quick", false, "1/50-scale workloads (smoke test; numbers are not comparable)")
	out := fs.String("out", "", "write the results to this JSON file")
	traceOut := fs.String("trace-out", "", "write the traced runs' spans to this file as Chrome trace JSON")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 || *reps < 1 {
		fmt.Fprintln(stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-reps n] [-trace 0|1] [-quick] [-out file] [-trace-out file]")
		return 2
	}
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}
	cfg := config{seed: *seed, quick: *quick, reps: *reps, seconds: *seconds}
	file := resultFile{Host: hostInfo(), Seed: *seed, Quick: *quick}
	var sink *traceSink // nil unless -trace-out asks for the spans
	if *traceOut != "" {
		sink = &traceSink{}
	}
	var cal *calibration
	for i, name := range names {
		w, err := generate(name, cfg.seed, cfg.quick)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		res := &result{Workload: w.name, OpName: w.opName}
		if *trace != 1 {
			e, err := endToEndRun(w, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", name+":", err)
				return 1
			}
			res = e
		}
		if *trace != 0 {
			if cal == nil {
				if cal, err = calibrate(); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
			}
			l, err := perLayerRun(w, cal, sink, i+1)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", name+":", err)
				return 1
			}
			l.EndToEnd = res.EndToEnd
			l.Attempted += res.Attempted
			l.Failed += res.Failed
			l.Errors = append(res.Errors, l.Errors...)
			res = l
		}
		printReport(stdout, res)
		file.Workloads = append(file.Workloads, res)
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if sink != nil {
		if err := sink.write(*traceOut); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *workloadFlag != "" {
		if err := printResultLine(stdout, file.Workloads[0]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport prints every metric of one workload by name, with its unit.
func printReport(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s  (op = one %s; %d ops per run)  attempted %d  failed %d\n",
		r.Workload, r.OpName, r.Ops, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ! %s\n", e)
	}
	for _, d := range endToEnd {
		if s, ok := r.EndToEnd[d.name]; ok {
			fmt.Fprintf(w, "   %-28s %16.6g %-10s q1 %.6g  q3 %.6g  n=%d  (%s is better, bound %g)\n",
				d.name, s.Median, d.unit, s.Q1, s.Q3, s.N, d.better, d.bound)
		}
	}
	for _, d := range perLayer {
		if v, ok := r.PerLayer[d.name]; ok {
			fmt.Fprintf(w, "   %-28s %16.6g %s\n", d.name, v, d.unit)
		}
	}
}

// printResultLine prints the one-line JSON result the benchmark contract
// asks for: medians of the end-to-end metrics and/or the per-layer values.
func printResultLine(w io.Writer, r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range endToEnd {
		if s, ok := r.EndToEnd[d.name]; ok {
			metrics[d.name] = value{s.Median, d.unit}
		}
	}
	for _, d := range perLayer {
		if v, ok := r.PerLayer[d.name]; ok {
			metrics[d.name] = value{v, d.unit}
		}
	}
	if r.Attempted < 1 {
		return errors.New("no op was attempted")
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
