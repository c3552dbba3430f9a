// One workload's measurement: set-ups, a discarded warm-up rep, timed reps
// with tracing off, and — separately — the traced run.

package main

import (
	"fmt"
	"runtime"
	"time"
)

// config is what the flags choose.
type config struct {
	seed    uint64
	quick   bool
	reps    int     // least number of timed reps
	seconds float64 // keep adding reps until this much has been measured
}

// setup_s is the median of at least setupReps fresh set-ups, and of as many
// more as fit in setupSeconds: the small programs set up in milliseconds,
// mostly spent obtaining node memory from the Go heap, and only a median
// over a hundred or so of those is steady from run to run.
const (
	setupReps    = 9
	setupSeconds = 1.5
)

// traceRefReps is how many untraced reps the traced run is compared with.
const traceRefReps = 3

// sample is one metric's per-rep values with their order statistics.
type sample struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newSample(unit string, xs []float64) sample {
	q1, med, q3 := quartiles(xs)
	return sample{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// result is one workload's report.
type result struct {
	Workload  string             `json:"workload"`
	OpName    string             `json:"op"`
	Ops       int                `json:"ops_per_run"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]sample  `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Errors lists what failed ops died of (a fault, a wrong line).
	Errors []string `json:"errors,omitempty"`
}

// nondeterminism is the error for two runs of one program that disagree;
// the benchmark's numbers mean nothing then, and it exits non-zero.
func nondeterminism(where, what string) error {
	return fmt.Errorf("simulator is not deterministic: %s: %s", where, what)
}

// runner carries one workload through its measurements.
type runner struct {
	w   *workload
	res *result
	ref *observed // first successful run; all later runs must equal it
}

// rep runs one timed rep, scores it and holds it to the reference.
func (r *runner) rep(st *setup, where string) (*rep, error) {
	p := timedRep(r.w, st.prog)
	att, failed := r.w.score(p.obs, p.err)
	r.res.Attempted += att
	r.res.Failed += failed
	if p.err != nil {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf("%s: %v", where, p.err))
	} else if failed > 0 {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf("%s: %d of %d ops lack their check line", where, failed, att))
	}
	if p.err == nil {
		if r.ref == nil {
			r.ref = &p.obs
		} else if d := r.ref.diff(p.obs); d != "" {
			return p, nondeterminism(where, d)
		}
	}
	return p, nil
}

// endToEndRun measures the end-to-end metrics: the fresh set-ups, one
// warm-up rep (scored like any other, its timings discarded), then timed
// reps until both cfg.reps and cfg.seconds are met.
func endToEndRun(w *workload, cfg config) (*result, error) {
	r := &runner{w: w, res: &result{Workload: w.name, OpName: w.opName}}
	var st *setup
	var setupS []float64
	budget := setupSeconds
	if cfg.quick {
		budget = 0
	}
	for start := time.Now(); len(setupS) < setupReps || time.Since(start).Seconds() < budget; {
		runtime.GC() // as before each rep: the last system's memory is free again
		s, err := setUp(w)
		if err != nil {
			// Nothing can run: every op of the reps that would have run fails.
			r.res.Attempted, r.res.Failed = 1, 1
			r.res.Errors = append(r.res.Errors, "set-up: "+err.Error())
			return r.res, nil
		}
		st = s
		setupS = append(setupS, s.total.Seconds())
	}
	if _, err := r.rep(st, "warm-up"); err != nil {
		return nil, err
	}

	samples := map[string][]float64{"setup_s": setupS}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	start := time.Now()
	for n := 0; n < cfg.reps || time.Since(start).Seconds() < cfg.seconds; n++ {
		p, err := r.rep(st, fmt.Sprintf("rep %d", n+1))
		if err != nil {
			return nil, err
		}
		ops := float64(w.opCount(p.obs))
		if ops == 0 {
			ops = 1
		}
		add("wall_s", p.wall)
		add("ops_per_s", ops/p.wall)
		add("cpu_s", p.cpu)
		add("alloc_bytes_per_op", float64(p.allocBytes)/ops)
		add("mallocs_per_op", float64(p.mallocs)/ops)
	}
	if r.ref != nil {
		ops := float64(w.opCount(*r.ref))
		r.res.Ops = int(ops)
		// Deterministic: every rep read the same, so one value stands for all.
		add("sim_ms", r.ref.simMS)
		add("frames_per_op", float64(r.ref.frames)/ops)
		add("wire_bytes_per_op", float64(r.ref.wireBytes)/ops)
	}
	r.res.EndToEnd = map[string]sample{}
	for _, d := range endToEnd {
		if xs, ok := samples[d.name]; ok {
			r.res.EndToEnd[d.name] = newSample(d.unit, xs)
		}
	}
	return r.res, nil
}

// perLayerRun measures the per-layer metrics: one set-up (its stages are
// the set-up spans), a warm-up and traceRefReps untraced reference reps,
// the stepped traced run, and the calibrations. The run's spans go to sink
// (when there is one) under the workload's id; nothing else of the run is
// kept.
func perLayerRun(w *workload, cal *calibration, sink *traceSink, id int) (*result, error) {
	r := &runner{w: w, res: &result{Workload: w.name, OpName: w.opName}}
	st, err := setUp(w)
	if err != nil {
		r.res.Attempted, r.res.Failed = 1, 1
		r.res.Errors = append(r.res.Errors, "set-up: "+err.Error())
		return r.res, nil
	}
	if _, err := r.rep(st, "warm-up"); err != nil {
		return nil, err
	}
	var last *rep
	var walls []float64
	for n := 0; n < traceRefReps; n++ {
		p, err := r.rep(st, fmt.Sprintf("reference rep %d", n+1))
		if err != nil {
			return nil, err
		}
		last = p
		walls = append(walls, p.wall)
	}
	if r.ref == nil {
		return r.res, nil // every reference rep failed; nothing to step through
	}
	r.res.Ops = w.opCount(*r.ref)
	tr, err := tracedRun(w, st.prog, *r.ref)
	att, failed := 0, 0
	if tr != nil {
		att, failed = w.score(tr.obs, err)
	}
	r.res.Attempted += att
	r.res.Failed += failed
	if err != nil {
		r.res.Errors = append(r.res.Errors, "traced run: "+err.Error())
		return r.res, nil
	}
	if d := r.ref.diff(tr.obs); d != "" {
		return nil, nondeterminism("traced run vs timed run", d)
	}
	if sink != nil {
		sink.add(id, w, st, tr)
	}
	if r.res.PerLayer, err = layerMetrics(w, st, last, median(walls), tr, cal); err != nil {
		return nil, err
	}
	return r.res, nil
}
