// The traced run: one extra simulation per workload, driven one
// Sim.Step() at a time from here so every step is a span recorded from
// outside the system. End-to-end numbers never come from this run.

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
)

// Step classes: a step during which some node's instruction counter
// advanced is a scheduler pass (slice scheduling + arch dispatch + trap
// handling); any other step is protocol work (frame delivery, timers).
const (
	classExec  = "kernel.exec"
	classProto = "kernel.proto"
)

// stepSpan is one Sim.Step() call. Its parent is the run span and it
// shares the workload's id; start is relative to the run span's start.
// The clock is read once per step — a step ends where the next begins — so
// the few nanoseconds spent classing and recording a step count towards the
// next one, and tracing costs one clock read per simulation event.
type stepSpan struct {
	start time.Duration
	dur   time.Duration
	exec  bool
}

// traced is the stepped run's record.
type traced struct {
	wall  time.Duration // the run span: NewSystem + Start + every Step
	steps []stepSpan
	obs   observed
	sys   *core.System
}

// tracedRun repeats the timed run by calling Step exactly ref.events times,
// then checks the simulation has quiesced where the timed run did.
func tracedRun(w *workload, prog *codegen.Program, ref observed) (*traced, error) {
	tr := &traced{steps: make([]stepSpan, 0, ref.events)}
	runtime.GC()
	t0 := time.Now()
	sys, err := core.NewSystem(prog, core.Figure1Network(), w.opts)
	if err != nil {
		return nil, err
	}
	tr.sys = sys
	cl := sys.Cluster
	cl.Start(w.opts.Placement)
	var instrs uint64
	begin := time.Since(t0)
	for i := uint64(0); i < ref.events && cl.Sim.Step(); i++ {
		end := time.Since(t0)
		var now uint64
		for _, n := range cl.Nodes {
			now += n.Instrs
		}
		tr.steps = append(tr.steps, stepSpan{start: begin, dur: end - begin, exec: now != instrs})
		instrs, begin = now, end
	}
	// A zero event budget succeeds only if nothing strong is left to run.
	err = cl.Run(0)
	tr.wall = time.Since(t0)
	tr.obs = observe(sys)
	if err != nil {
		return tr, fmt.Errorf("stepped run did not quiesce after the timed run's %d events: %w", ref.events, err)
	}
	if len(cl.Faults) > 0 {
		return tr, fmt.Errorf("runtime fault on node %d: %s", cl.Faults[0].Node, cl.Faults[0].Msg)
	}
	return tr, nil
}

// classStats aggregates one step class: one duration per step.
type classStats struct {
	total  time.Duration
	sorted []int64 // durations in ns, ascending
}

func (tr *traced) byClass() (exec, proto, all classStats) {
	all.sorted = make([]int64, 0, len(tr.steps))
	for _, s := range tr.steps {
		c := &proto
		if s.exec {
			c = &exec
		}
		c.total += s.dur
		c.sorted = append(c.sorted, int64(s.dur))
		all.sorted = append(all.sorted, int64(s.dur))
	}
	for _, c := range []*classStats{&exec, &proto, &all} {
		slices.Sort(c.sorted)
	}
	all.total = exec.total + proto.total
	return exec, proto, all
}

// traceSink collects spans for -trace-out across workloads and writes them
// as Chrome trace-event JSON when the benchmark ends. Set-up spans are all
// kept; of the step spans, the slowestKept slowest per class.
type traceSink struct {
	Events []chromeEvent `json:"traceEvents"`
	Unit   string        `json:"displayTimeUnit"`
}

const slowestKept = 1000

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// add records one workload's spans. pid is the workload's id: every span of
// one workload shares it, and each names the span that caused it.
func (ts *traceSink) add(pid int, w *workload, st *setup, tr *traced) {
	args := func(parent string) map[string]any {
		return map[string]any{"workload": w.name, "parent": parent}
	}
	ts.Events = append(ts.Events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": w.name}})
	var at time.Duration
	ts.Events = append(ts.Events, chromeEvent{Name: "setup", Ph: "X", Ts: 0, Dur: micros(st.total), Pid: pid, Tid: 1, Args: args("")})
	for i, name := range setupStages {
		ts.Events = append(ts.Events, chromeEvent{Name: name, Ph: "X", Ts: micros(at), Dur: micros(st.stage[i]), Pid: pid, Tid: 1, Args: args("setup")})
		at += st.stage[i]
	}
	// The run span starts where set-up ended on this timeline.
	base := st.total
	ts.Events = append(ts.Events, chromeEvent{Name: "run", Ph: "X", Ts: micros(base), Dur: micros(tr.wall), Pid: pid, Tid: 2, Args: args("")})
	for _, exec := range []bool{true, false} {
		var sel []stepSpan
		for _, s := range tr.steps {
			if s.exec == exec {
				sel = append(sel, s)
			}
		}
		sort.Slice(sel, func(i, j int) bool { return sel[i].dur > sel[j].dur })
		if len(sel) > slowestKept {
			sel = sel[:slowestKept]
		}
		name, tid := classProto, 4
		if exec {
			name, tid = classExec, 3
		}
		for _, s := range sel {
			ts.Events = append(ts.Events, chromeEvent{Name: name, Ph: "X", Ts: micros(base + s.start), Dur: micros(s.dur), Pid: pid, Tid: tid, Args: args("run")})
		}
	}
}

func (ts *traceSink) write(path string) error {
	ts.Unit = "ms"
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(ts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
