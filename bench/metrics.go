// The metric catalogue (names, units, direction, regression bounds) and the
// order statistics every report uses. BENCHMARK.json at the repo root lists
// the same names; bench_test.go holds the two equal.

package main

import "sort"

// metricDef describes one metric. bound is the share of the parent's median
// by which an end-to-end metric may get worse; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a user of the system sees, per workload. The three
// simulated metrics (sim_ms, frames_per_op, wire_bytes_per_op) repeat
// exactly at a fixed seed — the benchmark aborts if they do not — and their
// bound only has to cover the spread between seeds.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_bytes_per_op", "B/op", "lower", 0.02},
	{"mallocs_per_op", "1/op", "lower", 0.02},
	{"sim_ms", "sim_ms", "lower", 0.01},
	{"frames_per_op", "frames/op", "lower", 0.01},
	{"wire_bytes_per_op", "B/op", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// exactAtSeed names the end-to-end metrics the deterministic simulator
// repeats bit for bit at one seed; -compare holds them to a bound of zero
// when both files were made at the same seed.
var exactAtSeed = map[string]bool{"sim_ms": true, "frames_per_op": true, "wire_bytes_per_op": true}

// perLayer lists the single-layer metrics of the traced run, grouped by
// module. README.md says how each is taken.
var perLayer = []metricDef{
	// Set-up spans, one per public call.
	{name: "lang.parse_ms", unit: "ms", better: "lower"},
	{name: "lang.check_ms", unit: "ms", better: "lower"},
	{name: "lang.src_kb", unit: "KB", better: "lower"},
	{name: "ir.build_ms", unit: "ms", better: "lower"},
	{name: "ir.funcs", unit: "count", better: "lower"},
	{name: "codegen.compile_ms", unit: "ms", better: "lower"},
	{name: "codegen.code_kb", unit: "KB", better: "lower"},
	{name: "codegen.bus_stops", unit: "count", better: "lower"},
	{name: "pta.analyze_ms", unit: "ms", better: "lower"},
	{name: "vet.check_ms", unit: "ms", better: "lower"},
	{name: "vet.diags", unit: "count", better: "lower"},
	{name: "kernel.load_ms", unit: "ms", better: "lower"},
	{name: "kernel.loaded_funcs", unit: "count", better: "lower"},
	// Step-driven run.
	{name: "netsim.events", unit: "count", better: "lower"},
	{name: "netsim.events_per_op", unit: "1/op", better: "lower"},
	{name: "netsim.step_ns_p50", unit: "ns", better: "lower"},
	{name: "netsim.step_ns_p99", unit: "ns", better: "lower"},
	{name: "netsim.frames", unit: "count", better: "lower"},
	{name: "netsim.wire_bytes", unit: "B", better: "lower"},
	{name: "netsim.medium_busy_share", unit: "share", better: "lower"},
	{name: "kernel.exec_events", unit: "count", better: "lower"},
	{name: "kernel.exec_ms", unit: "ms", better: "lower"},
	{name: "kernel.exec_share", unit: "share", better: "lower"},
	{name: "kernel.instrs_per_slice", unit: "1/slice", better: "higher"},
	{name: "kernel.proto_events", unit: "count", better: "lower"},
	{name: "kernel.proto_ms", unit: "ms", better: "lower"},
	{name: "kernel.proto_share", unit: "share", better: "lower"},
	{name: "kernel.proto_ns_p50", unit: "ns", better: "lower"},
	{name: "kernel.proto_ns_p99", unit: "ns", better: "lower"},
	{name: "arch.instrs", unit: "count", better: "lower"},
	{name: "arch.cycles", unit: "count", better: "lower"},
	{name: "arch.host_ns_per_instr", unit: "ns", better: "lower"},
	// Counters the system already exports, harvested after the run.
	{name: "kernel.remote_invokes", unit: "count", better: "lower"},
	{name: "kernel.migrations", unit: "count", better: "lower"},
	{name: "kernel.move_commits", unit: "count", better: "higher"},
	{name: "kernel.move_aborts", unit: "count", better: "lower"},
	{name: "kernel.retransmits", unit: "count", better: "lower"},
	{name: "kernel.runq_depth_mean", unit: "count", better: "lower"},
	{name: "kernel.gc_cycles", unit: "count", better: "lower"},
	{name: "wire.msgs", unit: "count", better: "lower"},
	{name: "wire.msg_bytes", unit: "B", better: "lower"},
	{name: "wire.conv_calls", unit: "count", better: "lower"},
	{name: "wire.conv_values", unit: "count", better: "lower"},
	{name: "dir.decrees", unit: "count", better: "lower"},
	{name: "dir.decree_rounds", unit: "count", better: "lower"},
	{name: "dir.lookups", unit: "count", better: "lower"},
	{name: "dir.lease_hits", unit: "count", better: "higher"},
	{name: "dir.degraded", unit: "count", better: "lower"},
	{name: "dir.decree_bytes", unit: "B", better: "lower"},
	{name: "dir.frames_per_move", unit: "frames/op", better: "lower"},
	{name: "chaos.injected", unit: "count", better: "lower"},
	{name: "chaos.link_drops", unit: "count", better: "lower"},
	{name: "chaos.crashes", unit: "count", better: "lower"},
	{name: "obs.events", unit: "count", better: "lower"},
	{name: "obs.dropped", unit: "count", better: "lower"},
	{name: "obs.spans", unit: "count", better: "lower"},
	// Calibrations on each layer's public functions, and the share of the
	// run they account for.
	{name: "arch.fused_ns_per_instr", unit: "ns", better: "lower"},
	{name: "arch.est_share", unit: "share", better: "lower"},
	{name: "wire.move_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "wire.invoke_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "wire.linkframe_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "wire.roundtrip_allocs", unit: "count", better: "lower"},
	{name: "wire.est_share", unit: "share", better: "lower"},
	{name: "netsim.noop_event_ns", unit: "ns", better: "lower"},
	{name: "netsim.est_share", unit: "share", better: "lower"},
	{name: "obs.eventlog_ms", unit: "ms", better: "lower"},
	{name: "obs.chrome_ms", unit: "ms", better: "lower"},
	{name: "kernel.resid_share", unit: "share", better: "lower"},
	// Simulated-time decomposition of a move.
	{name: "sim.move_total_ms_mean", unit: "sim_ms", better: "lower"},
	{name: "sim.move_conv_out_ms_mean", unit: "sim_ms", better: "lower"},
	{name: "sim.move_wire_ms_mean", unit: "sim_ms", better: "lower"},
	{name: "sim.move_respec_ms_mean", unit: "sim_ms", better: "lower"},
	{name: "sim.cpu_busy_share", unit: "share", better: "higher"},
	// Host and harness.
	{name: "host.gc_cycles", unit: "count", better: "lower"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "host.heap_sys_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method), which
// is what the driver computes spreads with. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-quantile (0..1) of an ascending-sorted slice by
// nearest rank.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}
