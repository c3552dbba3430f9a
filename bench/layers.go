// Per-layer metrics: the traced run's step spans, the counters the system
// already exports, the calibrations and the set-up spans, folded into the
// names metrics.go lists.

package main

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// decreeKinds are the wire kinds of the directory's decree rounds (single
// slot and batched group); lookups are directory traffic but not decrees.
var decreeKinds = []string{
	"dirprepare", "dirpromise", "diraccept", "diraccepted", "dirlearn",
	"dirgprepare", "dirgpromise", "dirgaccept", "dirgaccepted", "dirglearn",
}

// counters sums a snapshot's counter over its label sets; keep, when given,
// selects the label sets to include.
func counters(snap obs.Snapshot, name string, keep func(labels string) bool) float64 {
	var total uint64
	for _, c := range snap.Counters {
		if c.Name == name && (keep == nil || keep(c.Labels)) {
			total += c.Value
		}
	}
	return float64(total)
}

func gauges(snap obs.Snapshot, name string) float64 {
	var total int64
	for _, g := range snap.Gauges {
		if g.Name == name {
			total += g.Value
		}
	}
	return float64(total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric of one workload. ref is the
// untraced reference rep (median wall refWall over the reference reps).
func layerMetrics(w *workload, st *setup, ref *rep, refWall float64, tr *traced, cal *calibration) (map[string]float64, error) {
	m := map[string]float64{}
	ops := float64(w.opCount(tr.obs))
	cl := tr.sys.Cluster

	// Set-up spans.
	for i, name := range setupStages {
		m[name+"_ms"] = ms(st.stage[i])
	}
	m["lang.src_kb"] = float64(len(w.src)) / 1024
	for _, o := range st.irp.Objects {
		m["ir.funcs"] += float64(len(o.Funcs))
	}
	for _, oc := range st.prog.Objects {
		for _, ac := range oc.PerArch {
			if ac == nil {
				continue
			}
			for _, fc := range ac.Funcs {
				m["codegen.code_kb"] += float64(len(fc.Code)) / 1024
				m["codegen.bus_stops"] += float64(fc.Stops.Len())
			}
		}
	}
	m["vet.diags"] = float64(st.diags)
	m["kernel.loaded_funcs"] = float64(cl.LoadedFuncs())

	// Step-driven run.
	exec, proto, all := tr.byClass()
	nc := cl.Net.Counters()
	simMicros := float64(cl.Sim.Now())
	m["netsim.events"] = float64(len(all.sorted))
	m["netsim.events_per_op"] = ratio(float64(len(all.sorted)), ops)
	m["netsim.step_ns_p50"] = percentile(all.sorted, 0.50)
	m["netsim.step_ns_p99"] = percentile(all.sorted, 0.99)
	m["netsim.frames"] = float64(nc.Frames)
	m["netsim.wire_bytes"] = float64(nc.Bytes)
	m["netsim.medium_busy_share"] = ratio(float64(nc.BusyMicros), simMicros)
	m["kernel.exec_events"] = float64(len(exec.sorted))
	m["kernel.exec_ms"] = ms(exec.total)
	m["kernel.exec_share"] = ratio(float64(exec.total), float64(tr.wall))
	m["kernel.instrs_per_slice"] = ratio(float64(tr.obs.instrs), float64(len(exec.sorted)))
	m["kernel.proto_events"] = float64(len(proto.sorted))
	m["kernel.proto_ms"] = ms(proto.total)
	m["kernel.proto_share"] = ratio(float64(proto.total), float64(tr.wall))
	m["kernel.proto_ns_p50"] = percentile(proto.sorted, 0.50)
	m["kernel.proto_ns_p99"] = percentile(proto.sorted, 0.99)
	m["arch.instrs"] = float64(tr.obs.instrs)
	busyMicros := 0.0
	for _, n := range cl.Nodes {
		m["arch.cycles"] += float64(n.CPU.Cycles)
		busyMicros += float64(n.CPU.Cycles) / n.CPU.MHz
	}
	m["arch.host_ns_per_instr"] = ratio(float64(exec.total), float64(tr.obs.instrs))

	// Exported counters.
	snap := tr.sys.MetricsSnapshot()
	m["kernel.remote_invokes"] = counters(snap, "remote_invokes", nil)
	m["kernel.migrations"] = gauges(snap, "migrations")
	m["kernel.move_commits"] = counters(snap, "move_commits", nil)
	m["kernel.move_aborts"] = counters(snap, "move_aborts", nil)
	m["kernel.retransmits"] = counters(snap, "retransmits", nil)
	var depthSum, depthN uint64
	for _, h := range snap.Histograms {
		if h.Name == "runq_depth" {
			depthSum += h.Sum
			depthN += h.Count
		}
	}
	m["kernel.runq_depth_mean"] = ratio(float64(depthSum), float64(depthN))
	m["kernel.gc_cycles"] = counters(snap, "gc_cycles", nil)
	m["wire.msgs"] = counters(snap, "msgs", nil)
	m["wire.msg_bytes"] = counters(snap, "msg_bytes", nil)
	m["wire.conv_calls"] = float64(cl.ConvStats().Calls)
	m["wire.conv_values"] = gauges(snap, "conv_values")
	isDecree := func(labels string) bool {
		for _, k := range decreeKinds {
			if labels == "msg="+k {
				return true
			}
		}
		return false
	}
	isDir := func(labels string) bool { return strings.HasPrefix(labels, "msg=dir") }
	m["dir.decrees"] = counters(snap, "dir_decrees", nil)
	m["dir.decree_rounds"] = counters(snap, "dir_decree_rounds", nil)
	m["dir.lookups"] = counters(snap, "dir_lookups", nil)
	m["dir.lease_hits"] = counters(snap, "dir_lease_hits", nil)
	m["dir.degraded"] = counters(snap, "dir_degraded", nil)
	m["dir.decree_bytes"] = counters(snap, "msg_bytes", isDecree)
	m["dir.frames_per_move"] = ratio(counters(snap, "msgs", isDir), m["kernel.migrations"])
	m["chaos.injected"] = counters(snap, "chaos_injected", nil)
	m["chaos.link_drops"] = counters(snap, "link_drops", nil)
	m["chaos.crashes"] = counters(snap, "node_crashes", nil)
	rec := tr.sys.Recorder()
	m["obs.dropped"] = float64(rec.Dropped())
	m["obs.events"] = float64(len(rec.Events())) + m["obs.dropped"]
	spans := rec.Spans()
	m["obs.spans"] = float64(len(spans))

	// Calibrations and the share of the untraced run they account for.
	refNS := refWall * 1e9
	linkFrames := 0.0
	if w.opts.Chaos != nil {
		linkFrames = float64(nc.Frames) // every frame rides a CRC'd LinkFrame
	}
	moves := m["kernel.migrations"]
	m["arch.fused_ns_per_instr"] = cal.fusedNSPerInstr
	m["arch.est_share"] = ratio(cal.fusedNSPerInstr*float64(tr.obs.instrs), refNS)
	m["wire.move_roundtrip_ns"] = cal.moveRoundtripNS
	m["wire.invoke_roundtrip_ns"] = cal.invokeRoundtripNS
	m["wire.linkframe_roundtrip_ns"] = cal.linkRoundtripNS
	m["wire.roundtrip_allocs"] = cal.roundtripAllocs
	m["wire.est_share"] = ratio(moves*cal.moveRoundtripNS+(m["wire.msgs"]-moves)*cal.invokeRoundtripNS+
		linkFrames*cal.linkRoundtripNS, refNS)
	m["netsim.noop_event_ns"] = cal.noopEventNS
	m["netsim.est_share"] = ratio(cal.noopEventNS*float64(len(all.sorted)), refNS)
	m["kernel.resid_share"] = 1 - m["arch.est_share"] - m["wire.est_share"] - m["netsim.est_share"]
	var err error
	if m["obs.eventlog_ms"], m["obs.chrome_ms"], err = exporterMS(rec); err != nil {
		return nil, err
	}

	// Simulated-time decomposition of a move, from the migration spans.
	var done, total, convOut, wireT, respec float64
	for _, s := range spans {
		if !s.Done {
			continue
		}
		done++
		total += float64(s.TotalMicros())
		convOut += float64(s.ConvOutMicros())
		wireT += float64(s.WireMicros())
		respec += float64(s.RespecMicros())
	}
	m["sim.move_total_ms_mean"] = ratio(total, done) / 1000
	m["sim.move_conv_out_ms_mean"] = ratio(convOut, done) / 1000
	m["sim.move_wire_ms_mean"] = ratio(wireT, done) / 1000
	m["sim.move_respec_ms_mean"] = ratio(respec, done) / 1000
	m["sim.cpu_busy_share"] = ratio(busyMicros, simMicros*float64(len(cl.Nodes)))

	// Host and harness, over the untraced reference rep.
	m["host.gc_cycles"] = float64(ref.gcCycles)
	m["host.gc_pause_ms"] = float64(ref.gcPauseNS) / 1e6
	m["host.heap_sys_mb"] = float64(ref.heapSys) / (1 << 20)
	m["trace.overhead_ratio"] = ratio(tr.wall.Seconds(), refWall)
	return m, nil
}
