// The adaptive-placement study (embench auto): one zipf-skewed generated
// workload run under four configurations — no policy, load-balance,
// greedy-colocate with batched cohort moves, and greedy-colocate with
// batching disabled (the control arm). The simulation is deterministic, so
// every number here is exactly reproducible; the two claims the table
// backs are (1) greedy-colocate collapses cross-node invocation traffic,
// and (2) batched cohort transfers cost fewer wire bytes per migrated
// object than the same decisions executed as single-object moves.

package exp

import (
	"fmt"
	"strings"

	"repro/internal/auto/workgen"
	"repro/internal/core"
)

// AutoResult is one configuration's measurement, and one row of
// BENCH_auto.json.
type AutoResult struct {
	Config        string  `json:"config"`          // policy / batching arm
	SimMS         float64 `json:"sim_ms"`          // simulated completion time
	RemoteInvokes uint64  `json:"remote_invokes"`  // cross-node invocations over the whole run
	Decisions     uint64  `json:"decisions"`       // placement decisions the policy issued
	MovedObjects  int     `json:"moved_objects"`   // migration spans that completed (incl. program moves)
	MoveFrames    uint64  `json:"move_frames"`     // network frames that carried object/thread moves
	MoveWireBytes uint64  `json:"move_wire_bytes"` // move payload bytes + per-frame framing overhead
	BytesPerMove  float64 `json:"bytes_per_move"`  // MoveWireBytes / MovedObjects
	GroupFrames   uint64  `json:"group_frames"`    // batched cohort transfers among MoveFrames
	GroupObjects  uint64  `json:"group_objects"`   // objects that rode a batched transfer
}

// autoWorkload is the study's fixed workload: skewed, misplaced, chatty,
// open-loop (the seeded warmup spins give load-balance real instruction
// imbalance to shed while the sessions stagger in).
var autoWorkload = workgen.Config{
	Seed: 7, Services: 4, Sessions: 3, Requests: 24, Theta: 1.1, Nodes: 4, Open: true,
}

// autoArm runs one configuration of the study.
func autoArm(src, label, policy string, noBatch bool) (AutoResult, error) {
	sys, err := core.RunSource(src, core.Figure1Network(), core.Options{
		AutoPolicy: policy, AutoNoBatch: noBatch,
	})
	if err != nil {
		return AutoResult{}, fmt.Errorf("%s: %w", label, err)
	}
	r := AutoResult{Config: label, SimMS: sys.ElapsedMS()}

	var groupFrameBytes, groupMemberBytes uint64
	for _, c := range sys.MetricsSnapshot().Counters {
		switch c.Name {
		case "remote_invokes":
			r.RemoteInvokes += c.Value
		case "auto_decisions":
			r.Decisions += c.Value
		case "group_moves":
			r.GroupFrames += c.Value
		case "group_move_objs":
			r.GroupObjects += c.Value
		case "group_move_frame_bytes":
			groupFrameBytes += c.Value
		case "group_move_member_bytes":
			groupMemberBytes += c.Value
		}
	}

	// Wire cost per migrated object, from the migration spans: every span
	// records its serialized payload share; batched members share one frame
	// (and its framing overhead), singles pay a frame each.
	var spanBytes uint64
	for _, sp := range sys.Recorder().Spans() {
		if sp.RecvAt == 0 {
			continue
		}
		r.MovedObjects++
		spanBytes += sp.WireBytes
	}
	singles := uint64(r.MovedObjects) - r.GroupObjects
	r.MoveFrames = singles + r.GroupFrames
	payload := spanBytes - groupMemberBytes + groupFrameBytes
	overhead := uint64(sys.Cluster.Net.OverheadBytes)
	r.MoveWireBytes = payload + overhead*r.MoveFrames
	if r.MovedObjects > 0 {
		r.BytesPerMove = float64(r.MoveWireBytes) / float64(r.MovedObjects)
	}
	return r, nil
}

// AutoStudy runs all four arms on the fixed workload and returns the rows
// plus the workload's description line.
func AutoStudy() ([]AutoResult, string, error) {
	src := workgen.Generate(autoWorkload)
	desc := fmt.Sprintf("workgen seed=%d: %d services, %d sessions x %d requests, zipf theta=%.1f, %d nodes, open-loop",
		autoWorkload.Seed, autoWorkload.Services, autoWorkload.Sessions,
		autoWorkload.Requests, autoWorkload.Theta, autoWorkload.Nodes)
	arms := []struct {
		label, policy string
		noBatch       bool
	}{
		{"off", "", false},
		{"load-balance", "load-balance", false},
		{"greedy-colocate", "greedy-colocate", false},
		{"greedy-colocate/nobatch", "greedy-colocate", true},
	}
	var out []AutoResult
	for _, a := range arms {
		r, err := autoArm(src, a.label, a.policy, a.noBatch)
		if err != nil {
			return nil, "", err
		}
		out = append(out, r)
	}
	return out, desc, nil
}

// FormatAuto renders the study as the human-readable table.
func FormatAuto(rows []AutoResult, desc string) string {
	var b strings.Builder
	b.WriteString("Adaptive placement on a zipf-skewed service workload\n")
	b.WriteString(desc + "\n")
	fmt.Fprintf(&b, "%-24s %9s %8s %6s %6s %7s %9s %8s\n",
		"policy", "sim time", "remote", "decs", "moves", "frames", "movebytes", "B/move")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %7.1fms %8d %6d %6d %7d %9d %8.1f\n",
			r.Config, r.SimMS, r.RemoteInvokes, r.Decisions,
			r.MovedObjects, r.MoveFrames, r.MoveWireBytes, r.BytesPerMove)
	}
	b.WriteString("remote = cross-node invocations; moves = migrated objects/threads;\n")
	b.WriteString("B/move = wire bytes (payload + framing) per migrated object.\n")
	return b.String()
}
