// The directory overhead study (embench dir): one fixed migration-heavy
// tour run under directory off/on (3 replicas), clean and under a seeded
// fault plan that crashes and restarts a pure replica host mid-run (a
// minority of every shard's replica set, so decrees keep completing), plus
// a lease arm (read-cached lookups on the same tour) and a batched
// group-decree pair on the zipf workgen workload (grouped vs one decree
// per cohort member). The table backs the claims DESIGN.md §15 makes: the
// replicated directory's decree traffic is a modest constant overhead per
// move, under the crash plan it keeps objects locatable in one shard
// query, leases collapse repeat lookups of stable objects, and batching a
// cohort's decrees cuts the decree wire bytes per migrated object.

package exp

import (
	"fmt"
	"strings"

	"repro/internal/auto/workgen"
	"repro/internal/chaos"
	"repro/internal/core"
)

// DirResult is one configuration's measurement, and one row of
// BENCH_dir.json.
type DirResult struct {
	Config        string  `json:"config"`         // directory / fault-plan arm
	SimMS         float64 `json:"sim_ms"`         // simulated completion time
	Frames        uint64  `json:"frames"`         // total link frames on the wire
	WireBytes     uint64  `json:"wire_bytes"`     // total bytes on the wire (payload + framing)
	RemoteInvokes uint64  `json:"remote_invokes"` // cross-node invocations
	ProxyForwards uint64  `json:"proxy_forwards"` // messages forwarded along a proxy chain
	ChaseHops     uint64  `json:"chase_hops"`     // locate chase hops walked (satellite TTL metric)
	Decrees       uint64  `json:"decrees"`        // directory decrees chosen (slots, incl. group members)
	Lookups       uint64  `json:"lookups"`        // directory shard queries issued
	Degraded      uint64  `json:"degraded"`       // decrees/lookups that fell back to the chase
	LeaseHits     uint64  `json:"lease_hits"`     // lookups served from a cached read lease
	LeaseExpired  uint64  `json:"lease_expired"`  // leases discarded at use time past their deadline
	GroupDecrees  uint64  `json:"group_decrees"`  // batched group rounds run
	GroupSlots    uint64  `json:"group_slots"`    // member slots committed by those rounds
	DecreeBytes   uint64  `json:"decree_bytes"`   // wire bytes of all decree protocol messages
	PrepareRounds uint64  `json:"prepare_rounds"` // decree rounds that ran prepare/promise (retries only)
	DirMsgs       uint64  `json:"dir_msgs"`       // directory protocol messages on the wire, lookups included
	Moves         uint64  `json:"moves"`          // object and thread moves (the migrations gauge)
}

// dirDecreeKinds are the wire kinds whose msg_bytes add up to DecreeBytes.
var dirDecreeKinds = []string{"dirprepare", "dirpromise", "diraccept", "diraccepted", "dirlearn"}

// dirWorkload is the study's fixed tour: three couriers bouncing between
// nodes 0-2 with an invocation after every move, then fifteen repeat
// locates of the couriers parked on remote nodes — the stable-object tail
// the lease arm collapses. Node 3 hosts no objects or threads — it exists
// purely as a shard replica, so crashing it stresses the directory's
// availability without perturbing the program.
const dirWorkload = `
object Courier
  var hops: Int <- 0
  operation bump() -> (r: Int)
    hops <- hops + 1
    r <- hops
  end
end Courier

object Main
  process
    var a: Courier <- new Courier
    var b: Courier <- new Courier
    var c: Courier <- new Courier
    var lap: Int <- 0
    while lap < 3 do
      move a to node(1)
      print(a.bump())
      move b to node(2)
      print(b.bump())
      move c to node(1)
      print(c.bump())
      move a to node(2)
      print(a.bump())
      move b to node(1)
      print(b.bump())
      move a to node(0)
      move b to node(0)
      move c to node(0)
      print(c.bump())
      lap <- lap + 1
    end
    move a to node(1)
    move b to node(2)
    move c to node(1)
    var rep: Int <- 0
    while rep < 5 do
      print(locate(a))
      print(locate(b))
      print(locate(c))
      rep <- rep + 1
    end
  end process
end Main
`

// dirPlan is the fault arm: light frame noise plus a crash/restart of node
// 3 — the pure replica host — in the middle of the tour.
func dirPlan() *chaos.Plan {
	return &chaos.Plan{
		Seed: 7, Drop: 0.02, Dup: 0.01,
		Crashes: []chaos.Crash{{Node: 3, At: 400_000, RestartAt: 520_000}},
	}
}

// dirArm runs one configuration of the study.
func dirArm(label, src string, opts core.Options) (DirResult, error) {
	sys, err := core.RunSource(src, core.Figure1Network(), opts)
	if err != nil {
		return DirResult{}, fmt.Errorf("%s: %w", label, err)
	}
	r := DirResult{Config: label, SimMS: sys.ElapsedMS()}
	decreeKind := map[string]bool{}
	for _, k := range dirDecreeKinds {
		decreeKind["msg="+k] = true
	}
	snap := sys.MetricsSnapshot()
	for _, c := range snap.Counters {
		switch c.Name {
		case "remote_invokes":
			r.RemoteInvokes += c.Value
		case "proxy_forwards":
			r.ProxyForwards += c.Value
		case "locate_chase_hops":
			r.ChaseHops += c.Value
		case "dir_decrees":
			r.Decrees += c.Value
		case "dir_lookups":
			r.Lookups += c.Value
		case "dir_degraded":
			r.Degraded += c.Value
		case "dir_lease_hits":
			r.LeaseHits += c.Value
		case "dir_lease_expired":
			r.LeaseExpired += c.Value
		case "dir_group_decrees":
			r.GroupDecrees += c.Value
		case "dir_group_slots":
			r.GroupSlots += c.Value
		case "dir_prepare_rounds":
			r.PrepareRounds += c.Value
		case "msg_bytes":
			if decreeKind[c.Labels] {
				r.DecreeBytes += c.Value
			}
		case "msgs":
			if strings.HasPrefix(c.Labels, "msg=dir") {
				r.DirMsgs += c.Value
			}
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == "migrations" {
			r.Moves += uint64(g.Value)
		}
	}
	net := sys.Cluster.Net
	r.Frames = uint64(net.Frames)
	r.WireBytes = uint64(net.Bytes)
	return r, nil
}

// DirStudy runs every arm and returns the rows plus the workload
// description line. The first five arms share the fixed courier tour; the
// last two run the zipf workgen workload under greedy-colocate, where
// cohort moves give the batched group decree something to batch.
func DirStudy() ([]DirResult, string, error) {
	desc := "3 couriers x 3 laps over nodes 0-2, bump after every move, then 15 repeat locates; node 3 is a pure shard replica (crashed 400-520ms in the fault arms); group arms run the auto study's workgen workload under greedy-colocate"
	groupSrc := workgen.Generate(autoWorkload)
	arms := []struct {
		label string
		src   string
		opts  core.Options
	}{
		{"off/clean", dirWorkload, core.Options{}},
		{"dir3/clean", dirWorkload, core.Options{DirReplicas: 3}},
		{"dir3/lease", dirWorkload, core.Options{DirReplicas: 3, DirLeaseMicros: 2_000_000}},
		{"off/crash", dirWorkload, core.Options{Chaos: dirPlan()}},
		{"dir3/crash", dirWorkload, core.Options{DirReplicas: 3, Chaos: dirPlan()}},
		// Full replication: every shard shares one replica set, so every
		// cohort is eligible to batch (with r < n, cohort members whose
		// shards replicate on different node sets must decree alone).
		{"dir4/group", groupSrc, core.Options{DirReplicas: 4, AutoPolicy: "greedy-colocate"}},
		{"dir4/nogroup", groupSrc, core.Options{DirReplicas: 4, AutoPolicy: "greedy-colocate", DirNoGroupDecrees: true}},
	}
	var out []DirResult
	for _, a := range arms {
		r, err := dirArm(a.label, a.src, a.opts)
		if err != nil {
			return nil, "", err
		}
		out = append(out, r)
	}
	return out, desc, nil
}

// FormatDir renders the study as the human-readable overhead table.
func FormatDir(rows []DirResult, desc string) string {
	var b strings.Builder
	b.WriteString("Replicated directory overhead on a migration-heavy tour\n")
	b.WriteString(desc + "\n")
	fmt.Fprintf(&b, "%-12s %9s %7s %9s %7s %6s %6s %8s %7s %5s %5s %5s %7s %5s %7s %6s\n",
		"config", "sim time", "frames", "bytes", "remote", "fwd", "chase", "decrees", "lookups", "degr", "lease", "gdecr", "decrB", "prep", "dirF/mv", "x off")
	off := map[string]float64{} // fault-plan suffix -> the directory-off arm's sim time
	for _, r := range rows {
		if plan, ok := strings.CutPrefix(r.Config, "off/"); ok {
			off[plan] = r.SimMS
		}
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %7.1fms %7d %9d %7d %6d %6d %8d %7d %5d %5d %5d %7d %5d",
			r.Config, r.SimMS, r.Frames, r.WireBytes, r.RemoteInvokes,
			r.ProxyForwards, r.ChaseHops, r.Decrees, r.Lookups, r.Degraded,
			r.LeaseHits, r.GroupDecrees, r.DecreeBytes, r.PrepareRounds)
		if r.Moves > 0 {
			fmt.Fprintf(&b, " %7.2f", float64(r.DirMsgs)/float64(r.Moves))
		} else {
			fmt.Fprintf(&b, " %7s", "-")
		}
		_, plan, _ := strings.Cut(r.Config, "/")
		if base := off[plan]; base > 0 {
			fmt.Fprintf(&b, " %5.2fx\n", r.SimMS/base)
		} else {
			fmt.Fprintf(&b, " %6s\n", "-")
		}
	}
	b.WriteString("fwd = proxy-chain forwards; chase = locate hops walked;\n")
	b.WriteString("decrees/lookups/degr = directory consensus, shard queries, fallbacks;\n")
	b.WriteString("lease = lookups served from a cached read lease; gdecr = batched\n")
	b.WriteString("group rounds; decrB = wire bytes of all decree protocol messages;\n")
	b.WriteString("prep = decree rounds that ran prepare/promise (retries; 0 when no\n")
	b.WriteString("round timed out); dirF/mv = directory messages on the wire per move;\n")
	b.WriteString("x off = sim time over the directory-off arm under the same fault plan\n")
	b.WriteString("(ROADMAP emdir-lean wants dirF/mv <= 5 and dir3/clean <= 1.5x).\n")
	return b.String()
}
