// The faults subcommand: run a program under a chaos plan and reconcile
// what the injector did to the network against what the protocol did to
// recover, per node. The left side of the report is pure cause (frames
// dropped, duplicated, delayed, corrupted, cut by partitions; scheduled
// crashes), the right side pure effect (retransmissions, link-layer
// rejects, suspicion/recovery transitions, move commits and aborts).

package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// faultTally accumulates per-node cause and effect counts.
type faultTally struct {
	injected  map[string]uint64 // by injector kind (frames sent FROM this node)
	linkDrops map[string]uint64 // by reject reason (frames arriving AT this node)
	retrans   uint64
	suspects  uint64
	recovers  uint64
	crashes   uint64
	restarts  uint64
	commits   uint64
	aborts    map[string]uint64 // by abort reason
	dupDrops  uint64
	faultsIn  uint64 // typed faults delivered to threads (node-down)
}

func newFaultTally() *faultTally {
	return &faultTally{
		injected:  map[string]uint64{},
		linkDrops: map[string]uint64{},
		aborts:    map[string]uint64{},
	}
}

// printFaults tallies the run's event log per node and prints the
// reconciliation.
func printFaults(w io.Writer, sys *core.System) {
	tallies := make([]*faultTally, len(sys.Cluster.Nodes))
	for i := range tallies {
		tallies[i] = newFaultTally()
	}
	at := func(node int32) *faultTally {
		if node < 0 || int(node) >= len(tallies) {
			return newFaultTally() // orphan events tally into the void
		}
		return tallies[node]
	}
	for _, e := range sys.Recorder().Events() {
		switch e.Kind {
		case obs.EvFaultInject:
			at(e.Node).injected[e.Str]++
		case obs.EvLinkDrop:
			at(e.Node).linkDrops[e.Str]++
		case obs.EvRetransmit:
			at(e.Node).retrans++
		case obs.EvNodeSuspect:
			at(e.Node).suspects++
		case obs.EvNodeRecover:
			at(e.Node).recovers++
		case obs.EvNodeCrash:
			at(e.Node).crashes++
		case obs.EvNodeRestart:
			at(e.Node).restarts++
		case obs.EvMoveCommit:
			at(e.Node).commits++
		case obs.EvMoveAbort:
			at(e.Node).aborts[e.Str]++
		case obs.EvMoveDupDrop:
			at(e.Node).dupDrops++
		case obs.EvFault:
			at(e.Node).faultsIn++
		}
	}

	fmt.Fprintf(w, "chaos fault/recovery reconciliation (%.1f ms simulated)\n\n", sys.ElapsedMS())
	for i, n := range sys.Cluster.Nodes {
		t := tallies[i]
		fmt.Fprintf(w, "node%d %-18s [%s]\n", n.ID, n.Model.Name, n.Spec.Name)
		fmt.Fprintf(w, "  injected : %s\n", kvLine(t.injected, "none"))
		lost := kvLine(t.linkDrops, "0")
		fmt.Fprintf(w, "  recovered: retransmits=%d link-rejects=%s dup-moves-dropped=%d\n",
			t.retrans, lost, t.dupDrops)
		fmt.Fprintf(w, "  liveness : crashes=%d restarts=%d suspects=%d recovers=%d thread-faults=%d\n",
			t.crashes, t.restarts, t.suspects, t.recovers, t.faultsIn)
		fmt.Fprintf(w, "  moves    : commits=%d aborts=%s\n", t.commits, kvLine(t.aborts, "0"))
	}

	// Cluster-wide reconciliation: every injected fault should correspond
	// to a recovery action somewhere (retransmit, link reject, abort) or
	// be absorbed by redundancy (a dropped duplicate costs nothing).
	total := newFaultTally()
	for _, t := range tallies {
		for k, v := range t.injected {
			total.injected[k] += v
		}
		for k, v := range t.linkDrops {
			total.linkDrops[k] += v
		}
		total.retrans += t.retrans
		total.commits += t.commits
		for k, v := range t.aborts {
			total.aborts[k] += v
		}
		total.dupDrops += t.dupDrops
	}
	fmt.Fprintf(w, "\ntotal injected : %s\n", kvLine(total.injected, "none"))
	fmt.Fprintf(w, "total recovered: retransmits=%d link-rejects=%s move-commits=%d move-aborts=%s dup-moves-dropped=%d\n",
		total.retrans, kvLine(total.linkDrops, "0"), total.commits, kvLine(total.aborts, "0"), total.dupDrops)
}

// kvLine renders a count map as "k1=v1 k2=v2" with sorted keys, or empty.
func kvLine(m map[string]uint64, empty string) string {
	if len(m) == 0 {
		return empty
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}
