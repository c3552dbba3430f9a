package kernel_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/kernel"
	"repro/internal/netsim"
)

// regimeCounts is what one Table 1 run under one conversion regime leaves
// behind: per node, the conv_calls and conv_values gauges by kind (int,
// real, ref) and the network-format layer's ProtoConvCalls; for the run,
// the payload bytes on the wire and the printed elapsed time of 25 round
// trips.
type regimeCounts struct {
	calls, values [2][3]int64
	proto         [2]uint64
	payload       uint64
	elapsed       string
}

// TestConvRegimes pins the four conversion regimes exactly on the Table 1
// workload, on a homogeneous (SPARC↔SPARC) and a heterogeneous (SPARC↔VAX)
// pair. BENCH_conv.json covers only the homogeneous pair and only calls,
// bytes and time in total; these literals pin each regime's per-kind
// counts on both pairs. The original system refuses the heterogeneous pair.
func TestConvRegimes(t *testing.T) {
	prog, err := core.Compile(exp.Mobile13Source)
	if err != nil {
		t.Fatal(err)
	}
	const origVAX = "kernel: the original system supports only homogeneous networks (sparc vs vax)"
	cases := []struct {
		mode kernel.ConvMode
		peer netsim.MachineModel
		want regimeCounts
	}{
		{kernel.ModeEnhanced, netsim.SPARCstationSLC, regimeCounts{
			calls:   [2][3]int64{{1152, 312, 0}, {1144, 312, 0}},
			values:  [2][3]int64{{576, 104, 0}, {572, 104, 0}},
			proto:   [2]uint64{6024, 5928},
			payload: 8022, elapsed: "1619"}},
		{kernel.ModeOriginal, netsim.SPARCstationSLC, regimeCounts{
			values:  [2][3]int64{{576, 104, 0}, {572, 104, 0}},
			payload: 8022, elapsed: "973"}},
		{kernel.ModeEnhancedBatched, netsim.SPARCstationSLC, regimeCounts{
			calls:   [2][3]int64{{576, 104, 0}, {572, 104, 0}},
			values:  [2][3]int64{{576, 104, 0}, {572, 104, 0}},
			proto:   [2]uint64{3012, 2964},
			payload: 8022, elapsed: "1291"}},
		{kernel.ModeEnhancedFastPath, netsim.SPARCstationSLC, regimeCounts{
			values:  [2][3]int64{{576, 104, 0}, {572, 104, 0}},
			payload: 8022, elapsed: "973"}},
		{kernel.ModeEnhanced, netsim.VAXstation2000, regimeCounts{
			calls:   [2][3]int64{{1152, 312, 0}, {1144, 312, 0}},
			values:  [2][3]int64{{576, 104, 0}, {572, 104, 0}},
			proto:   [2]uint64{6024, 5928},
			payload: 8022, elapsed: "2458"}},
		{kernel.ModeEnhancedBatched, netsim.VAXstation2000, regimeCounts{
			calls:   [2][3]int64{{576, 104, 0}, {572, 104, 0}},
			values:  [2][3]int64{{576, 104, 0}, {572, 104, 0}},
			proto:   [2]uint64{3012, 2964},
			payload: 8022, elapsed: "1957"}},
		// Each hop's result reaches Main's fragment as a Return node 0 sends
		// itself: a same-ISA peer, so the fast path ships those two raw.
		{kernel.ModeEnhancedFastPath, netsim.VAXstation2000, regimeCounts{
			calls:   [2][3]int64{{1144, 312, 0}, {1144, 312, 0}},
			values:  [2][3]int64{{576, 104, 0}, {572, 104, 0}},
			proto:   [2]uint64{5928, 5928},
			payload: 8022, elapsed: "2457"}},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String()+"/"+tc.peer.Family, func(t *testing.T) {
			cl, err := kernel.NewCluster(prog, []netsim.MachineModel{netsim.SPARCstationSLC, tc.peer},
				kernel.Config{Mode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			cl.Start(nil)
			if err := cl.Run(80_000_000); err != nil {
				t.Fatal(err)
			}
			lines := cl.PrintedLines()
			if len(lines) != 2 || lines[1] != "1624" {
				t.Fatalf("workload corrupted: %v", lines)
			}
			got := regimeCounts{payload: cl.Net.PayloadLen, elapsed: lines[0]}
			gauges := map[string]int64{}
			for _, g := range cl.MetricsSnapshot().Gauges {
				gauges[g.Name+"{"+g.Labels+"}"] = g.Value
			}
			for node, n := range cl.Nodes {
				for k, kind := range []string{"int", "real", "ref"} {
					lbl := fmt.Sprintf("{node=%d,arch=%s,kind=%s}", node, n.Spec.ID, kind)
					got.calls[node][k] = gauges["conv_calls"+lbl]
					got.values[node][k] = gauges["conv_values"+lbl]
				}
				got.proto[node] = n.ProtoConvCalls
			}
			if got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
	t.Run("original/vax", func(t *testing.T) {
		_, err := kernel.NewCluster(prog, []netsim.MachineModel{netsim.SPARCstationSLC, netsim.VAXstation2000},
			kernel.Config{Mode: kernel.ModeOriginal})
		if err == nil || err.Error() != origVAX {
			t.Errorf("err = %v, want %q", err, origVAX)
		}
	})
}

// A ConvMode outside the table is refused when the cluster is built, not
// at its first transfer.
func TestUnknownConvModeRejected(t *testing.T) {
	prog, err := core.Compile(exp.Mobile13Source)
	if err != nil {
		t.Fatal(err)
	}
	const want = "kernel: unknown conversion mode mode(4)"
	_, err = kernel.NewCluster(prog, []netsim.MachineModel{netsim.SPARCstationSLC},
		kernel.Config{Mode: kernel.ConvMode(4)})
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
