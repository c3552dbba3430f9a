// The empar scaling study: the same N-node ring workload run under the
// sequential reference engine and the parallel per-node-goroutine engine.
// The two runs must agree byte for byte on every observable (that is the
// parallel engine's contract); the experiment's point is the wall-clock
// ratio, which on a multi-core host should grow with N because the ring
// keeps every node computing concurrently.
//
// Wall-clock numbers are host-dependent and are therefore never compared
// against committed baselines; BENCH_par.json records the host's CPU count
// next to the measurements so a single-core CI box reporting speedup ~1x
// is readable as expected, not as a regression.

package exp

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// ParResult is one ring size's sequential-vs-parallel measurement, and one
// row of BENCH_par.json.
type ParResult struct {
	Nodes     int     `json:"nodes"`
	SimMS     float64 `json:"sim_ms"` // simulated time (identical under both engines)
	Instrs    uint64  `json:"instrs"` // instructions executed across all nodes
	SeqWallMS float64 `json:"seq_wall_ms"`
	ParWallMS float64 `json:"par_wall_ms"`
	Speedup   float64 `json:"speedup"`
}

// RingProgram generates the N-walker ring tour: walker i starts on node i,
// and each hop does an identical local compute chunk before moving to the
// next node around the ring. At any instant every node hosts one walker,
// so the simulated work is spread evenly and the parallel engine can run
// all N compute slices concurrently.
func RingProgram(nodes, hops, chunk int) string {
	var b strings.Builder
	b.WriteString(`object Walker
  operation run(start: Int, hops: Int, chunk: Int) -> (r: Int)
    var acc: Int <- 0
    var h: Int <- 0
    while h < hops do
      var i: Int <- 0
      while i < chunk do
        acc <- acc + (i % 7) * (i % 5) + 1
        i <- i + 1
      end
      move self to node((start + h + 1) % nodes())
      h <- h + 1
    end
    r <- acc
  end
end Walker
`)
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&b, `
object Driver%d
  process
    var w: Walker <- new Walker
    print("walker %d total: ", w.run(%d, %d, %d))
  end process
end Driver%d
`, i, i, i, hops, chunk, i)
	}
	return b.String()
}

// ringRun executes the ring workload once and returns its observables and
// wall-clock cost.
func ringRun(src string, nodes int, parallel bool) (lines []string, log []byte, simMS float64, instrs uint64, wall time.Duration, err error) {
	machines := make([]netsim.MachineModel, nodes)
	for i := range machines {
		machines[i] = netsim.SPARCstationSLC
	}
	opts := core.Options{
		Parallel:  parallel,
		Placement: func(_ string, rootIdx int) int { return rootIdx % nodes },
	}
	start := time.Now()
	sys, err := core.RunSource(src, machines, opts)
	wall = time.Since(start)
	if err != nil {
		return nil, nil, 0, 0, wall, err
	}
	for _, n := range sys.Cluster.Nodes {
		instrs += n.Instrs
	}
	return sys.Lines(), obs.EventLog(sys.Recorder()), sys.ElapsedMS(), instrs, wall, nil
}

// ParScaling measures the ring workload at each size, checking on the way
// that the parallel engine reproduces the sequential run exactly.
func ParScaling(sizes []int, hops, chunk int) ([]ParResult, error) {
	var out []ParResult
	for _, n := range sizes {
		src := RingProgram(n, hops, chunk)
		seqLines, seqLog, seqSim, seqInstrs, seqWall, err := ringRun(src, n, false)
		if err != nil {
			return nil, fmt.Errorf("ring %d sequential: %w", n, err)
		}
		parLines, parLog, parSim, parInstrs, parWall, err := ringRun(src, n, true)
		if err != nil {
			return nil, fmt.Errorf("ring %d parallel: %w", n, err)
		}
		if strings.Join(seqLines, "\n") != strings.Join(parLines, "\n") {
			return nil, fmt.Errorf("ring %d: parallel output differs from sequential:\nseq %v\npar %v",
				n, seqLines, parLines)
		}
		if !bytes.Equal(seqLog, parLog) {
			return nil, fmt.Errorf("ring %d: parallel event log differs from sequential", n)
		}
		if seqSim != parSim || seqInstrs != parInstrs {
			return nil, fmt.Errorf("ring %d: simulated work differs: %v ms/%d instrs vs %v ms/%d instrs",
				n, seqSim, seqInstrs, parSim, parInstrs)
		}
		out = append(out, ParResult{
			Nodes:     n,
			SimMS:     seqSim,
			Instrs:    seqInstrs,
			SeqWallMS: float64(seqWall.Microseconds()) / 1000,
			ParWallMS: float64(parWall.Microseconds()) / 1000,
			Speedup:   float64(seqWall) / float64(parWall),
		})
	}
	return out, nil
}

// FormatParScaling renders the human-readable report.
func FormatParScaling(rs []ParResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "empar scaling: N-walker ring, identical per-node compute (host: %d CPUs)\n",
		runtime.NumCPU())
	fmt.Fprintf(&b, "%6s %10s %12s %12s %12s %8s\n",
		"nodes", "sim ms", "instrs", "seq wall ms", "par wall ms", "speedup")
	for _, r := range rs {
		fmt.Fprintf(&b, "%6d %10.1f %12d %12.1f %12.1f %7.2fx\n",
			r.Nodes, r.SimMS, r.Instrs, r.SeqWallMS, r.ParWallMS, r.Speedup)
	}
	b.WriteString("parallel output, event logs, simulated time and instruction counts\n" +
		"verified identical to the sequential engine at every size\n")
	return b.String()
}
