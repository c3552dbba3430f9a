// Calibrations: each layer's public functions timed in isolation on inputs
// of the workloads' shape. Multiplied by a run's counts they give an
// estimate, made from outside, of that layer's share of the run.

package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/wire"
)

// calibration holds the isolated per-operation costs.
type calibration struct {
	fusedNSPerInstr   float64
	moveRoundtripNS   float64
	invokeRoundtripNS float64
	linkRoundtripNS   float64
	roundtripAllocs   float64
	noopEventNS       float64
}

// calRounds is how many times each calibration kernel is timed.
const calRounds = 7

// bestOf times fn (which performs n operations) several times and returns
// the lowest ns per operation: the calibrations want the cost of the code,
// not of whatever else the host was doing.
func bestOf(rounds, n int, fn func()) float64 {
	best := 0.0
	for i := 0; i < rounds; i++ {
		t := time.Now()
		fn()
		ns := float64(time.Since(t)) / float64(n)
		if i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// archCalSrc is compute_ring's inner loop as a program of its own, so the
// emulator is calibrated on what the compiler really emits for it — frame
// slots, stack temporaries, one poll per iteration — on each ISA.
const archCalSrc = `object Cal
  operation spin() -> (r: Int)
    var acc: Int <- 0
    var i: Int <- 0
    while i < 20000 do
      acc <- acc + (i % 7) * (i % 5) + 1
      i <- i + 1
    end
    r <- acc
  end
end Cal
`

// calibrateArch compiles archCalSrc, fuses spin's code for every ISA as the
// kernel does at load (arch.Fuse over the compiler's Predecode and
// PlanFusion output) and runs it with FusedRunner.Run on a bare frame,
// returning the mean ns per simulated instruction. Preempt stays clear, so
// a poll never yields: slice turnover is the kernel's cost, not dispatch.
func calibrateArch() (float64, error) {
	st, err := setUp(&workload{src: archCalSrc})
	if err != nil {
		return 0, err
	}
	oc := st.prog.Object("Cal")
	sum := 0.0
	for _, s := range arch.AllSpecs() {
		fc := oc.PerArch[s.ID].Funcs[oc.FuncIndex("spin")]
		fz := arch.Fuse(s, fc.Decoded, fc.Runs)
		if fz == nil {
			return 0, fmt.Errorf("%s: spin did not fuse", s.Name)
		}
		var rn arch.FusedRunner
		mem := make([]byte, 4096)
		instrs := 0
		var runErr error
		run := func() {
			cpu := arch.CPU{FP: 256, TempBase: 2048}
			tr, _, n, err := rn.Run(s, fz, &cpu, mem, 1<<30)
			switch {
			case err != nil:
				runErr = err
			case tr == nil || tr.Kind != arch.TrapRet:
				runErr = fmt.Errorf("spin stopped at %+v after %d instructions, want ret", tr, n)
			}
			instrs = n
		}
		run() // learn the instruction count
		if runErr != nil {
			return 0, fmt.Errorf("%s: %w", s.Name, runErr)
		}
		sum += bestOf(calRounds, instrs, run)
		if runErr != nil {
			return 0, fmt.Errorf("%s: %w", s.Name, runErr)
		}
	}
	return sum / float64(len(arch.AllSpecs())), nil
}

// moveMsg is a Move of the Table 1 shape: one fragment, one activation with
// 13 variables over every wire kind.
func moveMsg() *wire.Msg {
	return &wire.Msg{Src: 0, Dst: 1, Seq: 42, Payload: &wire.Move{
		Object: 100, CodeOID: 2, Epoch: 7,
		Data: []wire.Value{wire.IntV(0)},
		Frags: []wire.Fragment{{
			FragID: 9, LinkNode: 0, LinkFrag: 3, Executing: true,
			Acts: []wire.MIActivation{{
				CodeOID: 2, FuncIndex: 0, Stop: 4,
				Vars: []wire.Value{wire.IntV(1000), wire.IntV(7), wire.IntV(0),
					wire.IntV(4), wire.IntV(101), wire.IntV(202), wire.RealBitsV(0x40500000),
					wire.IntV(1), wire.StringV([]byte("thirteen")), wire.IntV(606), wire.IntV(707),
					wire.RealBitsV(0x41080000), wire.IntV(12)},
			}},
		}},
	}}
}

// invokeMsg is a one-argument request of the invoke_zipf shape.
func invokeMsg() *wire.Msg {
	return &wire.Msg{Src: 2, Dst: 1, Seq: 43, Payload: &wire.Invoke{
		Target: 100, OpName: "work", Origin: 2, CallerFrag: 9,
		Args: []wire.Value{wire.IntV(57)},
	}}
}

// roundtrip marshals and parses msg n times, returning ns and heap
// allocations per roundtrip.
func roundtrip(msg *wire.Msg, n int) (ns, allocs float64, err error) {
	e := wire.GetEnc(256)
	defer e.Release()
	one := func() {
		if _, uerr := wire.Unmarshal(msg.MarshalTo(e)); uerr != nil {
			err = uerr
		}
	}
	one() // grow the encoder once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns = bestOf(calRounds, n, func() {
		for i := 0; i < n; i++ {
			one()
		}
	})
	runtime.ReadMemStats(&after)
	return ns, float64(after.Mallocs-before.Mallocs) / float64(calRounds*n), err
}

// calibrateWire times the Move and Invoke codecs and the reliable link's
// CRC'd envelope (LinkFrame.Marshal + ParseLinkFrame round an Invoke).
func calibrateWire(c *calibration) error {
	const n = 20_000
	var err error
	if c.moveRoundtripNS, c.roundtripAllocs, err = roundtrip(moveMsg(), n); err != nil {
		return fmt.Errorf("move roundtrip: %w", err)
	}
	if c.invokeRoundtripNS, _, err = roundtrip(invokeMsg(), n); err != nil {
		return fmt.Errorf("invoke roundtrip: %w", err)
	}
	frame := &wire.LinkFrame{Kind: wire.LData, Seq: 77, Inner: invokeMsg().Marshal()}
	c.linkRoundtripNS = bestOf(calRounds, n, func() {
		for i := 0; i < n; i++ {
			if _, perr := wire.ParseLinkFrame(frame.Marshal()); perr != nil {
				err = perr
			}
		}
	})
	if err != nil {
		return fmt.Errorf("link frame roundtrip: %w", err)
	}
	return nil
}

// calibrateNetsim times scheduling and stepping an empty closure with a
// few dozen events pending, the queue depth the workloads run at.
func calibrateNetsim() float64 {
	const n = 200_000
	sim := netsim.NewSim()
	noop := func() {}
	for i := 0; i < 32; i++ {
		sim.AtNode(i%figure1Nodes, netsim.Micros(i), noop)
	}
	return bestOf(calRounds, n, func() {
		for i := 0; i < n; i++ {
			sim.AtNode(i%figure1Nodes, netsim.Micros(40+i%7), noop)
			sim.Step()
		}
	})
}

func calibrate() (*calibration, error) {
	c := &calibration{}
	var err error
	if c.fusedNSPerInstr, err = calibrateArch(); err != nil {
		return nil, fmt.Errorf("arch calibration: %w", err)
	}
	if err := calibrateWire(c); err != nil {
		return nil, fmt.Errorf("wire calibration: %w", err)
	}
	c.noopEventNS = calibrateNetsim()
	return c, nil
}

// exporterMS times the two obs exporters on a run's recorder.
func exporterMS(rec *obs.Recorder) (eventLog, chrome float64, err error) {
	t := time.Now()
	_ = obs.EventLog(rec)
	eventLog = float64(time.Since(t)) / 1e6
	t = time.Now()
	err = obs.WriteChromeTrace(io.Discard, rec)
	chrome = float64(time.Since(t)) / 1e6
	return eventLog, chrome, err
}
