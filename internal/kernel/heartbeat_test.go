// Failure-detector tests: heartbeats go out on idle links only (any valid
// link frame is liveness at the receiver), and that must cost the detector
// nothing — a partitioned or crashed peer is suspected within SuspectAfter
// plus one period, never before the fault, and is unsuspected by the first
// frame that crosses the healed link, whether or not application traffic
// was keeping the link's heartbeats suppressed.

package kernel

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// idleLinkSrc puts nothing on the 0-1 link after boot; busyLinkSrc keeps a
// thread on node 0 invoking an object on node 1 back to back, so data and
// acks cross the link in both directions many times per heartbeat period.
const idleLinkSrc = `
object Main
  process
    print("idle")
  end process
end Main
`

const busyLinkSrc = `
object Probe
  var hits: Int <- 0
  operation ping() -> (r: Int)
    hits <- hits + 1
    r <- hits
  end
end Probe

object Main
  process
    var p: Probe <- new Probe
    move p to node(1)
    var i: Int <- 0
    while i < 100000 do
      i <- p.ping()
    end
  end process
end Main
`

func TestFailureDetectorLatency(t *testing.T) {
	const (
		period  = netsim.Micros(20_000)
		suspect = netsim.Micros(100_000)
		faultAt = netsim.Micros(307_000) // off the tick grid on purpose
		healAt  = netsim.Micros(611_000)
		horizon = netsim.Micros(900_000)
		// slack covers one frame's trip: the sender's syscall charge, the
		// frame on the wire, the receiver's interrupt.
		slack = netsim.Micros(2_000)
	)
	faults := map[string]func(p *chaos.Plan){
		"partition": func(p *chaos.Plan) {
			p.Partitions = []chaos.Partition{{A: 0, B: 1, From: faultAt, Until: healAt}}
		},
		"crash": func(p *chaos.Plan) {
			p.Crashes = []chaos.Crash{{Node: 1, At: faultAt, RestartAt: healAt}}
		},
	}
	beatsBeforeFault := map[string]uint64{}
	for _, fault := range []string{"partition", "crash"} {
		for _, traffic := range []string{"idle", "busy"} {
			src := idleLinkSrc
			if traffic == "busy" {
				src = busyLinkSrc
			}
			run := func() (*Cluster, uint64) {
				plan := &chaos.Plan{Seed: 3, HeartbeatEvery: period, SuspectAfter: suspect,
					CommitTimeout: 60_000, RTOBase: 20_000, RTOMax: 80_000, MaxRetrans: 5}
				faults[fault](plan)
				c, err := NewCluster(compileSrc(t, src), []netsim.MachineModel{mSPARC, mSPARC}, chaosConfig(plan))
				if err != nil {
					t.Fatalf("cluster: %v", err)
				}
				c.Start(nil)
				// Heartbeats are weak events: a strong no-op keeps the
				// simulation alive past the heal whatever the program does.
				c.Sim.At(horizon, func() {})
				var beats uint64
				c.Sim.At(faultAt-1, func() { beats = dirCounter(c, "heartbeats") })
				if err := c.Run(5_000_000); err != nil {
					t.Fatalf("run: %v", err)
				}
				return c, beats
			}
			c, beats := run()
			beatsBeforeFault[traffic] = beats
			name := fault + "/" + traffic

			// The busy caller's in-flight invocation is lost with its peer:
			// a typed fault, nothing else.
			for _, f := range c.Faults {
				if !errors.Is(f.Err, ErrNodeDown) {
					t.Errorf("%s: unexpected fault: %s", name, f.Msg)
				}
			}

			// Who must suspect whom: both ends of a cut link; only the
			// survivor of a crash (the restarted node grants a fresh grace
			// period and hears its peer straight away).
			type pair struct{ node, peer int }
			want := []pair{{0, 1}}
			if fault == "partition" {
				want = append(want, pair{1, 0})
			}
			suspectAt, recoverAt := map[pair]netsim.Micros{}, map[pair]netsim.Micros{}
			for _, e := range c.Rec.Events() {
				k := pair{int(e.Node), int(e.B)}
				switch e.Kind {
				case obs.EvNodeSuspect:
					if _, seen := suspectAt[k]; !seen {
						suspectAt[k] = netsim.Micros(e.At)
					}
				case obs.EvNodeRecover:
					if _, seen := recoverAt[k]; !seen {
						recoverAt[k] = netsim.Micros(e.At)
					}
				}
			}
			if len(suspectAt) != len(want) {
				t.Errorf("%s: suspicions %v, want exactly %v", name, suspectAt, want)
			}
			for _, k := range want {
				at, ok := suspectAt[k]
				if !ok {
					t.Errorf("%s: node %d never suspected node %d", name, k.node, k.peer)
					continue
				}
				// The last frame heard left at most two periods before the
				// fault (a suppressed beat, then the next tick's), and the
				// sweep runs once a period.
				if lo, hi := faultAt+suspect-2*period, faultAt+suspect+period; at <= lo || at > hi {
					t.Errorf("%s: node %d suspected node %d at %dus, want in (%d, %d]",
						name, k.node, k.peer, at, lo, hi)
				}
				rec, ok := recoverAt[k]
				if !ok {
					t.Errorf("%s: node %d never unsuspected node %d after the heal", name, k.node, k.peer)
					continue
				}
				// An idle or parked link beats every period, so the first
				// frame crosses within one period of the heal.
				if rec <= healAt || rec > healAt+period+slack {
					t.Errorf("%s: node %d unsuspected node %d at %dus, want in (%d, %d]",
						name, k.node, k.peer, rec, healAt, healAt+period+slack)
				}
			}

			c2, _ := run()
			if !bytes.Equal(obs.EventLog(c.Rec), obs.EventLog(c2.Rec)) {
				t.Errorf("%s: same plan produced different event logs", name)
			}
		}
		// Suppression is real: before the fault the idle link carried one
		// beat per period each way, the busy link next to none.
		ticks := uint64(faultAt / period)
		if idle := beatsBeforeFault["idle"]; idle < 2*(ticks-1) {
			t.Errorf("%s: idle link sent %d heartbeats before the fault, want >= %d", fault, idle, 2*(ticks-1))
		}
		if busy := beatsBeforeFault["busy"]; busy > ticks/2 {
			t.Errorf("%s: busy link sent %d heartbeats before the fault, want <= %d (suppressed)", fault, busy, ticks/2)
		}
	}
}
