// The frame-layer injector: implements netsim.Injector, drawing every
// decision from the plan's seeded PRNG and emitting an obs event plus a
// metric for each injected fault so recovery is visible in the trace.
//
// Randomness is partitioned per (src,dst) link: each link gets its own
// splitmix64 stream derived from the plan seed, so a frame's verdict is a
// pure function of (plan, link, that link's frame index), independent of
// how frames from different senders interleave. The streams decide every
// chaos verdict, so the chaos goldens pin them.
package chaos

import (
	"repro/internal/netsim"
	"repro/internal/obs"
)

// rng is splitmix64: tiny, fast, and fully deterministic across platforms.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix folds a link identity into the plan seed (one splitmix64 round over
// the combined bits, so nearby links get uncorrelated streams).
func mix(seed uint64, src, dst int) uint64 {
	r := rng{state: seed ^ (uint64(src+1) << 32) ^ uint64(dst+1)}
	return r.next()
}

// Fault kinds, in the order they are counted, and their metric labels
// (spelled out: note runs for every injected fault and must not build one).
var (
	faultKinds = []string{"drop", "dup", "delay", "corrupt", "partition"}
	kindLabels = [numKinds]string{"kind=drop", "kind=dup", "kind=delay", "kind=corrupt", "kind=partition"}
)

const (
	kindDrop = iota
	kindDup
	kindDelay
	kindCorrupt
	kindPartition
	numKinds
)

// Injector implements netsim.Injector for a Plan. Verdicts are drawn from
// per-link streams: every link's stream exists from NewInjector on, and
// only the link's sending node advances it, so Frame takes no lock.
type Injector struct {
	plan  *Plan
	rec   *obs.Recorder // may be nil (unit tests)
	nodes int

	// streams[src*nodes+dst] is the (src,dst) link's PRNG stream.
	streams []rng

	// ctrs[k] is the chaos_injected counter of fault kind k (nil without
	// a recorder), resolved here: Frame runs on every sending node's
	// goroutine, so it must not resolve one itself.
	ctrs [numKinds]*obs.Ctr
}

// NewInjector returns an injector for plan on a network of nodes nodes,
// reporting into rec (which may be nil).
func NewInjector(plan *Plan, nodes int, rec *obs.Recorder) *Injector {
	in := &Injector{plan: plan, rec: rec, nodes: nodes, streams: make([]rng, nodes*nodes)}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			in.streams[src*nodes+dst] = rng{state: mix(plan.Seed, src, dst)}
		}
	}
	if rec != nil {
		for k := range in.ctrs {
			in.ctrs[k] = rec.Metrics().Ctr("chaos_injected", kindLabels[k])
		}
	}
	return in
}

// stream returns the (src,dst) link's PRNG stream.
func (in *Injector) stream(src, dst int) *rng { return &in.streams[src*in.nodes+dst] }

// Frame implements netsim.Injector.
func (in *Injector) Frame(at netsim.Micros, src, dst, payloadLen int) netsim.Verdict {
	var v netsim.Verdict
	p := in.plan
	if in.partitioned(at, src, dst) {
		v.Drop = true
		in.note(at, src, dst, kindPartition)
		return v
	}
	// One draw per fault class per frame, in a fixed order, so the
	// consumption pattern is a pure function of the link's frame sequence.
	rs := in.stream(src, dst)
	if rs.float() < p.Drop {
		v.Drop = true
		in.note(at, src, dst, kindDrop)
	}
	if rs.float() < p.Dup {
		v.Dup = true
		v.DupDelay = 1 + netsim.Micros(rs.next()%64)
		in.note(at, src, dst, kindDup)
	}
	if rs.float() < p.Delay {
		v.ExtraDelay = 1 + netsim.Micros(rs.next()%uint64(p.DelayBound()))
		in.note(at, src, dst, kindDelay)
	}
	if rs.float() < p.Corrupt {
		v.Corrupt = true
		if payloadLen > 0 {
			v.CorruptOff = int(rs.next() % uint64(payloadLen))
		}
		v.CorruptXor = byte(1 + rs.next()%255)
		in.note(at, src, dst, kindCorrupt)
	}
	return v
}

// partitioned reports whether the src<->dst link is cut at time at.
func (in *Injector) partitioned(at netsim.Micros, src, dst int) bool {
	for _, pt := range in.plan.Partitions {
		if ((pt.A == src && pt.B == dst) || (pt.A == dst && pt.B == src)) &&
			at >= pt.From && at < pt.Until {
			return true
		}
	}
	return false
}

func (in *Injector) note(at netsim.Micros, src, dst int, kind int) {
	if in.rec == nil {
		return
	}
	in.rec.Emit(obs.Event{At: int64(at), Node: int32(src), Kind: obs.EvFaultInject,
		B: uint64(dst), Str: faultKinds[kind]})
	in.ctrs[kind].Add(1)
}
