// The metrics registry: counters, gauges and histograms keyed by a metric
// name plus a label string (e.g. "node=0,arch=sparc"). The registry is
// snapshotable at any simulated instant; snapshots are fully sorted so that
// identical runs serialize to identical bytes.
//
// A series is keyed by the (name, labels) pair itself. Hot paths do not
// look it up per update: they hold a handle — a *Ctr for a counter, a *Hist
// for a histogram — resolved once, on first use, and cached with their own
// state (a node's, an injector's), so an update is one atomic add (Ctr) or
// one single-writer observation (Hist): no lock, no map, no formatting.
// Registry.Add is the same store reached by name, for cold sites. A counter
// series enters snapshots at its first Add, whichever path makes it, never
// when its handle is resolved. The "name{labels}" form exists only as the
// sort order of the read side.

package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// NumHistBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with v < 2^i (the last bucket is unbounded).
const NumHistBuckets = 24

// Hist is a power-of-two-bucketed histogram.
type Hist struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [NumHistBuckets]uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	b := bits.Len64(v) // v < 2^Len64(v)
	if b >= NumHistBuckets {
		b = NumHistBuckets - 1
	}
	h.Buckets[b]++
}

// Ctr is a handle on one counter series. Add is safe from any goroutine
// (nodes share series such as msgs{msg=invoke}), and every update is a
// commutative sum, so the final value does not depend on the order of the
// updates.
type Ctr struct {
	v    atomic.Uint64
	live atomic.Bool // set by the first Add: the series is in snapshots
}

// Add increments the counter.
func (c *Ctr) Add(delta uint64) {
	c.v.Add(delta)
	if !c.live.Load() {
		c.live.Store(true)
	}
}

// Value reads the counter.
func (c *Ctr) Value() uint64 { return c.v.Load() }

// Registry accumulates metrics. A mutex guards the series maps — creating
// a series, reading by name, snapshotting — but not the updates of a
// resolved handle: a Ctr adds atomically, and a Hist has one writer, which
// observes it outside the lock.
type Registry struct {
	mu       sync.Mutex
	counters map[series]*Ctr
	gauges   map[series]int64
	hists    map[series]*Hist
	// spare is the unused tail of the block new counters are carved from,
	// so resolving a series allocates once per block, not per series.
	spare []Ctr
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[series]*Ctr{},
		gauges:   map[series]int64{},
		hists:    map[series]*Hist{},
	}
}

// series identifies one metric series. Labels must be pre-sorted by the
// caller (the fixed call sites in the kernel use literal label orders,
// which keeps runs comparable).
type series struct{ name, labels string }

// sortedSeries returns the series of m named name (all of them when name
// is ""), ordered by their "name{labels}" strings (bare name when
// unlabelled) — the order every snapshot has always been serialized in,
// which differs from ordering the pairs ('{' sorts above '_', '}' above
// letters).
func sortedSeries[V any](m map[series]V, name string) []series {
	out := make([]series, 0, len(m))
	full := make(map[series]string, len(m))
	for k := range m {
		if name != "" && k.name != name {
			continue
		}
		out = append(out, k)
		full[k] = k.name
		if k.labels != "" {
			full[k] = k.name + "{" + k.labels + "}"
		}
	}
	sort.Slice(out, func(i, j int) bool { return full[out[i]] < full[out[j]] })
	return out
}

// NodeLabels builds the standard per-node label set.
func NodeLabels(node int, arch string) string {
	return fmt.Sprintf("node=%d,arch=%s", node, arch)
}

// Ctr returns the handle on one counter series, creating it (absent from
// snapshots until its first Add) on the first call.
func (r *Registry) Ctr(name, labels string) *Ctr {
	k := series{name, labels}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[k]
	if c == nil {
		if len(r.spare) == 0 {
			r.spare = make([]Ctr, 16)
		}
		c, r.spare = &r.spare[0], r.spare[1:]
		r.counters[k] = c
	}
	return c
}

// Lazy returns the counter handle *p, first resolving it into *p when nil:
// the resolve-on-first-use step of a caller that caches its handles.
func (r *Registry) Lazy(p **Ctr, name, labels string) *Ctr {
	if *p == nil {
		*p = r.Ctr(name, labels)
	}
	return *p
}

// Add increments a counter by name: Ctr(name, labels).Add(delta).
func (r *Registry) Add(name, labels string, delta uint64) {
	r.Ctr(name, labels).Add(delta)
}

// Counter reads a counter (0 when absent).
func (r *Registry) Counter(name, labels string) uint64 {
	r.mu.Lock()
	c := r.counters[series{name, labels}]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// SetGauge records an instantaneous value.
func (r *Registry) SetGauge(name, labels string, v int64) {
	r.mu.Lock()
	r.gauges[series{name, labels}] = v
	r.mu.Unlock()
}

// Gauge reads a gauge (0 when absent).
func (r *Registry) Gauge(name, labels string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[series{name, labels}]
}

// Hist returns one series' histogram, created on the first call. Its
// caller observes it without the registry's lock, so it must be the
// series' only writer, and nothing may snapshot the registry while it
// writes: the kernel's nodes each observe their own series and snapshot
// only between runs.
func (r *Registry) Hist(name, labels string) *Hist {
	k := series{name, labels}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[k]
	if h == nil {
		h = &Hist{}
		r.hists[k] = h
	}
	return h
}

// CountersPrefix returns every counter whose metric name equals name,
// in snapshot order (deterministic). The policy engine uses it to read
// labelled counter families (e.g. per-link invocation traffic) without
// serializing a full snapshot.
func (r *Registry) CountersPrefix(name string) []CounterPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterPoints(name)
}

// counterPoints is the snapshot form of the live counters named name (all
// when name is ""). The caller holds r.mu.
func (r *Registry) counterPoints(name string) []CounterPoint {
	var out []CounterPoint
	for _, k := range sortedSeries(r.counters, name) {
		if c := r.counters[k]; c.live.Load() {
			out = append(out, CounterPoint{Name: k.name, Labels: k.labels, Value: c.v.Load()})
		}
	}
	return out
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  uint64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// HistPoint is one histogram in a snapshot. Buckets are trimmed to the
// last non-empty bucket.
type HistPoint struct {
	Name    string   `json:"name"`
	Labels  string   `json:"labels,omitempty"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets"`
}

// Snapshot is the registry's full state at one simulated instant, fully
// sorted (deterministic).
type Snapshot struct {
	AtMicros   int64          `json:"at_micros"`
	Counters   []CounterPoint `json:"counters"`
	Gauges     []GaugePoint   `json:"gauges"`
	Histograms []HistPoint    `json:"histograms"`
}

// Snapshot captures the registry at simulated time `at`.
func (r *Registry) Snapshot(at int64) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{AtMicros: at, Counters: r.counterPoints("")}
	for _, k := range sortedSeries(r.gauges, "") {
		s.Gauges = append(s.Gauges, GaugePoint{Name: k.name, Labels: k.labels, Value: r.gauges[k]})
	}
	for _, k := range sortedSeries(r.hists, "") {
		h := r.hists[k]
		last := 0
		for i, b := range h.Buckets {
			if b != 0 {
				last = i + 1
			}
		}
		s.Histograms = append(s.Histograms, HistPoint{
			Name: k.name, Labels: k.labels, Count: h.Count, Sum: h.Sum, Max: h.Max,
			Buckets: append([]uint64(nil), h.Buckets[:last]...),
		})
	}
	return s
}
