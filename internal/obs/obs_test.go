package obs

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRingBounded(t *testing.T) {
	r := NewRecorder(1, 4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{At: int64(i), Node: 0, Kind: EvText, Str: "x"})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(evs))
	}
	// Oldest retained is event 7 (seq starts at 1; 10 emitted, keep last 4).
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Errorf("retained seqs %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
}

func TestEventsMergeCanonical(t *testing.T) {
	// Events merge in the canonical (At, Node, Seq) order: time first, then
	// node, then per-node emission order.
	r := NewRecorder(2, 8)
	r.Emit(Event{At: 5, Node: 1, Kind: EvText, Str: "a"})
	r.Emit(Event{At: 5, Node: 0, Kind: EvText, Str: "b"})
	r.Emit(Event{At: 5, Node: 1, Kind: EvText, Str: "d"})
	r.Emit(Event{At: 2, Node: 1, Kind: EvText, Str: "e"})
	var got []string
	for _, e := range r.Events() {
		got = append(got, e.Str)
	}
	if strings.Join(got, "") != "ebad" {
		t.Errorf("merged order %v, want [e b a d]", got)
	}
}

func TestTextSinkSeesEveryEvent(t *testing.T) {
	r := NewRecorder(1, 8)
	var lines []string
	r.SetTextSink(func(s string) { lines = append(lines, s) })
	r.Emit(Event{At: 42, Node: 0, Kind: EvWireSend, A: 100, B: 1, Str: "move"})
	r.Textf(43, 0, "node%d print: %s", 0, "hi")
	if len(lines) != 2 {
		t.Fatalf("sink got %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "node0 -> node1 move (100 bytes)") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[0], "42µs") {
		t.Errorf("line 0 lacks timestamp: %q", lines[0])
	}
	if !strings.Contains(lines[1], "node0 print: hi") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 1, 3, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Max != 1<<40 {
		t.Fatalf("count=%d max=%d", h.Count, h.Max)
	}
	// v=0 → bucket 0; v=1 → bucket 1; v=3 → bucket 2; v=100 → bucket 7;
	// huge → clamped to the last bucket.
	if h.Buckets[0] != 1 || h.Buckets[1] != 2 || h.Buckets[2] != 1 ||
		h.Buckets[7] != 1 || h.Buckets[NumHistBuckets-1] != 1 {
		t.Errorf("buckets = %v", h.Buckets)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Add("zz", "node=1", 2)
	reg.Add("aa", "", 1)
	reg.Add("mm", "node=0,arch=vax", 3)
	reg.SetGauge("g", "node=0", -5)
	reg.Hist("h", "").Observe(7)
	s := reg.Snapshot(99)
	if s.AtMicros != 99 {
		t.Fatalf("at = %d", s.AtMicros)
	}
	if len(s.Counters) != 3 || s.Counters[0].Name != "aa" ||
		s.Counters[1].Name != "mm" || s.Counters[2].Name != "zz" {
		t.Errorf("counters unsorted: %+v", s.Counters)
	}
	if s.Counters[1].Labels != "node=0,arch=vax" || s.Counters[1].Value != 3 {
		t.Errorf("labels lost: %+v", s.Counters[1])
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != -5 {
		t.Errorf("gauges: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 || s.Histograms[0].Sum != 7 {
		t.Errorf("hists: %+v", s.Histograms)
	}
}

// Series are keyed by (name, labels) but serialized in the order of their
// "name{labels}" strings, which is not the order of the pairs: '{' sorts
// above '_', and '}' above every letter.
func TestRegistrySnapshotOrderIsKeyStringOrder(t *testing.T) {
	reg := NewRegistry()
	for _, k := range [][2]string{{"msgs", "msg=move"}, {"msgs_sent", "node=0"}, {"msgs", ""},
		{"msgs", "msg=movereq"}, {"link", "a=1"}, {"link", "a=10"}} {
		reg.Add(k[0], k[1], 1)
	}
	want := []string{"link{a=10}", "link{a=1}", "msgs", "msgs_sent{node=0}", "msgs{msg=movereq}", "msgs{msg=move}"}
	var got []string
	for _, c := range reg.Snapshot(0).Counters {
		k := c.Name
		if c.Labels != "" {
			k += "{" + c.Labels + "}"
		}
		got = append(got, k)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("snapshot order = %v, want %v", got, want)
	}
	got = nil
	for _, c := range reg.CountersPrefix("msgs") {
		got = append(got, c.Labels)
	}
	if strings.Join(got, " ") != " msg=movereq msg=move" {
		t.Errorf("CountersPrefix(msgs) labels = %q", got)
	}
}

// An update to an existing series builds no key string: 0 allocations.
func TestRegistryUpdateAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	labels := NodeLabels(3, "sparc")
	update := func() {
		reg.Add("msgs", labels, 1)
		reg.Hist("runq_depth", labels).Observe(5)
		reg.SetGauge("instrs", labels, 42)
	}
	update() // create the series
	if got := testing.AllocsPerRun(200, update); got != 0 {
		t.Errorf("Add+Hist+SetGauge on existing series = %v allocs/run, want 0", got)
	}
	if reg.Counter("msgs", labels) != 202 || reg.Gauge("instrs", labels) != 42 {
		t.Errorf("updates lost: %+v", reg.Snapshot(0))
	}
}

// A counter handle's Add is one atomic add: no lock, key or allocation.
func TestCtrAddAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	c := reg.Ctr("heartbeats", NodeLabels(0, "vax"))
	if got := testing.AllocsPerRun(200, func() { c.Add(2) }); got != 0 {
		t.Errorf("Ctr.Add = %v allocs/run, want 0", got)
	}
	if got := reg.Counter("heartbeats", NodeLabels(0, "vax")); got != 402 {
		t.Errorf("heartbeats = %d after 201 adds of 2, want 402", got)
	}
}

// Adds on one handle from many goroutines sum exactly, through the handle
// and through Registry.Add alike (run under -race by make ci).
func TestCtrConcurrentAddsSumExactly(t *testing.T) {
	reg := NewRegistry()
	c := reg.Ctr("msgs", "msg=invoke")
	const workers, adds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var own *Ctr // each worker resolves its own copy of the handle
			for i := 0; i < adds; i++ {
				if w%2 == 0 {
					c.Add(uint64(i))
				} else if i%2 == 0 {
					reg.Lazy(&own, "msgs", "msg=invoke").Add(uint64(i))
				} else {
					reg.Add("msgs", "msg=invoke", uint64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := reg.Counter("msgs", "msg=invoke"), uint64(workers*adds*(adds-1)/2); got != want {
		t.Errorf("msgs{msg=invoke} = %d, want %d", got, want)
	}
}

// Resolving a handle creates no series: a counter enters the snapshot (and
// CountersPrefix) at its first Add — a zero delta included, as Registry.Add
// has always made one — whichever path, handle or name, adds it.
func TestCounterSeriesAppearsAtFirstAdd(t *testing.T) {
	names := func(reg *Registry) string {
		var out []string
		for _, c := range reg.Snapshot(0).Counters {
			out = append(out, c.Name+"{"+c.Labels+"}="+strconv.FormatUint(c.Value, 10))
		}
		for _, c := range reg.CountersPrefix("b") {
			out = append(out, "prefix:"+c.Labels)
		}
		return strings.Join(out, " ")
	}
	reg := NewRegistry()
	a := reg.Ctr("a", "x=1")
	var b *Ctr
	reg.Lazy(&b, "b", "x=2")
	if reg.Ctr("a", "x=1") != a || reg.Lazy(&b, "b", "x=9") != reg.Ctr("b", "x=2") {
		t.Fatal("resolving a series twice gave two handles")
	}
	if got := names(reg); got != "" {
		t.Fatalf("resolved but never added series are in the snapshot: %s", got)
	}
	a.Add(0)
	if got := names(reg); got != "a{x=1}=0" {
		t.Errorf("after a handle's Add(0): %s", got)
	}
	reg.Add("b", "x=2", 3)
	if got := names(reg); got != "a{x=1}=0 b{x=2}=3 prefix:x=2" {
		t.Errorf("after Registry.Add on a resolved series: %s", got)
	}
	b.Add(1)
	a.Add(5)
	if got := names(reg); got != "a{x=1}=5 b{x=2}=4 prefix:x=2" {
		t.Errorf("after both paths: %s", got)
	}
}

func TestSpanLifecycle(t *testing.T) {
	r := NewRecorder(2, 8)
	s := r.BeginSpan(1000, 0, 1, 0xabc, "plain")
	s.ConvOutEnd = 1500
	s.ConvOutCalls = 40
	s.Frags, s.Acts = 1, 2
	r.SpanSent(s.ID, 256, 1500)
	r.SpanArrived(s.ID, 2100)
	r.SpanRespec(s.ID, 2100, 2600, 38)
	got := r.Span(s.ID)
	if got == nil || !got.Done {
		t.Fatal("span not closed")
	}
	if got.ConvOutMicros() != 500 || got.WireMicros() != 600 || got.RespecMicros() != 500 {
		t.Errorf("phases: conv=%d wire=%d respec=%d",
			got.ConvOutMicros(), got.WireMicros(), got.RespecMicros())
	}
	if got.TotalMicros() != 1600 {
		t.Errorf("total = %d", got.TotalMicros())
	}
	if r.Span(0) != nil || r.Span(99) != nil {
		t.Error("bogus span ids resolved")
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	r := NewRecorder(2, 8)
	r.SetNodeInfo(0, "SPARCstation SLC", "sparc")
	r.SetNodeInfo(1, "VAXstation 2000", "vax")
	s := r.BeginSpan(0, 0, 1, 7, "plain")
	s.ConvOutEnd = 100
	r.SpanSent(s.ID, 64, 100)
	r.SpanArrived(s.ID, 400)
	r.SpanRespec(s.ID, 400, 450, 9)
	r.Emit(Event{At: 10, Node: 0, Kind: EvRemoteInvoke, Obj: 7, B: 1, Str: "ping"})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"MD→MI convert obj00000007 plain"`, `"wire obj00000007 plain"`,
		`"MI→MD respecialize obj00000007 plain"`,
		`"invoke ping"`, `"node0 SPARCstation SLC (sparc)"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
	// Same recorder exports identical bytes.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("chrome export is not deterministic")
	}
}

// TestEveryKindHasOneRow: each kind from EvText to the last is stated in
// the kind table, under a name no other kind has.
func TestEveryKindHasOneRow(t *testing.T) {
	seen := map[string]Kind{}
	for k := EvText; k <= EvDirLookup; k++ {
		row := k.row()
		if row == nil {
			t.Errorf("kind %d has no row in the kind table", k)
			continue
		}
		if prev, dup := seen[row.name]; dup {
			t.Errorf("kinds %d and %d are both named %q", prev, k, row.name)
		}
		seen[row.name] = k
	}
}
