// Exporters: Chrome trace-event JSON (load a migration timeline in
// chrome://tracing or Perfetto), a flat JSON metrics dump, and human text
// renderers. All output is deterministic: identical runs produce identical
// bytes.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// chromeEvent is one entry of the Chrome trace-event format (the subset we
// emit: metadata M, complete X, instant i, flow s/f).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	ID   uint32         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome-trace tid lanes per node process.
const (
	tidKernel = 1 // instant events: invokes, monitors, gc, faults
	tidMigr   = 2 // migration phase slices
	tidWire   = 3 // per-message send/recv instants
)

// WriteChromeTrace writes the recorder's spans and events in Chrome
// trace-event JSON. Each node is a process; migration spans appear as three
// complete slices — "MD→MI convert" on the source, "wire" spanning the
// transfer, "MI→MD respecialize" on the destination — linked by a flow
// arrow, with conversion-call and byte counts in args. When full rings
// evicted events, the instants are a tail, and one leading "trace_tail"
// metadata event says so: the evicted count and the ring cap.
func WriteChromeTrace(w io.Writer, r *Recorder) error {
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	add := func(e chromeEvent) { tr.TraceEvents = append(tr.TraceEvents, e) }
	if d := r.Dropped(); d > 0 {
		add(chromeEvent{Name: "trace_tail", Ph: "M",
			Args: map[string]any{"dropped": d, "ring_cap": r.ringCap}})
	}

	for i := 0; i < r.NumNodes(); i++ {
		ni := r.Node(i)
		name := fmt.Sprintf("node%d %s", i, ni.Name)
		if ni.Arch != "" {
			name += " (" + ni.Arch + ")"
		}
		add(chromeEvent{Name: "process_name", Ph: "M", Pid: int32(i),
			Args: map[string]any{"name": name}})
		add(chromeEvent{Name: "thread_name", Ph: "M", Pid: int32(i), Tid: tidKernel,
			Args: map[string]any{"name": "kernel"}})
		add(chromeEvent{Name: "thread_name", Ph: "M", Pid: int32(i), Tid: tidMigr,
			Args: map[string]any{"name": "migration"}})
		add(chromeEvent{Name: "thread_name", Ph: "M", Pid: int32(i), Tid: tidWire,
			Args: map[string]any{"name": "wire"}})
	}

	dur := func(d int64) *int64 {
		if d < 0 {
			d = 0
		}
		return &d
	}
	for _, s := range r.Spans() {
		if !s.Done {
			continue
		}
		label := fmt.Sprintf("obj%08x %s", s.Obj, s.ObjKind)
		args := map[string]any{
			"span": s.ID, "object": fmt.Sprintf("%08x", s.Obj), "kind": s.ObjKind,
			"frags": s.Frags, "acts": s.Acts,
		}
		convArgs := map[string]any{"conv_calls": s.ConvOutCalls, "conv_bytes": s.ConvOutBytes}
		for k, v := range args {
			convArgs[k] = v
		}
		add(chromeEvent{Name: "MD→MI convert " + label, Cat: "migration", Ph: "X",
			Ts: s.Start, Dur: dur(s.ConvOutMicros()), Pid: s.Src, Tid: tidMigr, Args: convArgs})
		wireArgs := map[string]any{"wire_bytes": s.WireBytes}
		for k, v := range args {
			wireArgs[k] = v
		}
		add(chromeEvent{Name: "wire " + label, Cat: "migration", Ph: "X",
			Ts: s.SendAt, Dur: dur(s.WireMicros()), Pid: s.Src, Tid: tidWire, Args: wireArgs})
		respArgs := map[string]any{"conv_calls": s.ConvInCalls}
		for k, v := range args {
			respArgs[k] = v
		}
		add(chromeEvent{Name: "MI→MD respecialize " + label, Cat: "migration", Ph: "X",
			Ts: s.RespecStart, Dur: dur(s.RespecMicros()), Pid: s.Dst, Tid: tidMigr, Args: respArgs})
		// Flow arrow source → destination.
		add(chromeEvent{Name: "migration", Cat: "migration", Ph: "s", Ts: s.SendAt,
			Pid: s.Src, Tid: tidWire, ID: s.ID})
		add(chromeEvent{Name: "migration", Cat: "migration", Ph: "f", Ts: s.RespecStart,
			Pid: s.Dst, Tid: tidMigr, ID: s.ID})
	}

	for _, e := range r.Events() {
		row := e.Kind.row()
		if row == nil || row.tid == 0 {
			continue
		}
		name := e.Kind.String()
		if row.chrome != "" {
			name = row.chrome + " " + e.Str
		}
		add(chromeEvent{Name: name, Cat: "kernel", Ph: "i", Ts: e.At,
			Pid: e.Node, Tid: row.tid, S: "t",
			Args: map[string]any{"detail": e.Text()}})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tr)
}

// WriteMetricsJSON writes a metrics snapshot as flat JSON.
func WriteMetricsJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// EventLog renders every retained event as one text line (with timestamp),
// the format the determinism test compares byte-for-byte. When full rings
// evicted events, a first line says the log is a tail: the evicted count
// and the ring cap.
func EventLog(r *Recorder) []byte {
	var b strings.Builder
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, "# tail: %d events evicted from full rings; each node keeps its last %d\n", d, r.ringCap)
	}
	for _, e := range r.Events() {
		fmt.Fprintf(&b, "%6d [%8dµs] %s\n", e.Seq, e.At, e.Text())
	}
	return []byte(b.String())
}

// FormatSpans renders a human table of completed migration spans.
func FormatSpans(r *Recorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-10s %-12s %-9s %6s %12s %12s %12s %10s %10s\n",
		"span", "object", "route", "kind", "frags", "MD→MI µs", "wire µs", "MI→MD µs", "conv", "bytes")
	for _, s := range r.Spans() {
		if !s.Done {
			continue
		}
		fmt.Fprintf(&b, "%-5d %-10s %-12s %-9s %6d %12d %12d %12d %10d %10d\n",
			s.ID, fmt.Sprintf("%08x", s.Obj),
			fmt.Sprintf("n%d→n%d", s.Src, s.Dst), s.ObjKind, s.Frags,
			s.ConvOutMicros(), s.WireMicros(), s.RespecMicros(),
			s.ConvOutCalls+s.ConvInCalls, s.WireBytes)
	}
	return b.String()
}
