// Migration spans: one span per object hop, aggregating the per-phase
// latency breakdown the paper's evaluation attributes (§3.6) — how long the
// source spent converting machine-dependent state to the machine-independent
// format (and how many conversion-procedure calls that took), how long the
// serialized bytes occupied the wire, and how long the destination spent
// re-specializing the machine-independent records to its own ISA.

package obs

import (
	"fmt"
	"sort"
)

// Span is one object migration (one hop). Times are simulated microseconds;
// phases on different nodes are measured on those nodes' CPU timelines.
//
//	Start ──(MD→MI convert)── ConvOutEnd ──(wire)── RecvAt ──(MI→MD)── End
type Span struct {
	ID       uint32
	Obj      uint32 // migrating object's identity bits
	Src, Dst int32
	ObjKind  string // "plain", "array", "immutable"
	Frags    int    // thread fragments carried
	Acts     int    // activation records carried

	// MD→MI conversion on the source.
	Start        int64
	ConvOutEnd   int64
	ConvOutCalls uint64
	ConvOutBytes uint64

	// Wire: serialized payload size and transit. SendAt is when the frame
	// starts serializing (the source CPU finished marshalling); RecvAt is
	// delivery at the destination.
	WireBytes uint64
	SendAt    int64
	RecvAt    int64

	// MI→MD respecialization on the destination.
	RespecStart int64
	End         int64
	ConvInCalls uint64

	Done bool
}

// ConvOutMicros returns the source-side conversion phase length.
func (s *Span) ConvOutMicros() int64 { return s.ConvOutEnd - s.Start }

// WireMicros returns the wire phase length (serialization + medium +
// latency, from CPU-free to delivery).
func (s *Span) WireMicros() int64 { return s.RecvAt - s.SendAt }

// RespecMicros returns the destination-side respecialization phase length.
func (s *Span) RespecMicros() int64 { return s.End - s.RespecStart }

// TotalMicros returns end-to-end hop latency.
func (s *Span) TotalMicros() int64 { return s.End - s.Start }

// String renders a one-line summary.
func (s *Span) String() string {
	return fmt.Sprintf("span %d: obj%08x node%d->node%d (%s) %d frags/%d acts: conv-out %dµs (%d calls), wire %dµs (%d bytes), respec %dµs (%d calls), total %dµs",
		s.ID, s.Obj, s.Src, s.Dst, s.ObjKind, s.Frags, s.Acts,
		s.ConvOutMicros(), s.ConvOutCalls, s.WireMicros(), s.WireBytes,
		s.RespecMicros(), s.ConvInCalls, s.TotalMicros())
}

// BeginSpan opens a migration span on the source node. The returned span's
// ID travels inside the Move message so the destination can close it.
//
// IDs are minted per source node — ID = idx·stride + src + 1, where idx is
// the node's span-creation count — so the numbering needs no cross-node
// counter. Only the table itself is locked (source and destination touch a
// span's fields at causally ordered instants, never concurrently).
func (r *Recorder) BeginSpan(at int64, src, dst int32, obj uint32, objKind string) *Span {
	stride := uint32(len(r.spans))
	lane := uint32(0)
	if src >= 0 && int(src) < len(r.nodes) {
		lane = uint32(src)
	}
	r.spanMu.Lock()
	idx := uint32(len(r.spans[lane]))
	s := &Span{ID: idx*stride + lane + 1, Obj: obj, Src: src, Dst: dst,
		ObjKind: objKind, Start: at}
	r.spans[lane] = append(r.spans[lane], s)
	r.spanMu.Unlock()
	return s
}

// Span resolves a span id (nil when unknown — e.g. id 0, or a Move decoded
// from a foreign stream) by inverting BeginSpan's id arithmetic.
func (r *Recorder) Span(id uint32) *Span {
	stride := uint32(len(r.spans))
	lane, idx := (id-1)%stride, (id-1)/stride
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if id == 0 || int(idx) >= len(r.spans[lane]) {
		return nil
	}
	return r.spans[lane][idx]
}

// Spans returns every span opened so far, ordered by (Start, Src, ID) —
// a canonical order equal to creation order.
func (r *Recorder) Spans() []*Span {
	r.spanMu.Lock()
	var out []*Span
	for _, lane := range r.spans {
		out = append(out, lane...)
	}
	r.spanMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.ID < b.ID
	})
	return out
}

// SpanSent records the wire hand-off: the serialized size and the instant
// the source CPU finished marshalling (transmission can start).
func (r *Recorder) SpanSent(id uint32, bytes int, sendAt int64) {
	if s := r.Span(id); s != nil {
		s.WireBytes = uint64(bytes)
		s.SendAt = sendAt
	}
}

// SpanArrived records delivery at the destination.
func (r *Recorder) SpanArrived(id uint32, at int64) {
	if s := r.Span(id); s != nil {
		s.RecvAt = at
	}
}

// SpanRespec closes the span with the destination-side phase.
func (r *Recorder) SpanRespec(id uint32, start, end int64, convCalls uint64) {
	if s := r.Span(id); s != nil {
		s.RespecStart = start
		s.End = end
		s.ConvInCalls = convCalls
		s.Done = true
	}
}
