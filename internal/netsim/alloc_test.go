package netsim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The allocation budget of the event core (DESIGN.md §11): once the queue's
// backing array and the delivery-buffer pool are warm, scheduling and
// running an event allocates nothing, and neither does a frame's whole
// trip — Send, the queued delivery, the handler, the buffer's return.

func TestWarmScheduleStepAllocatesNothing(t *testing.T) {
	s := NewSim()
	noop := func() {}
	for i := 0; i < 32; i++ {
		s.AtNode(i%4, Micros(i), noop)
	}
	got := testing.AllocsPerRun(1000, func() {
		s.AtNode(1, 40, noop)
		s.Step()
	})
	if got != 0 {
		t.Errorf("warm AtNode+Step = %v allocs/run, want 0", got)
	}
}

func TestWarmFrameDeliveryAllocatesNothing(t *testing.T) {
	s := NewSim()
	net := NewNetwork(s)
	delivered := 0
	net.Attach(0, func(int, []byte) {})
	net.Attach(1, func(src int, payload []byte) { delivered += len(payload) })
	payload := make([]byte, 100)
	trip := func() {
		if err := net.Send(0, 1, payload, s.Now()); err != nil {
			t.Fatal(err)
		}
		for s.Step() {
		}
	}
	trip() // grow the queue and fill the 128 B buffer class
	got := testing.AllocsPerRun(1000, trip)
	if got != 0 {
		t.Errorf("warm Send → delivery → handler = %v allocs/run, want 0", got)
	}
	if delivered != 1002*len(payload) {
		t.Errorf("delivered %d payload bytes, want %d", delivered, 1002*len(payload))
	}
}

// less is the canonical event order stated over an event's own fields —
// time, node, class, sequence — the reference eventKey.less must match.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.node != o.node {
		return e.node < o.node
	}
	if e.class != o.class {
		return e.class < o.class
	}
	return e.seq < o.seq
}

// identity is an event's identity for comparison (events hold funcs).
type identity struct {
	at    Micros
	node  int32
	class int8
	seq   uint64
	weak  bool
	src   int32
}

func identityOf(e event) identity { return identity{e.at, e.node, e.class, e.seq, e.weak, e.src} }

// TestEventHeapPopsInCanonicalOrder: the key heap is event.less's order.
// Random events — drawn from small ranges so every tie-break level of less
// is hit, with sequence numbers past 2^32 and nodes at both ends of the
// packable range (-1 and maxNode) — are pushed with pops interleaved, and
// each pop must return exactly the event, payload included, that is the
// minimum by event.less of what is then pending (a reference slice kept
// sorted with sort.Slice). Popped slots are reused: the slab never holds
// more slots than the most events ever pending at once, and every free
// slot is zero.
func TestEventHeapPopsInCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	nodes := []int32{-1, 0, 1, 2, maxNode - 1, maxNode}
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		var ref []event
		seq, peak := uint64(0), 0
		pop := func() {
			sort.Slice(ref, func(i, j int) bool { return ref[i].less(&ref[j]) })
			got, want := identityOf(h.pop()), identityOf(ref[0])
			ref = ref[1:]
			if got != want {
				t.Fatalf("trial %d: popped %+v, reference order says %+v", trial, got, want)
			}
		}
		for step := 0; step < 400; step++ {
			if h.len() > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			// Sequence numbers are unique but not monotonic in push order:
			// the heap orders by the key alone, never by arrival.
			seq++
			e := event{at: Micros(rng.Intn(6)), node: nodes[rng.Intn(len(nodes))],
				class: int8(rng.Intn(2)), seq: seq ^ uint64(rng.Intn(4))<<32 ^ uint64(rng.Intn(2))<<63,
				weak: rng.Intn(4) == 0, src: int32(step)}
			h.push(&e)
			ref = append(ref, e)
			peak = max(peak, h.len())
		}
		if len(h.slab) != peak {
			t.Fatalf("trial %d: slab has %d slots for at most %d pending events", trial, len(h.slab), peak)
		}
		assertHeapZeroed(t, h)
		for h.len() > 0 {
			pop()
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: heap empty with %d events still in the reference", trial, len(ref))
		}
		assertHeapZeroed(t, h)
	}
}

// TestEventKeyHoldsNoPointer: the heap sifts keys, and a key with a pointer
// in it would bring back the write barrier on every sift step.
func TestEventKeyHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if walk(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	ty := reflect.TypeOf(eventKey{})
	if walk(ty) {
		t.Errorf("eventKey holds a pointer: %v", ty)
	}
	if ty.Size() != 24 {
		t.Errorf("eventKey is %d bytes, want 24", ty.Size())
	}
}
