package netsim

import (
	"math/rand"
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

// eventKey is an event's identity for comparison (events hold funcs).
type eventKey struct {
	at    Micros
	node  int32
	class int8
	seq   uint64
	weak  bool
}

func keyOf(e event) eventKey { return eventKey{e.at, e.node, e.class, e.seq, e.weak} }

// TestEventHeapPopsInCanonicalOrder: the value heap is the old order. Random
// events — drawn from small ranges so every tie-break level of less is hit —
// are pushed with pops interleaved, and each pop must return exactly the
// minimum, by event.less, of what is then pending (a reference slice kept
// sorted with sort.Slice).
func TestEventHeapPopsInCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		var ref []event
		seq := uint64(0)
		pop := func() {
			sort.Slice(ref, func(i, j int) bool { return ref[i].less(&ref[j]) })
			got, want := keyOf(h.pop()), keyOf(ref[0])
			ref = ref[1:]
			if got != want {
				t.Fatalf("trial %d: popped %+v, reference order says %+v", trial, got, want)
			}
		}
		for step := 0; step < 400; step++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			// Sequence numbers are unique but not monotonic in push order:
			// the parallel engine inserts deliveries stamped at the barrier.
			seq++
			e := event{at: Micros(rng.Intn(6)), node: int32(rng.Intn(4) - 1),
				class: int8(rng.Intn(2)), seq: seq ^ uint64(rng.Intn(4))<<32, weak: rng.Intn(4) == 0}
			h.push(e)
			ref = append(ref, e)
		}
		for len(h) > 0 {
			pop()
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: heap empty with %d events still in the reference", trial, len(ref))
		}
	}
}
