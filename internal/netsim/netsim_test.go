package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var log []int
	s.At(30, func() { log = append(log, 3) })
	s.At(10, func() { log = append(log, 1) })
	s.At(20, func() { log = append(log, 2) })
	s.At(10, func() { log = append(log, 11) }) // FIFO among equal times
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("order = %v, want %v", log, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("now = %d", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var at Micros
	s.At(5, func() {
		s.At(7, func() { at = s.Now() })
	})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if at != 12 {
		t.Errorf("nested event at %d, want 12", at)
	}
}

func TestRunBudget(t *testing.T) {
	s := NewSim()
	var loop func()
	loop = func() { s.At(1, loop) }
	s.At(0, loop)
	if err := s.Run(50); err == nil {
		t.Fatal("expected budget exhaustion")
	}
}

func TestCPUCharge(t *testing.T) {
	c := &CPU{MHz: 10} // 10 cycles per microsecond
	end := c.Charge(0, 100)
	if end != 10 {
		t.Errorf("100 cycles at 10MHz = %d µs, want 10", end)
	}
	// Work arriving while busy queues behind FreeAt.
	end = c.Charge(5, 100)
	if end != 20 {
		t.Errorf("second charge ends at %d, want 20", end)
	}
	// Idle gap: work starts at the request time.
	end = c.Charge(100, 10)
	if end != 101 {
		t.Errorf("third charge ends at %d, want 101", end)
	}
	if c.Cycles != 210 {
		t.Errorf("cycles = %d", c.Cycles)
	}
}

func TestNetworkDelivery(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s)
	var got []byte
	var from int
	var at Micros
	n.Attach(1, func(src int, p []byte) { got, from, at = p, src, s.Now() })
	payload := make([]byte, 1000)
	payload[0] = 42
	if err := n.Send(0, 1, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if got == nil || got[0] != 42 || from != 0 {
		t.Fatal("payload not delivered")
	}
	// 1046 bytes at 10 Mbit/s = 836.8 µs + 200 µs latency.
	if at < 1000 || at > 1100 {
		t.Errorf("delivered at %d µs", at)
	}
	if n.Frames != 1 || n.PayloadLen != 1000 {
		t.Errorf("counters: frames=%d payload=%d", n.Frames, n.PayloadLen)
	}
}

// TestNetworkSharedMediumSerializes: the medium is first fit. Each case
// sends frames at given instants, each ready once its sender's CPU frees
// (earliest), and pins every delivery instant: a 100 B payload serializes
// in 116 µs, a 10 000 B one in 8 036 µs, and 200 µs of latency follow.
func TestNetworkSharedMediumSerializes(t *testing.T) {
	type send struct {
		at, earliest Micros
		src, size    int
	}
	cases := []struct {
		name  string
		sends []send
		want  []Micros // delivery instant, by sender
	}{
		{"two frames ready at once serialize",
			[]send{{0, 0, 0, 10000}, {0, 0, 1, 10000}},
			[]Micros{8036 + 200, 2*8036 + 200}},
		{"a frame ready first is not queued behind a later slot",
			[]send{{0, 10000, 0, 100}, {1, 1, 1, 100}},
			[]Micros{10000 + 116 + 200, 1 + 116 + 200}},
		{"a gap shorter than the frame goes after the reservation",
			[]send{{0, 1000, 0, 100}, {1, 1, 1, 10000}, {2, 2, 2, 100}},
			[]Micros{1000 + 116 + 200, 1116 + 8036 + 200, 2 + 116 + 200}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim()
			n := NewNetwork(s)
			got := make([]Micros, len(tc.sends))
			n.Attach(3, func(src int, _ []byte) { got[src] = s.Now() })
			for _, sd := range tc.sends {
				s.At(sd.at, func() {
					if err := n.Send(sd.src, 3, make([]byte, sd.size), sd.earliest); err != nil {
						t.Error(err)
					}
				})
			}
			if err := s.Run(100); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("delivered at %v µs, want %v", got, tc.want)
			}
		})
	}
}

// TestArbitrateIsFirstFit checks arbitrate against a reference that keeps
// every reservation of the run and never prunes: a frame starts at the
// earliest instant at or after its send instant and its ready instant whose
// transmission overlaps no reservation. No two reservations may overlap.
func TestArbitrateIsFirstFit(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		n := NewNetwork(NewSim())
		var all []span
		now := Micros(0)
		for f := 0; f < 300; f++ {
			now += Micros(rng.Intn(60))
			earliest := now - Micros(rng.Intn(50))
			if rng.Intn(3) == 0 {
				earliest = now + Micros(rng.Intn(800))
			}
			xmit := Micros(1 + rng.Intn(200))
			want := max(now, earliest)
			for moved := true; moved; {
				moved = false
				for _, r := range all {
					if want < r.end && r.start < want+xmit {
						want, moved = r.end, true
					}
				}
			}
			got := n.arbitrate(now, earliest, xmit, 64, 0) - xmit - n.LatencyMicros
			if got != want {
				t.Fatalf("trial %d frame %d: sent at %d, ready at %d, %d µs long: starts at %d, first fit is %d",
					trial, f, now, earliest, xmit, got, want)
			}
			for _, r := range all {
				if got < r.end && r.start < got+xmit {
					t.Fatalf("trial %d frame %d: [%d,%d) overlaps [%d,%d)", trial, f, got, got+xmit, r.start, r.end)
				}
			}
			all = append(all, span{got, got + xmit})
		}
	}
}

func TestNetworkMinFrame(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s)
	n.Attach(1, func(int, []byte) {})
	if err := n.Send(0, 1, []byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if n.Bytes < 64 {
		t.Errorf("min frame not applied: %d bytes", n.Bytes)
	}
	if err := n.Send(0, 9, []byte{1}, 0); err == nil {
		t.Error("send to unattached node must fail")
	}
}

func TestMachineModels(t *testing.T) {
	models := []MachineModel{SPARCstationSLC, Sun3_100, HP9000_433s, HP9000_385, VAXstation2000}
	for _, m := range models {
		if m.MHz <= 0 || m.Name == "" {
			t.Errorf("bad model %+v", m)
		}
	}
	if HP9000_433s.MHz <= HP9000_385.MHz {
		t.Error("433s should be faster than 385")
	}
	if SPARCstationSLC.MHz <= Sun3_100.MHz {
		t.Error("SLC should be faster than Sun-3/100")
	}
}

// BenchmarkSimStep is the cost of one event through the queue at a fixed
// depth: each op runs the earliest event, which queues its own successor,
// so the queue holds depth events throughout — two node timers for every
// frame delivery, spread over four nodes as a cluster's would be.
// TestRunExactBudget: a run that quiesces in exactly maxEvents events must
// succeed. The pre-fix Run checked the budget before the termination
// condition, so an exact-budget run spuriously reported exhaustion.
func TestRunExactBudget(t *testing.T) {
	s := NewSim()
	for i := 0; i < 5; i++ {
		s.At(Micros(i), func() {})
	}
	if err := s.Run(5); err != nil {
		t.Fatalf("run with exact event budget failed: %v", err)
	}
	// One fewer must still trip the guard.
	s2 := NewSim()
	for i := 0; i < 5; i++ {
		s2.At(Micros(i), func() {})
	}
	if err := s2.Run(4); err == nil {
		t.Fatal("run over budget succeeded")
	}
}

// TestRunClearsAbandonedWeak: weak events left behind at quiesce must be
// dropped from the queue, and nothing the queue ever held may stay pinned
// by its backing array — neither an abandoned closure nor the buffer a
// delivered frame carried.
func TestRunClearsAbandonedWeak(t *testing.T) {
	s := NewSim()
	net := NewNetwork(s)
	net.Attach(0, func(int, []byte) {})
	net.Attach(1, func(int, []byte) {})
	s.At(10, func() {
		for i := 0; i < 4; i++ {
			if err := net.Send(0, 1, []byte{1, 2, 3}, 0); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	var weakRan bool
	s.AtWeak(100_000, func() { weakRan = true })
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if weakRan {
		t.Error("abandoned weak event ran")
	}
	if got := s.PendingEvents(); got != 0 {
		t.Errorf("pending events after quiesce = %d, want 0", got)
	}
	assertHeapZeroed(t, s.queue)

	// drop on its own: an abandoned entry that carries a buffer.
	var h eventHeap
	d := net.delivery(5, 0, 1, make([]byte, 8))
	h.push(&d)
	h.push(&event{at: 7, fn: func() {}, weak: true})
	h.drop()
	if h.len() != 0 {
		t.Errorf("dropped heap holds %d events", h.len())
	}
	assertHeapZeroed(t, h)
}

// assertHeapZeroed checks every slab slot no pending event occupies — the
// free list's and those past the slab's length: popped and dropped events
// must have been cleared.
func assertHeapZeroed(t *testing.T, h eventHeap) {
	t.Helper()
	used := make(map[uint32]bool, h.len())
	for _, k := range h.keys {
		used[k.slot] = true
	}
	if got, want := len(h.free)+h.len(), len(h.slab); got != want {
		t.Errorf("%d free + %d pending slots, slab has %d", len(h.free), h.len(), want)
	}
	for i, e := range h.slab[:cap(h.slab)] {
		if used[uint32(i)] {
			continue
		}
		if e.fn != nil || e.buf != nil || e.h != nil || e.net != nil || identityOf(e) != (identity{}) {
			t.Errorf("vacated slab slot %d is not zero: %+v", i, identityOf(e))
		}
	}
}

func BenchmarkSimStep(b *testing.B) {
	for _, depth := range []int{1, 8, 48} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := NewSim()
			net := NewNetwork(s)
			payload := make([]byte, 32)
			lcg := uint32(1)
			next := func() Micros { // a deterministic delay in [1, 256] µs
				lcg = lcg*1664525 + 1013904223
				return Micros(1 + lcg>>24)
			}
			for node := 0; node < 4; node++ {
				net.Attach(node, func(src int, _ []byte) {
					dst := (src + 1) % 4
					if err := net.Send(src, dst, payload, s.Now()+next()); err != nil {
						b.Fatal(err)
					}
				})
			}
			for i := 0; i < depth; i++ {
				node := i % 4
				if i%3 == 2 {
					if err := net.Send(node, (node+1)%4, payload, 0); err != nil {
						b.Fatal(err)
					}
					continue
				}
				var timer func()
				timer = func() { s.AtNode(node, next(), timer) }
				s.AtNode(node, next(), timer)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			if got := s.PendingEvents(); got != depth {
				b.Fatalf("queue depth %d after the run, want %d", got, depth)
			}
		})
	}
}
