package netsim

import (
	"fmt"
	"strings"
	"testing"
)

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

// TestRunParallelDeliversPendingFrame: a frame sent under the sequential
// clock is a delivery event on the shared queue; sharding the queue onto the
// node runners must carry it over whole, to be delivered by the destination
// runner, not dropped.
func TestRunParallelDeliversPendingFrame(t *testing.T) {
	s := NewSim()
	net := NewNetwork(s)
	var got []byte
	net.Attach(0, func(int, []byte) {})
	net.Attach(1, func(src int, payload []byte) {
		if src != 0 {
			t.Errorf("delivered from node %d, want 0", src)
		}
		got = append(got, payload...)
	})
	if err := net.Send(0, 1, []byte{0xab, 0xcd}, 0); err != nil {
		t.Fatal(err)
	}
	if s.PendingEvents() != 1 {
		t.Fatalf("pending events before the run = %d, want the one delivery", s.PendingEvents())
	}
	if err := s.RunParallel(net, 2, 100); err != nil {
		t.Fatal(err)
	}
	if string(got) != "\xab\xcd" {
		t.Errorf("delivered payload % x, want ab cd", got)
	}
	if s.Events() != 1 || net.Lost != 0 {
		t.Errorf("events %d lost %d, want 1 and 0", s.Events(), net.Lost)
	}
}

// pingPong runs a two-node frame exchange and returns each node's delivery
// log plus the final clock and network counters.
func pingPong(t *testing.T, parallel bool, rounds int) ([]string, []string, Micros, Counters) {
	t.Helper()
	s := NewSim()
	net := NewNetwork(s)
	logs := make([][]string, 2)
	var handler func(me int) Handler
	handler = func(me int) Handler {
		return func(src int, payload []byte) {
			logs[me] = append(logs[me], fmt.Sprintf("t=%d src=%d n=%d", s.NodeSched(me).Now(), src, payload[0]))
			if payload[0] < byte(rounds) {
				if err := net.Send(me, src, []byte{payload[0] + 1}, s.NodeSched(me).Now()); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}
	}
	net.Attach(0, handler(0))
	net.Attach(1, handler(1))
	s.AtNode(0, 0, func() {
		if err := net.Send(0, 1, []byte{1}, 0); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	var err error
	if parallel {
		err = s.RunParallel(net, 2, 100000)
	} else {
		err = s.Run(100000)
	}
	if err != nil {
		t.Fatal(err)
	}
	return logs[0], logs[1], s.Now(), net.Counters()
}

// TestRunParallelMatchesRun: the parallel engine's per-node delivery
// timelines, final clock and traffic counters equal the sequential
// reference's.
func TestRunParallelMatchesRun(t *testing.T) {
	s0, s1, now, c := pingPong(t, false, 20)
	p0, p1, pnow, pc := pingPong(t, true, 20)
	if strings.Join(s0, "\n") != strings.Join(p0, "\n") {
		t.Errorf("node 0 timelines differ:\nseq %v\npar %v", s0, p0)
	}
	if strings.Join(s1, "\n") != strings.Join(p1, "\n") {
		t.Errorf("node 1 timelines differ:\nseq %v\npar %v", s1, p1)
	}
	if now != pnow {
		t.Errorf("final clock: %d (seq) vs %d (par)", now, pnow)
	}
	if c != pc {
		t.Errorf("counters: %+v (seq) vs %+v (par)", c, pc)
	}
	if len(s0) == 0 || len(s1) == 0 {
		t.Error("ping-pong delivered nothing; comparison is vacuous")
	}
}

// TestRunParallelRejectsNodelessEvents: events scheduled with the node-less
// At have no home queue; the parallel engine must refuse, not guess.
func TestRunParallelRejectsNodelessEvents(t *testing.T) {
	s := NewSim()
	net := NewNetwork(s)
	net.Attach(0, func(int, []byte) {})
	s.At(5, func() {})
	if err := s.RunParallel(net, 1, 100); err == nil {
		t.Fatal("parallel run accepted a node-less pending event")
	}
}

// TestRunParallelBudget: a livelocked run must trip the event budget at a
// window barrier rather than spin forever.
func TestRunParallelBudget(t *testing.T) {
	s := NewSim()
	net := NewNetwork(s)
	net.Attach(0, func(int, []byte) {})
	var tick func()
	tick = func() { s.NodeSched(0).At(1, tick) }
	s.AtNode(0, 0, tick)
	if err := s.RunParallel(net, 1, 50); err == nil {
		t.Fatal("livelocked parallel run did not exhaust its budget")
	}
}

// TestRunParallelValidation: the precondition errors.
func TestRunParallelValidation(t *testing.T) {
	s := NewSim()
	net := NewNetwork(s)
	if err := s.RunParallel(net, 0, 10); err == nil {
		t.Error("accepted zero nodes")
	}
	net.LatencyMicros = 0
	if err := s.RunParallel(net, 1, 10); err == nil {
		t.Error("accepted zero lookahead")
	}
	net.LatencyMicros = 200
	other := NewNetwork(NewSim())
	if err := s.RunParallel(other, 1, 10); err == nil {
		t.Error("accepted a foreign network")
	}
}
