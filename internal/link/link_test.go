package link

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// event is one pending happening of the harness: a frame's arrival or a
// timer's expiry.
type event struct {
	at  netsim.Micros
	seq int // scheduling order, for a total order at equal times
	fn  func()
}

type events []event

func (h events) Len() int { return len(h) }
func (h events) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h events) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *events) Push(x any)   { *h = append(*h, x.(event)) }
func (h *events) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// harness runs a set of links over a medium that drops, duplicates,
// corrupts and delays frames (a random delay reorders them), doing what
// each link asks the way the kernel does: send its frames, arm its
// timers, revive a recovered peer's frames, beat its idle peers.
type harness struct {
	t     *testing.T
	rng   *rand.Rand
	now   netsim.Micros
	queue events
	nseq  int
	links []*Link
	// the medium's fault rates
	drop, dup, corrupt float64
	// got[dst][src] are the payloads dst released from src, in order.
	got [][][]string
	// revived counts the frames revived after a peer was heard again.
	revived int
	// armed counts each frame's pending timers; sent holds every frame
	// Send has returned, and reused counts the sends that returned one of
	// them again.
	armed  map[*Frame]int
	sent   map[*Frame]bool
	reused int
}

func newHarness(t *testing.T, seed int64, nodes int, plan *chaos.Plan) *harness {
	h := &harness{t: t, rng: rand.New(rand.NewSource(seed)), got: make([][][]string, nodes),
		armed: map[*Frame]int{}, sent: map[*Frame]bool{}}
	for i := 0; i < nodes; i++ {
		l := New(nodes, plan)
		h.links = append(h.links, &l)
		h.got[i] = make([][]string, nodes)
	}
	return h
}

func (h *harness) at(delay netsim.Micros, fn func()) {
	h.nseq++
	heap.Push(&h.queue, event{at: h.now + delay, seq: h.nseq, fn: fn})
}

// wire puts one copy of frame from src to dst on the medium.
func (h *harness) wire(src, dst int, frame []byte) {
	if h.rng.Float64() < h.drop {
		return
	}
	copies := 1
	if h.rng.Float64() < h.dup {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		buf := append([]byte(nil), frame...)
		if h.rng.Float64() < h.corrupt {
			buf[h.rng.Intn(len(buf))] ^= byte(1 + h.rng.Intn(255))
		}
		h.at(netsim.Micros(500+h.rng.Intn(8000)), func() { h.recv(src, dst, buf) })
	}
}

// send is what the kernel's sendReliable does. A frame Send hands out
// must be in no other unacked slot and have no timer pending.
func (h *harness) send(src, dst int, payload string) {
	f := h.links[src].Send(dst, []byte(payload), "test", h.now)
	if h.armed[f] != 0 {
		h.t.Fatalf("Send returned frame %d.%d with %d timers pending", f.Dst, f.Seq, h.armed[f])
	}
	slots := 0
	for _, p := range h.links[src].peers {
		for _, g := range p.unacked {
			if g == f {
				slots++
			}
		}
	}
	if slots != 1 {
		h.t.Fatalf("Send returned frame %d.%d, found in %d unacked slots, want its own only", f.Dst, f.Seq, slots)
	}
	if h.sent[f] {
		h.reused++
	}
	h.sent[f] = true
	if f.Timer == nil {
		f.Timer = func() {
			h.armed[f]--
			if h.links[src].Timeout(f, true, h.now) == Resend {
				h.transmit(src, f)
			}
		}
	}
	h.transmit(src, f)
}

func (h *harness) transmit(src int, f *Frame) {
	if h.armed[f] != 0 {
		h.t.Fatalf("frame %d.%d armed a second timer", f.Dst, f.Seq)
	}
	h.wire(src, f.Dst, f.Wire)
	h.armed[f]++
	h.at(f.RTO, f.Timer)
}

// recv is what the kernel's deliver does.
func (h *harness) recv(src, dst int, buf []byte) {
	a, err := h.links[dst].Recv(src, buf, h.now)
	if err != nil {
		return // a corrupted frame: retransmission recovers
	}
	if a.Recovered {
		for _, f := range h.links[dst].Revive(h.now) {
			h.revived++
			h.transmit(dst, f)
		}
	}
	if a.Ack != nil {
		h.wire(dst, src, a.Ack)
	}
	if a.Dup && len(a.Release) > 0 {
		h.t.Fatalf("a duplicate released %d payloads", len(a.Release))
	}
	for _, p := range a.Release {
		h.got[dst][src] = append(h.got[dst][src], string(p))
	}
}

// tick is the kernel's heartbeat tick on node n.
func (h *harness) tick(n int, period netsim.Micros) {
	for p := range h.links {
		if p == n {
			continue
		}
		if beat, _ := h.links[n].Tick(p, h.now); beat {
			h.wire(n, p, Heartbeat)
		}
	}
	h.at(period, func() { h.tick(n, period) })
}

// run drains the queue until done holds or the time limit passes.
func (h *harness) run(limit netsim.Micros, done func() bool) {
	for !done() {
		if h.queue.Len() == 0 || h.now > limit {
			h.t.Fatalf("at %d µs, %d events pending: the links never settled", h.now, h.queue.Len())
		}
		e := heap.Pop(&h.queue).(event)
		h.now = e.at
		e.fn()
	}
}

// allAcked reports whether every frame every link has sent is acked.
func (h *harness) allAcked() bool {
	for _, l := range h.links {
		for dst := range l.peers {
			for seq := uint32(1); seq <= l.LastSeq(dst); seq++ {
				if !l.Acked(dst, seq) {
					return false
				}
			}
		}
	}
	return true
}

// count is how many payloads ps holds.
func count(ps [][][]string) int {
	k := 0
	for _, byDst := range ps {
		for _, channel := range byDst {
			k += len(channel)
		}
	}
	return k
}

// Over a medium that drops, duplicates, corrupts and reorders, every
// payload is released exactly once and in order on its channel, and every
// frame ends acked. Heartbeats run under a suspicion timeout short enough
// that loss bursts get peers suspected, so frames stall and revive too.
// Retired frames are reused, never while unacked or with a timer pending.
func TestExactlyOnceInOrder(t *testing.T) {
	const nodes, perChannel = 3, 40
	revived, reused := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		plan := &chaos.Plan{HeartbeatEvery: 5_000, SuspectAfter: 20_000, RTOBase: 4_000, RTOMax: 30_000, MaxRetrans: 3}
		h := newHarness(t, seed, nodes, plan)
		h.drop, h.dup, h.corrupt = 0.1+0.3*h.rng.Float64(), 0.2*h.rng.Float64(), 0.1*h.rng.Float64()
		want := make([][][]string, nodes)
		for dst := range want {
			want[dst] = make([][]string, nodes)
		}
		for src := 0; src < nodes; src++ {
			h.tick(src, plan.HeartbeatPeriod())
			for dst := 0; dst < nodes; dst++ {
				for i := 0; i < perChannel && src != dst; i++ {
					payload := fmt.Sprintf("%d->%d #%d", src, dst, i)
					h.at(netsim.Micros(h.rng.Intn(200_000)), func() {
						want[dst][src] = append(want[dst][src], payload) // in send order
						h.send(src, dst, payload)
					})
				}
			}
		}
		total := nodes * (nodes - 1) * perChannel
		h.run(3_600_000_000, func() bool { return count(want) == total && count(h.got) >= total && h.allAcked() })
		if !reflect.DeepEqual(h.got, want) {
			t.Errorf("seed %d: payloads released out of order or more than once:\n%v\nwant\n%v", seed, h.got, want)
		}
		revived += h.revived
		reused += h.reused
		for _, l := range h.links {
			for _, p := range l.peers {
				if len(p.hold) != 0 || len(p.unacked) != 0 {
					t.Errorf("seed %d: %d payloads still held, %d frames unacked", seed, len(p.hold), len(p.unacked))
				}
			}
		}
	}
	if revived == 0 {
		t.Error("no stalled frame was ever revived: the stall paths went untested")
	}
	if reused == 0 {
		t.Error("no retired frame was ever reused: the free list went untested")
	}
}

// One Frame lives per data frame in flight, so its size is per-frame
// allocation: 80 bytes is a size class, and one word more is the 96-byte
// class (chaos_tour's alloc_bytes_per_op +5.9 % in one measured pair).
func TestFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got != 80 {
		t.Errorf("unsafe.Sizeof(Frame{}) = %d, want 80", got)
	}
}

// fixture is a link of node 0 toward two peers, with one frame sent to
// peer 1 at time 0.
func fixture(plan *chaos.Plan) (*Link, *Frame) {
	l := New(3, plan)
	return &l, l.Send(1, []byte("payload"), "test", 0)
}

// ack is a peer's acknowledgment of frame seq.
func ack(seq uint32) []byte { return wire.LinkFrame{Kind: wire.LAck, Seq: seq}.Marshal() }

func TestTimeoutAcked(t *testing.T) {
	l, f := fixture(nil)
	if _, err := l.Recv(1, ack(f.Seq), 10); err != nil {
		t.Fatal(err)
	}
	if !l.Acked(1, f.Seq) {
		t.Fatal("frame not acked after its ack arrived")
	}
	if v := l.Timeout(f, true, 20_000); v != Done || f.Attempts != 1 {
		t.Errorf("timeout of an acked frame: %v after %d attempts, want Done after 1", v, f.Attempts)
	}
}

func TestTimeoutStallsWhileDown(t *testing.T) {
	l, f := fixture(nil)
	if v := l.Timeout(f, false, 20_000); v != Stall {
		t.Errorf("timeout on a node that is down: %v, want Stall", v)
	}
	if v := l.Timeout(f, true, 40_000); v != Done {
		t.Errorf("second timeout of a stalled frame: %v, want Done", v)
	}
	if got := l.Restart(50_000); len(got) != 1 || got[0] != f || f.Attempts != 2 {
		t.Errorf("restart revived %v (attempts %d), want the frame on its second attempt", got, f.Attempts)
	}
}

func TestTimeoutStallsOutOfRetriesAgainstSuspect(t *testing.T) {
	plan := &chaos.Plan{MaxRetrans: 3}
	l, f := fixture(plan)
	now := netsim.Micros(0)
	for f.Attempts < 3 {
		now += f.RTO
		if v := l.Timeout(f, true, now); v != Resend {
			t.Fatalf("timeout at attempt %d: %v, want Resend", f.Attempts, v)
		}
	}
	// Out of retries, a peer that is not suspected still gets resends.
	if v := l.Timeout(f, true, now); v != Resend || f.Attempts != 4 {
		t.Fatalf("timeout past the retry bound to a live peer: %v, want Resend", v)
	}
	if _, suspect := l.Tick(1, plan.SuspectTimeout()+1); !suspect || !l.Suspected(1) || l.Downs(1) != 1 {
		t.Fatalf("peer 1 silent past the suspicion timeout is not suspected")
	}
	if v := l.Timeout(f, true, now); v != Stall || f.Attempts != 4 {
		t.Errorf("timeout past the retry bound to a suspected peer: %v after %d attempts, want Stall after 4", v, f.Attempts)
	}
	if got := l.Revive(now); len(got) != 0 {
		t.Errorf("revive while the peer is still suspected: %d frames", len(got))
	}
	a, err := l.Recv(1, Heartbeat, now)
	if err != nil || !a.Recovered || l.Suspected(1) {
		t.Fatalf("a heartbeat from the suspected peer: %+v, %v; want it recovered", a, err)
	}
	if got := l.Revive(now); len(got) != 1 || got[0] != f {
		t.Errorf("revive after the peer was heard again: %v, want the stalled frame", got)
	}
}

func TestTimeoutResendsWithCappedBackoff(t *testing.T) {
	l, f := fixture(&chaos.Plan{RTOBase: 10, RTOMax: 50, MaxRetrans: 100})
	var rtos []netsim.Micros
	for now := netsim.Micros(0); len(rtos) < 6; {
		rtos = append(rtos, f.RTO)
		now += f.RTO
		if v := l.Timeout(f, true, now); v != Resend {
			t.Fatalf("timeout %d: %v, want Resend", len(rtos), v)
		}
	}
	if want := []netsim.Micros{10, 20, 40, 50, 50, 50}; !reflect.DeepEqual(rtos, want) {
		t.Errorf("RTOs %v, want %v", rtos, want)
	}
}

// Revive returns stalled frames in (dst, seq) order, whatever order they
// were sent in, and leaves a suspected peer's frames parked.
func TestReviveOrder(t *testing.T) {
	l := New(4, nil)
	var sent []*Frame
	for _, dst := range []int{3, 1, 3, 2, 1, 3} {
		f := l.Send(dst, []byte{byte(dst)}, "test", 0)
		l.Timeout(f, false, 1)
		sent = append(sent, f)
	}
	l.Tick(2, l.plan.SuspectTimeout()+1)
	var order []string
	for _, f := range l.Restart(2) {
		order = append(order, fmt.Sprintf("%d.%d", f.Dst, f.Seq))
	}
	if want := []string{"1.1", "1.2", "3.1", "3.2", "3.3"}; !reflect.DeepEqual(order, want) {
		t.Errorf("revived %v, want %v", order, want)
	}
	if _, err := l.Recv(2, Heartbeat, 3); err != nil {
		t.Fatal(err)
	}
	if got := l.Revive(3); len(got) != 1 || got[0] != sent[3] {
		t.Errorf("revive after peer 2 was heard again: %v, want its one frame", got)
	}
}

// Replace swaps an unacked frame's payload under its sequence number and
// leaves an acked frame alone.
func TestReplace(t *testing.T) {
	l, f := fixture(nil)
	l.Replace(1, f.Seq, []byte("filler"), "moveack")
	lf, err := wire.ParseLinkFrame(f.Wire)
	if err != nil || lf.Kind != wire.LData || lf.Seq != f.Seq || string(lf.Inner) != "filler" || f.Kind != "moveack" {
		t.Fatalf("replaced frame %+v (%v), kind %q", lf, err, f.Kind)
	}
	if _, err := l.Recv(1, ack(f.Seq), 1); err != nil {
		t.Fatal(err)
	}
	before := string(f.Wire)
	l.Replace(1, f.Seq, []byte("late"), "late")
	if string(f.Wire) != before || f.Kind != "moveack" {
		t.Error("Replace rewrote an acked frame")
	}
}

// The timeout that finds a frame acked retires it, and the next Send
// returns that frame as a fresh one: its new seq and payload, one attempt,
// and a Wire equal to the frame marshalled anew.
func TestAckedFrameIsReused(t *testing.T) {
	l, f := fixture(nil)
	f.Timer = func() {}
	if _, err := l.Recv(1, ack(f.Seq), 10); err != nil {
		t.Fatal(err)
	}
	if v := l.Timeout(f, true, 20_000); v != Done {
		t.Fatalf("timeout of an acked frame: %v, want Done", v)
	}
	g := l.Send(1, []byte("next"), "again", 30_000)
	want := wire.LinkFrame{Kind: wire.LData, Seq: 2, Inner: []byte("next")}.Marshal()
	if g != f || g.Dst != 1 || g.Seq != 2 || g.Kind != "again" || g.Attempts != 1 || g.Timer == nil {
		t.Errorf("next send returned %+v, want frame %p reused as seq 2 with its timer", g, f)
	}
	if !reflect.DeepEqual(g.Wire, want) {
		t.Errorf("reused frame's Wire = %x, want %x", g.Wire, want)
	}
	if l.Acked(1, 2) {
		t.Error("the reused frame is acked already")
	}
}

// A frame acked while stalled has no timer left to retire it: it is never
// revived, and Send never hands it out again.
func TestStalledThenAckedFrameIsNotReused(t *testing.T) {
	l, f := fixture(nil)
	if v := l.Timeout(f, false, 20_000); v != Stall {
		t.Fatalf("timeout on a node that is down: %v, want Stall", v)
	}
	if _, err := l.Recv(1, ack(f.Seq), 30_000); err != nil {
		t.Fatal(err)
	}
	if v := l.Timeout(f, true, 40_000); v != Done {
		t.Errorf("timeout of a stalled, acked frame: %v, want Done", v)
	}
	if got := l.Restart(50_000); len(got) != 0 {
		t.Errorf("restart revived %d frames, want none: the only one is acked", len(got))
	}
	for dst := 1; dst <= 2; dst++ {
		if g := l.Send(dst, []byte("next"), "test", 60_000); g == f {
			t.Errorf("send to %d returned the stalled-then-acked frame", dst)
		}
	}
}

// In steady state a frame's life on the sending link — Send, its ack's
// Recv, the Timeout that retires it — allocates nothing.
func TestFrameLifeAllocatesNothing(t *testing.T) {
	l := New(2, nil)
	inner := make([]byte, 48)
	var ackBuf []byte
	now := netsim.Micros(0)
	life := func() {
		f := l.Send(1, inner, "test", now)
		ackBuf = wire.LinkFrame{Kind: wire.LAck, Seq: f.Seq}.AppendTo(ackBuf[:0])
		if _, err := l.Recv(1, ackBuf, now+1); err != nil {
			t.Fatal(err)
		}
		if v := l.Timeout(f, true, now+f.RTO); v != Done {
			t.Fatalf("timeout of an acked frame: %v, want Done", v)
		}
		now += f.RTO
	}
	life() // warm: the free list, the unacked slice, the ack buffer
	if got := testing.AllocsPerRun(200, life); got != 0 {
		t.Errorf("Send → Recv(ack) → Timeout = %v allocs, want 0", got)
	}
}
