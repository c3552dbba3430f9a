package commit

import (
	"math/rand"
	"slices"
	"testing"
)

// harness feeds one cohort's moves to a Machine and carries out its
// decisions the way the kernel does: a Propose list becomes a pending
// decree, a commit or abort closes the move and replays what parked on it.
// It checks every decision against what the inputs so far allow.
type harness struct {
	t              *testing.T
	m              Machine[int]
	moves          []*Move[int]
	decree, cohort bool // decrees on; the members share one decree batch

	resolved map[uint32]Verdict // a span's Commit or Abort
	left     map[uint32]bool    // the member has been positively acked while live, or resolved
	acked    []uint32           // spans positively acked while live and unresolved, in order
	proposed [][]uint32         // every Propose list, in order
	decrees  [][]*Move[int]     // proposals not yet resolved, oldest first
	parked   map[uint32][]int   // op numbers parked on each span, in arrival order
	ran      []int              // op numbers replayed by the last Close
	ops      int
}

func newHarness(t *testing.T, n int, decree, group bool) *harness {
	h := &harness{t: t, decree: decree, cohort: decree && group && n > 1,
		resolved: map[uint32]Verdict{}, left: map[uint32]bool{}, parked: map[uint32][]int{}}
	for i := range n {
		base := uint32(1000 + 10*i)
		h.moves = append(h.moves, &Move[int]{Span: uint32(100 + i), Dest: 1, Seq: 7,
			Held: []uint32{base, base + 1}, Pieces: []uint32{base + 5}, Data: i})
	}
	h.m.Begin(h.moves, decree, group)
	return h
}

// decide carries out d, the decision an input about span took, checking it.
func (h *harness) decide(span uint32, d Decision[int], what string) {
	t := h.t
	if len(d.Propose) > 0 {
		list := slices.Clone(d.Propose)
		var spans []uint32
		for _, mv := range list {
			spans = append(spans, mv.Span)
		}
		h.proposed = append(h.proposed, spans)
		h.decrees = append(h.decrees, list)
	}
	switch d.Verdict {
	case Ignore:
		if d.Move != nil {
			t.Fatalf("%s: Ignore names move %d", what, d.Move.Span)
		}
	case Violation:
		if d.Move != nil || len(d.Propose) > 0 {
			t.Fatalf("%s: a violation came with more: %+v", what, d)
		}
		if h.resolved[span] != Abort {
			t.Fatalf("%s: violation for span %d, which was not aborted", what, span)
		}
	default:
		if d.Move == nil || d.Move.Span != span {
			t.Fatalf("%s: verdict %d names %v, want span %d", what, d.Verdict, d.Move, span)
		}
		if v, ok := h.resolved[span]; ok {
			t.Fatalf("%s: verdict %d for span %d, resolved before (%d)", what, d.Verdict, span, v)
		}
		if d.Verdict == Commit || d.Verdict == Abort {
			h.resolved[span], h.left[span] = d.Verdict, true
			h.ran = h.ran[:0]
			for _, op := range h.m.Close(d.Move) {
				op()
			}
			if want := h.parked[span]; !slices.Equal(h.ran, want) {
				t.Fatalf("%s: span %d replays ops %v, want %v", what, span, h.ran, want)
			}
			delete(h.parked, span)
		}
	}
}

func (h *harness) park(span uint32, viaID uint32) {
	h.ops++
	k := h.ops
	op := func() { h.ran = append(h.ran, k) }
	_, closed := h.resolved[span]
	if viaID != 0 {
		if got := h.m.Park(viaID, op); got == closed {
			h.t.Fatalf("Park(%d) = %v for span %d (resolved %v)", viaID, got, span, closed)
		}
		if closed {
			return
		}
	} else {
		if closed {
			return // the kernel parks only on an object still in transit
		}
		h.moves[span-100].Park(op)
	}
	h.parked[span] = append(h.parked[span], k)
}

// step feeds one input byte: the low three bits choose the input, the
// next two a variant, the top three the member.
func (h *harness) step(b byte) {
	mv := h.moves[int(b>>5)%len(h.moves)]
	span, variant := mv.Span, (b>>3)&3
	switch b & 7 {
	case 0, 1: // a positive ack, perhaps a duplicate, perhaps late
		aborted := h.resolved[span] == Abort
		if h.resolved[span] == 0 && !h.left[span] && h.decree {
			h.acked = append(h.acked, span)
			h.left[span] = true
		}
		d := h.m.Ack(span, true)
		if aborted != (d.Verdict == Violation) || aborted && (d.Move != nil || len(d.Propose) > 0) {
			h.t.Fatalf("positive ack for span %d (aborted %v) decided %+v", span, aborted, d)
		}
		h.decide(span, d, "ack ok")
	case 2:
		h.decide(span, h.m.Ack(span, false), "refusal")
	case 3: // a commit window: rearm, delivered, suspected, down
		d := h.m.Window(mv, variant != 3, variant == 1, variant == 2)
		want := map[byte]Verdict{0: Rearm, 1: Ignore, 2: Abort, 3: Stall}[variant]
		if _, done := h.resolved[span]; done {
			want = Ignore
		}
		if d.Verdict != want {
			h.t.Fatalf("window %d for span %d decided %d, want %d", variant, span, d.Verdict, want)
		}
		h.decide(span, d, "window")
	case 4: // the oldest decree resolves
		if len(h.decrees) > 0 {
			list := h.decrees[0]
			h.decrees = h.decrees[1:]
			for _, m := range list {
				h.decide(m.Span, h.m.Resolve(m), "resolve")
			}
		}
	case 5:
		h.park(span, 0)
	case 6: // park by a held fragment's or a piece's id
		h.park(span, [...]uint32{mv.Held[0], mv.Held[1], mv.Pieces[0], mv.Held[0]}[variant])
	case 7: // an ack for a span no move has
		if d := h.m.Ack(99, variant&1 == 0); d.Verdict != Ignore || len(d.Propose) > 0 {
			h.t.Fatalf("ack for unknown span decided %+v", d)
		}
		if h.m.Park(999, func() {}) {
			h.t.Fatal("Park found a move for an unknown fragment")
		}
	}
}

// finish resolves every decree and aborts every move still live, then
// checks the properties of the whole run.
func (h *harness) finish() {
	t := h.t
	for len(h.decrees) > 0 {
		h.step(4)
	}
	for _, mv := range h.moves {
		h.decide(mv.Span, h.m.Window(mv, true, false, true), "final window")
	}
	for _, mv := range h.moves {
		if _, ok := h.resolved[mv.Span]; !ok {
			t.Fatalf("span %d never resolved", mv.Span)
		}
		if d := h.m.Ack(mv.Span, true); d.Verdict != map[Verdict]Verdict{Commit: Ignore, Abort: Violation}[h.resolved[mv.Span]] {
			t.Fatalf("positive ack after span %d resolved %d decided %+v", mv.Span, h.resolved[mv.Span], d)
		}
	}
	if len(h.parked) > 0 {
		t.Fatalf("ops never replayed: %v", h.parked)
	}
	if len(h.m.pending) > 0 {
		t.Fatalf("%d moves still pending", len(h.m.pending))
	}
	// Proposals: a cohort proposes its positively acked members once, in
	// ack order, and a cohort none of whose members was acked proposes
	// nothing; otherwise each acked move proposes alone, once.
	var want [][]uint32
	switch {
	case !h.decree:
	case h.cohort:
		if len(h.acked) > 0 {
			want = [][]uint32{h.acked}
		}
	default:
		for _, s := range h.acked {
			want = append(want, []uint32{s})
		}
	}
	if !slices.EqualFunc(h.proposed, want, slices.Equal) {
		t.Fatalf("proposals %v, want %v", h.proposed, want)
	}
}

func runCommit(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	h := newHarness(t, 1+int(data[0]%4), data[0]&4 == 0, data[0]&8 == 0)
	for _, b := range data[1:] {
		h.step(b)
	}
	h.finish()
}

// FuzzCommit feeds the machine interleavings of acks, refusals and
// duplicate acks, positive acks after an abort, commit windows in which
// the frame was delivered or the destination is suspected, and decree
// resolutions, over cohorts of one to four members with decrees on and
// off, and checks that each span resolves exactly once with no decision
// after it, that an aborted span's positive ack is only the violation,
// that proposals are exactly the positively acked members, and that
// parked operations come back once each, in arrival order.
func FuzzCommit(f *testing.F) {
	ack := func(i byte) byte { return i << 5 }
	for _, seed := range [][]byte{
		{0x04, ack(0)},            // no decree: the ack commits
		{0x00, ack(0), ack(0), 4}, // a duplicate ack proposes once
		{0x02, ack(0), ack(1) | 2, ack(2), ack(2), 4, 4}, // a cohort of three, one refused
		{0x03, ack(0) | 2, ack(1) | 2, ack(2) | 2, ack(3) | 2},
		{0x00, 3 | 2<<3, ack(0), 5, 6},                                              // aborted by a window, then a late ack
		{0x01, ack(0) | 5, ack(1) | 6 | 2<<3, ack(0), ack(1) | 3 | 1<<3, ack(1), 4}, // parked ops
		{0x01, ack(0) | 3 | 3<<3, ack(1) | 3, ack(0), 7, 4},                         // down, rearm
		{0x0b, ack(2), ack(1), ack(0) | 3 | 2<<3, ack(3), ack(1), 4, ack(2)},        // cohort, no group
	} {
		f.Add(seed)
	}
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		seed := make([]byte, 1+rng.Intn(24))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(runCommit)
}
