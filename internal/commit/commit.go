// Package commit is a node's two-phase move commit under a chaos plan: its
// unresolved moves, what parks on them, aborted spans' tombstones and a
// cohort's decree batching. It is state only, as internal/link is: each
// input returns a Decision, which internal/kernel/twophase.go carries out.
package commit

import "slices"

// Verdict is what an input decides for one move.
type Verdict int

const (
	Ignore    Verdict = iota // nothing: resolved, or waiting for an ack or a decree
	Commit                   // the object lives at the destination now
	Abort                    // roll the move back and requeue it
	Rearm                    // watch another commit window
	Stall                    // the node is down: rearm the window when it restarts
	Violation                // a positive ack for an aborted span: both copies exist
)

// Decision is what one input decides. Propose, carried out first and valid
// until the next input, is the moves whose new homes the directory records.
type Decision[T any] struct {
	Verdict Verdict
	Move    *Move[T]
	Propose []*Move[T]
}

// Move is one move of one object, live from Begin until Close.
type Move[T any] struct {
	Span uint32 // names the move
	Dest int
	Seq  uint32 // the link sequence number of the frame carrying it
	// Held are the fragments the move ships, in the order it took them,
	// and Pieces the remainder pieces its commit creates: what arrives for
	// one of them parks on the move (Machine.Park).
	Held, Pieces []uint32
	Data         T // the kernel's side of the move

	parked   []func()
	cohort   *cohort[T] // whose decrees wait for this member, or nil
	decree   bool       // a positive ack proposes; the decree's resolution commits
	proposed bool       // so a duplicate positive ack must not propose again
	done     bool       // committed or aborted: no decision follows
}

// Park defers op to the move's outcome; Close hands it back.
func (mv *Move[T]) Park(op func()) { mv.parked = append(mv.parked, op) }

// cohort is one MoveGroup's decree batch: its unresolved and acked members.
type cohort[T any] struct {
	left  int
	acked []*Move[T]
}

// Machine is a node's moves by span; its zero value is ready to use.
type Machine[T any] struct {
	pending map[uint32]*Move[T]
	aborted map[uint32]bool
	one     [1]*Move[T] // backs a lone member's Propose
}

// Begin registers the moves of one cohort, sent in one frame. With decree
// a positive ack proposes and only Resolve commits; with group too, a
// cohort of several proposes its acked members once all are resolved.
func (m *Machine[T]) Begin(moves []*Move[T], decree, group bool) {
	if m.pending == nil {
		m.pending, m.aborted = map[uint32]*Move[T]{}, map[uint32]bool{}
	}
	var c *cohort[T]
	if decree && group && len(moves) > 1 {
		c = &cohort[T]{left: len(moves)}
	}
	for _, mv := range moves {
		mv.cohort, mv.decree = c, decree
		m.pending[mv.Span] = mv
	}
}

// live returns span's move until it is resolved.
func (m *Machine[T]) live(span uint32) *Move[T] {
	if mv := m.pending[span]; mv != nil && !mv.done {
		return mv
	}
	return nil
}

// Ack is the destination's MoveAck for span: ok, it installed the move
// (it re-acks a replayed Move); not ok, it refused it.
func (m *Machine[T]) Ack(span uint32, ok bool) Decision[T] {
	mv := m.live(span)
	switch {
	case mv == nil && ok && m.aborted[span]:
		return Decision[T]{Verdict: Violation} // the Move outlived its abort
	case mv == nil || ok && mv.proposed:
		return Decision[T]{}
	case !ok:
		return m.abort(mv)
	case !mv.decree:
		return m.Resolve(mv)
	}
	mv.proposed, m.one[0] = true, mv
	if mv.cohort == nil {
		return Decision[T]{Propose: m.one[:]}
	}
	mv.cohort.acked = append(mv.cohort.acked, mv)
	return Decision[T]{Propose: m.leave(mv)}
}

// Window is the end of one of mv's commit windows: up is whether the node
// runs, acked whether the frame carrying the move is, suspected whether
// its destination is. A delivered move's ack travels the reliable link;
// an undelivered one aborts once its destination is suspected.
func (m *Machine[T]) Window(mv *Move[T], up, acked, suspected bool) Decision[T] {
	switch {
	case m.live(mv.Span) != mv || up && acked:
		return Decision[T]{}
	case !up:
		return Decision[T]{Verdict: Stall, Move: mv}
	case !suspected:
		return Decision[T]{Verdict: Rearm, Move: mv}
	}
	return m.abort(mv)
}

// Resolve is the end of the decree recording mv's new home: chosen or
// degraded, mv commits (the forwarding chase covers a degraded record).
func (m *Machine[T]) Resolve(mv *Move[T]) Decision[T] {
	if m.live(mv.Span) != mv {
		return Decision[T]{}
	}
	mv.done = true
	return Decision[T]{Verdict: Commit, Move: mv}
}

// abort tombstones mv's span; the last of a cohort proposes its acked ones.
func (m *Machine[T]) abort(mv *Move[T]) Decision[T] {
	mv.done, m.aborted[mv.Span] = true, true
	return Decision[T]{Verdict: Abort, Move: mv, Propose: m.leave(mv)}
}

// leave takes mv out of its cohort; the last to leave gets the acked ones.
func (m *Machine[T]) leave(mv *Move[T]) []*Move[T] {
	if c := mv.cohort; c != nil {
		if mv.cohort = nil; c.left == 1 {
			return c.acked
		}
		c.left--
	}
	return nil
}

// Park parks op on the move holding or creating fragment id, if one does.
func (m *Machine[T]) Park(id uint32, op func()) bool {
	for _, mv := range m.pending {
		if slices.Contains(mv.Held, id) || slices.Contains(mv.Pieces, id) {
			mv.Park(op)
			return true
		}
	}
	return false
}

// Close ends mv once its commit or abort is carried out (what arrives
// meanwhile still parks on it) and returns what parked, in arrival order.
func (m *Machine[T]) Close(mv *Move[T]) []func() {
	delete(m.pending, mv.Span)
	parked := mv.parked
	mv.parked = nil
	return parked
}
