package wire

import (
	"strings"
	"testing"
)

// allocTestMsg mirrors the representative Move message from
// BenchmarkWireMoveRoundtrip: the enhanced system's biggest wire
// structure, with values of every kind.
func allocTestMsg() *Msg {
	return &Msg{Src: 0, Dst: 1, Seq: 42, Payload: &Move{
		Object: 100, CodeOID: 2,
		Data: []Value{IntV(1), RefV(7), StringV([]byte("payload")), RealBitsV(0x40490fdb)},
		Frags: []Fragment{{
			FragID: 9, LinkNode: 0, LinkFrag: 3, Executing: true,
			Acts: []MIActivation{{
				CodeOID: 2, FuncIndex: 1, Stop: 4,
				Vars: []Value{IntV(1), IntV(2), RealBitsV(0x3f800000),
					IntV(4), StringV([]byte("thirteen")), IntV(6), IntV(7),
					RealBitsV(0x41000000), IntV(9), IntV(10), IntV(11),
					IntV(12), IntV(13)},
				Temps: []Value{IntV(5)},
			}},
		}},
	}}
}

// Marshalling into a caller-held Enc must not allocate at all once the
// Enc's buffer has grown to the message size: this is the kernel's send
// path (sendMsg pairs GetEnc with MarshalTo).
func TestMarshalToAllocs(t *testing.T) {
	msg := allocTestMsg()
	e := GetEnc(256)
	defer e.Release()
	msg.MarshalTo(e) // warm: grow the buffer once
	got := testing.AllocsPerRun(100, func() {
		if len(msg.MarshalTo(e)) == 0 {
			t.Fatal("empty marshal")
		}
	})
	if got != 0 {
		t.Errorf("MarshalTo allocates %.1f allocs/run, want 0", got)
	}
}

// Marshal copies the encoding out of a pooled Enc, so its one permitted
// allocation is the returned buffer itself.
func TestMarshalAllocs(t *testing.T) {
	msg := allocTestMsg()
	msg.Marshal() // warm the Enc pool
	got := testing.AllocsPerRun(100, func() {
		if len(msg.Marshal()) == 0 {
			t.Fatal("empty marshal")
		}
	})
	// One alloc for the returned copy; allow one more for a pool miss
	// (sync.Pool may be drained by a concurrent GC).
	if got > 2 {
		t.Errorf("Marshal allocates %.1f allocs/run, want <= 2", got)
	}
}

// Full marshal + unmarshal of the representative Move into values the
// caller owns. Every list of one kind shares an arena, so the decode is
// pinned at the 6 allocations it makes (Msg, payload, value arena, string
// arena, frags, acts) — what the benchmark reports as wire.roundtrip_allocs
// — and the whole roundtrip at 7: Marshal's returned copy on top.
func TestRoundtripAllocs(t *testing.T) {
	msg := allocTestMsg()
	e := GetEnc(256)
	defer e.Release()
	msg.MarshalTo(e) // warm: grow the buffer once
	got := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(msg.MarshalTo(e)); err != nil {
			t.Fatal(err)
		}
	})
	if got != 6 {
		t.Errorf("MarshalTo+Unmarshal allocates %.1f allocs/run, want 6", got)
	}
	got = testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(msg.Marshal()); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun averages: a rare Enc-pool miss does not move it.
	if got != 7 {
		t.Errorf("Marshal+Unmarshal allocates %.1f allocs/run, want 7", got)
	}
}

// The kernel's receive path: an Inbox that has seen a message shape decodes
// it again without allocating — header, payload, every list and string are
// the inbox's own. Only a MoveGroup still allocates, its inner Moves.
func TestInboxDecodeAllocatesNothing(t *testing.T) {
	var in Inbox
	for _, p := range seedPayloads() {
		buf := (&Msg{Src: 0, Dst: 1, Seq: 7, Payload: p}).Marshal()
		want := 0.0
		if g, ok := p.(*MoveGroup); ok {
			want = float64(len(g.Inner))
		}
		decode := func() {
			if _, err := in.Decode(buf); err != nil {
				t.Fatal(err)
			}
		}
		decode() // warm: the kind's value and the arenas it needs
		if got := testing.AllocsPerRun(100, decode); got != want {
			t.Errorf("decoding %v into a warm inbox allocates %.1f allocs/run, want %v", KindOf(p), got, want)
		}
	}
}

// The link envelope's budget: appending a frame into a caller-owned buffer
// and parsing it back allocate nothing (acks are sent this way, and every
// frame received under a chaos plan is parsed); the retained form allocates
// exactly its one exact-size buffer.
func TestLinkFrameAllocs(t *testing.T) {
	f := LinkFrame{Kind: LData, Seq: 77, Inner: allocTestMsg().Marshal()}
	scratch := f.AppendTo(nil)
	got := testing.AllocsPerRun(100, func() {
		scratch = f.AppendTo(scratch[:0])
		if lf, err := ParseLinkFrame(scratch); err != nil || lf.Seq != 77 {
			t.Fatalf("roundtrip: %+v, %v", lf, err)
		}
	})
	if got != 0 {
		t.Errorf("AppendTo+ParseLinkFrame allocates %.1f allocs/run, want 0", got)
	}
	var buf []byte
	got = testing.AllocsPerRun(100, func() { buf = f.Marshal() })
	if got != 1 || cap(buf) != len(buf) {
		t.Errorf("Marshal allocates %.1f allocs/run into cap %d for %d bytes, want 1 exact-size buffer",
			got, cap(buf), len(buf))
	}
}

// A rejected frame costs its error value and no formatting: the kernel
// drops bad frames without ever reading the text.
func TestBadFrameCostsNoFormatting(t *testing.T) {
	bad := LinkFrame{Kind: LData, Seq: 9, Inner: []byte("payload")}.Marshal()
	bad[len(bad)-1] ^= 1
	var err error
	got := testing.AllocsPerRun(100, func() { _, err = ParseLinkFrame(bad) })
	if got > 1 {
		t.Errorf("rejecting a corrupt frame allocates %.1f allocs/run, want <= 1 (the error)", got)
	}
	for _, c := range []struct {
		frame []byte
		want  string
	}{
		{bad[:3], "wire: bad link frame: short frame (3 bytes)"},
		{append([]byte{0x7f}, bad[1:]...), "wire: bad link frame: unknown kind 0x7f"},
		{bad, "wire: bad link frame: crc mismatch (got "},
	} {
		_, err = ParseLinkFrame(c.frame)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("ParseLinkFrame(% x) = %v, want %q...", c.frame, err, c.want)
		}
	}
}
