// Fuzzing the decode paths: under a chaos plan, frames arrive truncated and
// bit-flipped, so Unmarshal and ParseLinkFrame must reject any byte soup
// with an error — never panic, never over-allocate. The seed corpus covers
// every message kind; `go test -run FuzzMsgDecode` replays it in CI.

package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/dir"
)

// seedPayloads holds at least one payload of every message kind
// (TestSeedCorpusCoversEveryKind), the decree kinds at list lengths 0, 1
// and 3.
func seedPayloads() []Payload {
	slot := dir.Slot{OID: 7, Epoch: 2}
	one := []DirEntry{{Slot: slot, Node: 1}}
	three := []DirEntry{{Slot: slot, Node: 1}, {Slot: dir.Slot{OID: 8, Epoch: 1}, Node: 1},
		{Slot: dir.Slot{OID: 9, Epoch: 5}, Node: 1}}
	return []Payload{
		&Invoke{Target: 7, OpName: "tour", Origin: 1, CallerFrag: 0x01000002,
			Args:  []Value{{Kind: WInt, Bits: 42}, {Kind: WString, Str: []byte("hi")}},
			Hints: []LocHint{{OID: 9, Node: 2}}},
		&Return{Origin: 2, CallerFrag: 0x01000002, Ok: true,
			Result: Value{Kind: WInt, Bits: 1}, Hints: []LocHint{{OID: 9, Node: 0}}},
		&MoveReq{Target: 7, Dest: 3, Fix: true},
		&UnfixReq{Target: 7, Refix: true, Dest: 1},
		&Move{Object: 7, CodeOID: 3, Epoch: 2, MonLocked: true, MonHolder: 5,
			Data:       []Value{{Kind: WInt, Bits: 9}},
			EntryQueue: []uint32{5, 6},
			CondQueues: [][]uint32{nil, {8}},
			Frags: []Fragment{{FragID: 5, LinkNode: -1, Status: FragRunnable,
				Executing: true, Acts: []MIActivation{{CodeOID: 3, FuncIndex: 1,
					Stop: 2, Vars: []Value{{Kind: WInt, Bits: 3}}}}}},
			Hints:  []LocHint{{OID: 4, Node: 1}},
			SpanID: 11},
		&Locate{Target: 7, Origin: 0, ReplyFrag: 1, Hops: 3},
		&UpdateLoc{Target: 7, Node: 2, Epoch: 4},
		&MoveAck{Object: 7, SpanID: 11, Epoch: 2, Ok: false, Err: "bad piece index"},
		&MoveGroup{Inner: []*Move{{Object: 7, CodeOID: 3, Epoch: 2, SpanID: 11},
			{Object: 8, CodeOID: 3, Epoch: 1, Data: []Value{{Kind: WInt, Bits: 9}}, SpanID: 12}}},
		&DirPrepare{Ballot: 2<<16 | 1}, &DirPrepare{Ballot: 2<<16 | 1, Slots: one},
		&DirPrepare{Ballot: 2<<16 | 1, Slots: three},
		&DirPromise{Slot: slot, Ballot: 2<<16 | 1, Promised: 3<<16 | 2},
		&DirPromise{Slot: slot, Ballot: 2<<16 | 1, Ok: true, Acc: []dir.Accepted{{Ballot: 1<<16 | 1, Node: 1}}},
		&DirPromise{Slot: slot, Ballot: 2<<16 | 1, Ok: true, Acc: []dir.Accepted{{Node: -1}, {Ballot: 1<<16 | 1, Node: 1}, {Node: -1}}},
		&DirAccept{Ballot: 1<<16 | 1}, &DirAccept{Ballot: 1<<16 | 1, Slots: one},
		&DirAccept{Ballot: 1<<16 | 1, Slots: three},
		&DirAccepted{Slot: slot, Ballot: 1<<16 | 1, Ok: true},
		&DirLearn{}, &DirLearn{Slots: one}, &DirLearn{Slots: three},
		&DirLookup{Target: 7, Token: 4},
		&DirLookupReply{Target: 7, Token: 4, Ok: true, Node: 1, Epoch: 2, Lease: 500},
	}
}

// seedMsgs returns the seed payloads as marshalled Msgs, plus decree
// messages with malformed tails (ragged accept, learn and prepare lists, a
// promise one entry short of its prepare) and a Locate relabelled with the
// retired kind number 6.
func seedMsgs() [][]byte {
	var out [][]byte
	for i, p := range seedPayloads() {
		m := &Msg{Src: 0, Dst: 1, Seq: uint32(i), Payload: p}
		b := m.Marshal()
		out = append(out, b)
		switch p.(type) {
		case *DirPrepare, *DirAccept, *DirLearn:
			out = append(out, b[:len(b)-5])
		case *DirPromise:
			out = append(out, b[:len(b)-dirAccBytes])
		case *Locate:
			// Kind 6, the retired LocateReply's number: no decoder accepts it.
			retired := append([]byte(nil), b...)
			retired[0] = 6
			out = append(out, retired)
		}
	}
	return out
}

// TestSeedCorpusCoversEveryKind keeps the corpus what its comment says: it
// walks MsgKind from 1 until String() runs out of names and fails on a kind
// with no seed, so a new wire kind cannot ship unfuzzed.
func TestSeedCorpusCoversEveryKind(t *testing.T) {
	seeded := map[MsgKind]bool{}
	for _, p := range seedPayloads() {
		seeded[KindOf(p)] = true
	}
	named := 0
	for k := MsgKind(1); int(k) < len(kinds); k++ {
		if !k.known() {
			continue
		}
		named++
		if !seeded[k] {
			t.Errorf("no fuzz seed for message kind %d (%s)", byte(k), k)
		}
	}
	if len(seeded) != named {
		t.Errorf("%d named kinds but %d seeded: a seed's kind has no name", named, len(seeded))
	}
}

func FuzzMsgDecode(f *testing.F) {
	for _, b := range seedMsgs() {
		f.Add(b)
		// Also seed link-wrapped and lightly mangled variants.
		lf := &LinkFrame{Kind: LData, Seq: 1, Inner: b}
		f.Add(lf.Marshal())
		if len(b) > 6 {
			mut := append([]byte(nil), b...)
			mut[len(mut)/2] ^= 0x40
			f.Add(mut[:len(mut)-3])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{byte(MMove)})
	var in Inbox // shared by every input: what the last one left must not show
	f.Fuzz(func(t *testing.T, data []byte) {
		// Unmarshal must return (msg, nil) or (nil, err) — never panic.
		decodes := func(data []byte) {
			m, err := Unmarshal(data)
			if err != nil {
				return
			}
			// A decoded message re-marshals (canonical bytes may differ from
			// the input: flags re-normalize) to bytes that decode to the same
			// message, whether into fresh values or into a used inbox.
			again, err := Unmarshal(m.Marshal())
			if err != nil || !reflect.DeepEqual(m, again) {
				t.Fatalf("decode(encode(m)) = %+v, %v; want m = %+v", again, err, m)
			}
			if got, err := in.Decode(data); err != nil || !reflect.DeepEqual(m, got) {
				t.Fatalf("inbox decode = %+v, %v; fresh decode = %+v", got, err, m)
			}
		}
		decodes(data)
		// Same for the link envelope; a valid frame's inner bytes go back
		// through the decoder like the kernel's receive path does.
		if lf, err := ParseLinkFrame(data); err == nil {
			decodes(lf.Inner)
		}
	})
}

// TestTrailingBytesRejected: a message fills its buffer exactly. The kinds
// with list tails always read to the end; every other kind must say so when
// bytes are left over.
func TestTrailingBytesRejected(t *testing.T) {
	for _, p := range seedPayloads() {
		buf := append((&Msg{Src: 0, Dst: 1, Seq: 1, Payload: p}).Marshal(), 0xde, 0xad, 0xbe, 0xef)
		if m, err := Unmarshal(buf); err == nil {
			t.Errorf("%v followed by 4 stray bytes decoded to %+v", KindOf(p), m.Payload)
		}
	}
}

// TestInboxReuseLeavesNoTrace: for every ordered pair (A, B) of seed
// payloads, decoding A and then B into one inbox gives exactly what a fresh
// decode of B gives — no list tail, string or flag of A (or of an earlier
// message of B's kind) survives in the reused values and arenas.
func TestInboxReuseLeavesNoTrace(t *testing.T) {
	msgs := seedMsgs()
	var in Inbox
	for _, a := range msgs {
		for _, b := range msgs {
			_, _ = in.Decode(a) // malformed seeds too: a failed decode is also a predecessor
			want, wantErr := Unmarshal(b)
			got, err := in.Decode(b)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("inbox decode of %x: %v; fresh decode: %v", b, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("after %x, inbox decode of %x =\n%+v, fresh decode =\n%+v", a, b, got.Payload, want.Payload)
			}
		}
	}
}

func TestLinkFrameRoundtrip(t *testing.T) {
	inner := seedMsgs()[0]
	for _, kind := range []byte{LData, LAck, LRaw} {
		f := &LinkFrame{Kind: kind, Seq: 0xdeadbeef, Inner: inner}
		if kind != LData {
			f.Inner = nil
		}
		buf := f.Marshal()
		got, err := ParseLinkFrame(buf)
		if err != nil {
			t.Fatalf("kind 0x%02x: %v", kind, err)
		}
		if got.Kind != f.Kind || got.Seq != f.Seq || !bytes.Equal(got.Inner, f.Inner) {
			t.Fatalf("kind 0x%02x: roundtrip mismatch: %+v != %+v", kind, got, f)
		}
	}
}

// The envelope's bytes are fixed: [kind][seq BE][crc BE][inner], CRC-32
// (IEEE) over kind, seq and inner. The vectors were computed outside this
// package's codec (Python's zlib.crc32).
func TestLinkFrameWireFormatVector(t *testing.T) {
	for _, c := range []struct {
		f    LinkFrame
		want string
	}{
		{LinkFrame{Kind: LData, Seq: 0x01020304, Inner: []byte("emerald")}, "d101020304f3f24d3f656d6572616c64"},
		{LinkFrame{Kind: LAck, Seq: 77}, "d20000004d3d7ae609"},
		{LinkFrame{Kind: LRaw}, "d3000000000877f294"},
	} {
		want, _ := hex.DecodeString(c.want)
		if got := c.f.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("Marshal(%+v) = %x, want %x", c.f, got, want)
		}
		if got := c.f.AppendTo([]byte{0xee}); !bytes.Equal(got[1:], want) || got[0] != 0xee {
			t.Errorf("AppendTo(%+v) after one byte = %x, want ee%x", c.f, got, want)
		}
		got, err := ParseLinkFrame(want)
		if err != nil || got.Kind != c.f.Kind || got.Seq != c.f.Seq || !bytes.Equal(got.Inner, c.f.Inner) {
			t.Errorf("ParseLinkFrame(%x) = %+v, %v; want %+v", want, got, err, c.f)
		}
	}
}

func TestLinkFrameRejectsCorruption(t *testing.T) {
	f := &LinkFrame{Kind: LData, Seq: 42, Inner: seedMsgs()[4]}
	buf := f.Marshal()
	for off := 0; off < len(buf); off++ {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0x10
		if _, err := ParseLinkFrame(mut); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
	}
	for cut := 0; cut < linkHeaderBytes; cut++ {
		if _, err := ParseLinkFrame(buf[:cut]); err == nil {
			t.Fatalf("truncated header (%d bytes) accepted", cut)
		}
	}
}

func TestDecCountRejectsOversizedLists(t *testing.T) {
	// A Move whose fragment count claims 0xffff entries in a short buffer
	// must decode to an error, not a 65535-iteration loop or allocation.
	e := &Enc{}
	e.U8(byte(MMove))
	e.I32(0)
	e.I32(1)
	e.U32(0)
	e.U32(7)      // Object
	e.U32(3)      // CodeOID
	e.U32(1)      // Epoch
	e.U8(0)       // flags
	e.U8(0)       // elem kind
	e.U16(0)      // Data
	e.U32(0)      // MonHolder
	e.U16(0)      // EntryQueue
	e.U16(0)      // CondQueues
	e.U16(0xffff) // Frags count: lies
	if _, err := Unmarshal(e.Bytes()); err == nil {
		t.Fatal("oversized fragment count accepted")
	}
	// MoveAck roundtrip sanity while we are here.
	ack := &Msg{Src: 1, Dst: 0, Seq: 9,
		Payload: &MoveAck{Object: 7, SpanID: 3, Epoch: 2, Ok: true}}
	m, err := Unmarshal(ack.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got := m.Payload.(*MoveAck)
	if got.Object != 7 || got.SpanID != 3 || got.Epoch != 2 || !got.Ok || got.Err != "" {
		t.Fatalf("MoveAck roundtrip mismatch: %+v", got)
	}
}
