package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/dir"
	"repro/internal/oid"
)

func TestEncDecPrimitives(t *testing.T) {
	e := &Enc{}
	e.U8(7)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.I32(-42)
	e.Str([]byte("hello"))
	e.U32(123)
	d := NewDec(e.Bytes())
	if d.U8() != 7 || d.U16() != 0xbeef || d.U32() != 0xdeadbeef || d.I32() != -42 {
		t.Fatal("primitive roundtrip failed")
	}
	if string(d.Str()) != "hello" || d.U32() != 123 {
		t.Fatal("str/oid roundtrip failed")
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestEncBigEndian(t *testing.T) {
	e := &Enc{}
	e.U32(0x11223344)
	want := []byte{0x11, 0x22, 0x33, 0x44}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("network byte order: got % x, want % x", e.Bytes(), want)
	}
}

func TestDecTruncation(t *testing.T) {
	d := NewDec([]byte{1, 2})
	d.U32()
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Oversized string length must not panic.
	e := &Enc{}
	e.U32(1 << 30)
	d = NewDec(e.Bytes())
	d.Str()
	if d.Err() == nil {
		t.Fatal("expected string-length error")
	}
}

func TestValueRoundtrip(t *testing.T) {
	vals := []Value{
		IntV(42), IntV(0xffffffff), RealBitsV(math.Float32bits(3.5)),
		RefV(777), NilV(), StringV([]byte("abc")), StringV(nil), RawV(0x12345678),
	}
	e := &Enc{}
	e.Values(vals)
	d := NewDec(e.Bytes())
	got := d.Values()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d values", len(got))
	}
	for i := range vals {
		if got[i].Kind != vals[i].Kind || got[i].Bits != vals[i].Bits ||
			!bytes.Equal(got[i].Str, vals[i].Str) {
			t.Errorf("value %d: got %+v want %+v", i, got[i], vals[i])
		}
	}
}

// TestCallConverterCounts pins the per-value row: 2 calls per int, 3 per
// real, 2 per ref, 4 bytes a value.
func TestCallConverterCounts(t *testing.T) {
	c := NewConverter(PerValue)
	c.IntToWire(5)
	c.RealToWire(arch.IEEEFloat{}.Enc(1.5), arch.IEEEFloat{})
	c.RefToWire(oid.OID(9))
	want := Stats{Calls: 2 + 3 + 2, Values: 3, Bytes: 12,
		IntCalls: 2, RealCalls: 3, RefCalls: 2, IntVals: 1, RealVals: 1, RefVals: 1}
	if st := c.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	// The paper's observation: 1-2 conversion calls per byte transferred.
	st := c.Stats()
	perByte := float64(st.Calls) / float64(st.Bytes)
	if perByte < 0.5 || perByte > 1.0 {
		t.Errorf("calls per byte = %.2f (value-level); message overhead brings this to the paper's 1-2", perByte)
	}
	// Converting back costs the same again.
	if _, err := c.IntFromWire(IntV(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RealFromWire(RealBitsV(0), arch.IEEEFloat{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RefFromWire(NilV()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Calls != 14 || st.Values != 6 || st.RefCalls != 4 {
		t.Errorf("after the return trip: %+v", st)
	}
}

// TestBatchedConverterCheaper pins the batched row at one call a value of
// every kind.
func TestBatchedConverterCheaper(t *testing.T) {
	slow, fast := NewConverter(PerValue), NewConverter(Batched)
	for i := 0; i < 100; i++ {
		slow.IntToWire(uint32(i))
		fast.IntToWire(uint32(i))
	}
	if fast.Stats().Calls != 100 || slow.Stats().Calls != 200 {
		t.Errorf("calls: slow=%d fast=%d", slow.Stats().Calls, fast.Stats().Calls)
	}
	fast.RealToWire(0, arch.IEEEFloat{})
	fast.RefToWire(oid.OID(3))
	if st := fast.Stats(); st.RealCalls != 1 || st.RefCalls != 1 || st.Calls != 102 {
		t.Errorf("batched real/ref: %+v", st)
	}
	// Same semantic effect as the per-value routines.
	vax := arch.VAXFloat{}
	if a, b := slow.RealToWire(vax.Enc(2.5), vax), fast.RealToWire(vax.Enc(2.5), vax); a.Kind != b.Kind || a.Bits != b.Bits {
		t.Errorf("per-value %+v, batched %+v", a, b)
	}
}

func TestRealConversionAcrossFormats(t *testing.T) {
	// VAX real -> wire -> SPARC real must preserve the value while changing
	// the bits.
	c := NewConverter(PerValue)
	vax, ieee := arch.VAXFloat{}, arch.IEEEFloat{}
	orig := float32(6.25)
	vaxBits := vax.Enc(orig)
	w := c.RealToWire(vaxBits, vax)
	if w.Bits != ieee.Enc(orig) {
		t.Fatalf("wire bits %#x, want IEEE %#x", w.Bits, ieee.Enc(orig))
	}
	sparcBits, err := c.RealFromWire(w, ieee)
	if err != nil || ieee.Dec(sparcBits) != orig {
		t.Fatalf("sparc value %g (err %v)", ieee.Dec(sparcBits), err)
	}
	if sparcBits == vaxBits {
		t.Error("VAX and SPARC bits identical; format conversion is a no-op")
	}
	// And back to a VAX.
	backBits, err := c.RealFromWire(w, vax)
	if err != nil || vax.Dec(backBits) != orig {
		t.Fatalf("vax round trip %g (err %v)", vax.Dec(backBits), err)
	}
}

// TestRawConverterPassesBitsUnchanged pins the raw row: no calls, ints and
// reals as raw words (from any kind on the way back), refs still swizzled.
func TestRawConverterPassesBitsUnchanged(t *testing.T) {
	c := NewConverter(Raw)
	v := c.RealToWire(0xdeadbeef, arch.VAXFloat{})
	if v.Kind != WRaw || v.Bits != 0xdeadbeef {
		t.Fatalf("raw real = %+v", v)
	}
	back, err := c.RealFromWire(v, arch.VAXFloat{})
	if err != nil || back != 0xdeadbeef {
		t.Fatal("raw real roundtrip changed bits")
	}
	if w := c.IntToWire(7); w.Kind != WRaw || w.Bits != 7 {
		t.Errorf("raw int = %+v", w)
	}
	if w, err := c.IntFromWire(RefV(9)); err != nil || w != 9 {
		t.Errorf("raw int from a ref = %d, %v; want its bits", w, err)
	}
	if w, err := c.RealFromWire(IntV(0x40490fdb), arch.VAXFloat{}); err != nil || w != 0x40490fdb {
		t.Errorf("raw real from an int = %#x, %v; want its bits unconverted", w, err)
	}
	// References are still swizzled even on the fast path.
	r := c.RefToWire(oid.OID(5))
	if r.Kind != WRef || r.OID() != 5 {
		t.Errorf("raw ref = %+v", r)
	}
	if _, err := c.RefFromWire(IntV(1)); err == nil {
		t.Error("raw ref from int should fail")
	}
	want := Stats{Values: 7, Bytes: 28, IntVals: 2, RealVals: 3, RefVals: 2}
	if st := c.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// TestConverterKindMismatch: the converting rows take a value of their
// kind or a raw word, nothing else.
func TestConverterKindMismatch(t *testing.T) {
	for _, r := range []Regime{PerValue, Batched} {
		c := NewConverter(r)
		if _, err := c.IntFromWire(RefV(1)); err == nil {
			t.Error("int from ref should fail")
		}
		if _, err := c.RealFromWire(IntV(1), arch.IEEEFloat{}); err == nil {
			t.Error("real from int should fail")
		}
		if _, err := c.RefFromWire(IntV(1)); err == nil {
			t.Error("ref from int should fail")
		}
		if o, err := c.RefFromWire(NilV()); err != nil || o != oid.Nil {
			t.Error("nil ref must decode to the nil OID")
		}
		if w, err := c.IntFromWire(RawV(4)); err != nil || w != 4 {
			t.Errorf("int from raw = %d, %v", w, err)
		}
		if w, err := c.RealFromWire(RawV(0xdeadbeef), arch.VAXFloat{}); err != nil || w != 0xdeadbeef {
			t.Errorf("real from raw = %#x, %v; want the bits kept", w, err)
		}
	}
}

func roundtripMsg(t *testing.T, m *Msg) *Msg {
	t.Helper()
	buf := m.Marshal()
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return got
}

func TestInvokeRoundtrip(t *testing.T) {
	m := &Msg{Src: 1, Dst: 2, Seq: 77, Payload: &Invoke{
		Target: 55, OpName: "inc", CallerFrag: 0x01000009,
		Args:  []Value{IntV(3), StringV([]byte("hi")), RefV(12), NilV()},
		Hints: []LocHint{{OID: 12, Node: 3}},
	}}
	got := roundtripMsg(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("roundtrip:\n%+v\n%+v", m.Payload, got.Payload)
	}
}

func TestReturnRoundtrip(t *testing.T) {
	m := &Msg{Src: 2, Dst: 1, Seq: 78, Payload: &Return{
		CallerFrag: 9, Ok: true, Result: RealBitsV(0x40490fdb),
	}}
	got := roundtripMsg(t, m)
	p := got.Payload.(*Return)
	if !p.Ok || p.Result.Bits != 0x40490fdb || p.CallerFrag != 9 {
		t.Fatalf("return = %+v", p)
	}
	m2 := &Msg{Src: 2, Dst: 1, Seq: 79, Payload: &Return{
		CallerFrag: 9, Ok: false, FaultMsg: "division by zero",
	}}
	p2 := roundtripMsg(t, m2).Payload.(*Return)
	if p2.Ok || p2.FaultMsg != "division by zero" {
		t.Fatalf("fault return = %+v", p2)
	}
}

func TestMoveRoundtrip(t *testing.T) {
	m := &Msg{Src: 0, Dst: 3, Seq: 5, Payload: &Move{
		Object: 100, CodeOID: 2, Fixed: true,
		Data:      []Value{IntV(13), RefV(101), StringV([]byte("name"))},
		MonLocked: true, MonHolder: 7,
		EntryQueue: []uint32{8, 9},
		CondQueues: [][]uint32{{10}, nil},
		Frags: []Fragment{{
			FragID: 7, LinkNode: 0, LinkFrag: 3, Status: FragRunnable, Executing: true,
			Acts: []MIActivation{
				{CodeOID: 2, FuncIndex: 1, Stop: 4,
					Vars:  []Value{IntV(1), RealBitsV(0x3f800000)},
					Temps: []Value{IntV(9)}},
				{CodeOID: 2, FuncIndex: 0, Stop: 2, Vars: []Value{NilV()}},
			},
		}, {
			FragID: 8, LinkNode: 1, LinkFrag: 44, Status: FragBlockedEntry,
			Acts: []MIActivation{{CodeOID: 2, FuncIndex: 1, Stop: EntryStop}},
		}, {
			FragID: 9, LinkNode: 0, LinkFrag: 45, Status: FragBlockedCall, Executing: true,
			Custody: true, WaitNode: 2, WaitObj: 101,
			Acts: []MIActivation{{CodeOID: 2, FuncIndex: 0, Stop: 2}},
		}},
		Hints: []LocHint{{OID: 101, Node: 0}},
	}}
	got := roundtripMsg(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("move roundtrip:\n%+v\n%+v", m.Payload, got.Payload)
	}
}

func TestMoveReqLocateRoundtrips(t *testing.T) {
	for _, p := range []Payload{
		&MoveReq{Target: 9, Dest: 2, Fix: true},
		&UnfixReq{Target: 9, Refix: true, Dest: 1},
		&Locate{Target: 3, ReplyFrag: 12},
		&UpdateLoc{Target: 3, Node: 2},
	} {
		m := &Msg{Src: 1, Dst: 0, Seq: 1, Payload: p}
		got := roundtripMsg(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T roundtrip mismatch", p)
		}
	}
}

func TestDirMessageRoundtrips(t *testing.T) {
	slot := dir.Slot{OID: 9, Epoch: 3}
	for _, p := range []Payload{
		&DirPrepare{Ballot: 0x1_0002_0003, Slots: []DirEntry{{Slot: slot}}},
		&DirPromise{Slot: slot, Ballot: 0x1_0002_0003, Ok: true,
			Promised: 0x1_0002_0003, Acc: []dir.Accepted{{Ballot: 0x10001, Node: 2}}},
		&DirPromise{Slot: slot, Ballot: 0x10001, Ok: false,
			Promised: 0x20001, Acc: []dir.Accepted{{Node: -1}}},
		&DirAccept{Ballot: 0x1_0002_0003, Slots: []DirEntry{{Slot: slot, Node: 2}}},
		&DirAccepted{Slot: slot, Ballot: 0x1_0002_0003, Ok: true,
			Promised: 0x1_0002_0003},
		&DirLearn{Slots: []DirEntry{{Slot: slot, Node: 2}}},
		&DirLookup{Target: 9, Token: 41},
		&DirLookupReply{Target: 9, Token: 41, Ok: true, Node: 2, Epoch: 3},
		&DirLookupReply{Target: 9, Token: 42, Node: -1},
	} {
		m := &Msg{Src: 1, Dst: 0, Seq: 1, Payload: p}
		got := roundtripMsg(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T roundtrip mismatch:\n%+v\n%+v", p, m.Payload, got.Payload)
		}
	}
}

func TestEncDecU64(t *testing.T) {
	var e Enc
	e.U64(0xdead_beef_cafe_f00d)
	if e.Len() != 8 {
		t.Fatalf("U64 encoded %d bytes", e.Len())
	}
	d := Dec{buf: e.Bytes()}
	if v := d.U64(); v != 0xdead_beef_cafe_f00d || d.Err() != nil {
		t.Fatalf("U64 roundtrip = %x err=%v", v, d.Err())
	}
	short := Dec{buf: e.Bytes()[:5]}
	short.U64()
	if short.Err() == nil {
		t.Fatalf("truncated U64 must error")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{0xff, 1, 2, 3}); err == nil {
		t.Error("unknown kind must fail")
	}
	retired := (&Msg{Payload: &Locate{Target: 3}}).Marshal()
	retired[0] = 6 // LocateReply's number, retired unsent
	if _, err := Unmarshal(retired); err == nil {
		t.Error("retired kind 6 must fail")
	}
	if _, err := Unmarshal([]byte{byte(MInvoke), 1}); err == nil {
		t.Error("truncated invoke must fail")
	}
	m := &Msg{Src: 1, Dst: 2, Seq: 3, Payload: &Invoke{Target: 4, OpName: "x"}}
	buf := m.Marshal()
	if _, err := Unmarshal(buf[:len(buf)-3]); err == nil {
		t.Error("truncated tail must fail")
	}
}

func TestQuickValueRoundtrip(t *testing.T) {
	f := func(kind byte, bits uint32, str []byte) bool {
		v := Value{Kind: WKind(kind % 6), Bits: bits}
		if v.Kind == WString {
			v.Bits = 0
			v.Str = str
			if len(v.Str) == 0 {
				v.Str = nil
			}
		}
		e := &Enc{}
		e.Value(v)
		d := NewDec(e.Bytes())
		got := d.Value()
		if d.Err() != nil {
			return false
		}
		if len(got.Str) == 0 {
			got.Str = nil
		}
		return got.Kind == v.Kind && got.Bits == v.Bits && bytes.Equal(got.Str, v.Str)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireSize(t *testing.T) {
	if IntV(1).WireSize() != 5 {
		t.Error("int size")
	}
	if StringV([]byte("abcd")).WireSize() != 9 {
		t.Error("string size")
	}
}

func TestDirGroupMessageRoundtrips(t *testing.T) {
	first := dir.Slot{OID: 9, Epoch: 3}
	slots := []DirEntry{{Slot: first}, {Slot: dir.Slot{OID: 12, Epoch: 1}}}
	homes := []DirEntry{{Slot: first, Node: 2}, {Slot: dir.Slot{OID: 12, Epoch: 1}}}
	for _, p := range []Payload{
		&DirPrepare{Ballot: 0x1_0002_0003, Slots: slots},
		&DirPromise{Slot: first, Ballot: 0x1_0002_0003, Ok: true,
			Promised: 0x1_0002_0003, Acc: []dir.Accepted{{Node: -1}, {Ballot: 0x10001, Node: 2}}},
		&DirPromise{Slot: first, Ballot: 0x10001, Ok: false, Promised: 0x20001},
		&DirAccept{Ballot: 0x1_0002_0003, Slots: homes},
		&DirAccepted{Slot: first, Ballot: 0x1_0002_0003, Ok: true, Promised: 0x1_0002_0003},
		&DirAccepted{Slot: dir.Slot{OID: 8}, Ballot: 0x10001, Ok: false, Promised: 0x30001},
		&DirLearn{Slots: homes},
		&DirPrepare{Ballot: 0x10001}, // empty slot list survives
	} {
		m := &Msg{Src: 1, Dst: 0, Seq: 1, Payload: p}
		got := roundtripMsg(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T roundtrip mismatch:\n%+v\n%+v", p, m.Payload, got.Payload)
		}
	}
}

// TestDirPayloadSizeVector pins the decree payload sizes. The lists ride as
// uncounted tails, so a decree over one slot costs exactly what the
// single-slot messages always did (every simulated time and byte count of a
// directory run depends on it), and each further slot adds one entry.
func TestDirPayloadSizeVector(t *testing.T) {
	nslots := func(n int) (l []DirEntry, acc []dir.Accepted) {
		for i := 0; i < n; i++ {
			l = append(l, DirEntry{Slot: dir.Slot{OID: oid.OID(9 + i), Epoch: 3}, Node: 2})
			acc = append(acc, dir.Accepted{Node: -1})
		}
		return l, acc
	}
	for _, c := range []struct {
		name     string
		msg      func(l []DirEntry, acc []dir.Accepted) Payload
		one, per int
	}{
		{"prepare", func(l []DirEntry, _ []dir.Accepted) Payload { return &DirPrepare{Ballot: 1 << 16, Slots: l} }, 16, 8},
		{"promise", func(l []DirEntry, acc []dir.Accepted) Payload {
			return &DirPromise{Slot: l[0].Slot, Ballot: 1 << 16, Ok: true, Acc: acc}
		}, 37, 12},
		{"accept", func(l []DirEntry, _ []dir.Accepted) Payload { return &DirAccept{Ballot: 1 << 16, Slots: l} }, 20, 12},
		{"accepted", func(l []DirEntry, _ []dir.Accepted) Payload {
			return &DirAccepted{Slot: l[0].Slot, Ballot: 1 << 16, Ok: true}
		}, 25, 0},
		{"learn", func(l []DirEntry, _ []dir.Accepted) Payload { return &DirLearn{Slots: l} }, 12, 12},
	} {
		for _, n := range []int{1, 3} {
			want := c.one + (n-1)*c.per
			if got := PayloadSize(c.msg(nslots(n))); got != want {
				t.Errorf("%s over %d slots encodes to %d bytes, want %d", c.name, n, got, want)
			}
		}
	}
}

// TestDirRaggedTailRejected: a decree list has no count field, so the
// decoder's guard against a corrupt length is that the tail must be a whole
// number of entries — anything else is a decode error, never a panic or a
// half-read entry. A promise tail of whole entries but the wrong count
// decodes; the proposer ignores it (dir.Proposal.OnPromise).
func TestDirRaggedTailRejected(t *testing.T) {
	slot := dir.Slot{OID: 9, Epoch: 3}
	three := []DirEntry{{Slot: slot, Node: 2}, {Slot: dir.Slot{OID: 10, Epoch: 1}, Node: 2},
		{Slot: dir.Slot{OID: 11, Epoch: 1}, Node: 2}}
	for _, c := range []struct {
		p     Payload
		entry int // encoded bytes per tail entry
	}{
		{&DirPrepare{Ballot: 1 << 16, Slots: three}, 8},
		{&DirAccept{Ballot: 1 << 16, Slots: three}, 12},
		{&DirLearn{Slots: three}, 12},
		{&DirPromise{Slot: slot, Ballot: 1 << 16, Ok: true, Acc: make([]dir.Accepted, 3)}, 12},
	} {
		p, entry := c.p, c.entry
		whole := (&Msg{Src: 1, Dst: 0, Seq: 1, Payload: p}).Marshal()
		for cut := 1; cut < entry; cut++ {
			if _, err := Unmarshal(whole[:len(whole)-cut]); err == nil {
				t.Errorf("%T with %d bytes cut off its tail decoded", p, cut)
			}
		}
		short, err := Unmarshal(whole[:len(whole)-entry])
		if err != nil {
			t.Errorf("%T with one whole entry cut off: %v", p, err)
			continue
		}
		if pr, ok := short.Payload.(*DirPromise); ok && len(pr.Acc) != 2 {
			t.Errorf("short promise tail decoded to %d entries, want 2", len(pr.Acc))
		}
	}
}

func TestDirLookupReplyLeaseRoundtrip(t *testing.T) {
	m := &Msg{Src: 1, Dst: 0, Seq: 1, Payload: &DirLookupReply{
		Target: 9, Token: 41, Ok: true, Node: 2, Epoch: 3, Lease: 150_000}}
	p := roundtripMsg(t, m).Payload.(*DirLookupReply)
	if p.Lease != 150_000 || !p.Ok || p.Node != 2 {
		t.Fatalf("lease reply = %+v", p)
	}
	// Lease-free replies stay lease-free.
	m2 := &Msg{Src: 1, Dst: 0, Seq: 2, Payload: &DirLookupReply{Target: 9, Token: 42, Node: -1}}
	if p2 := roundtripMsg(t, m2).Payload.(*DirLookupReply); p2.Lease != 0 {
		t.Fatalf("ghost lease %d", p2.Lease)
	}
}
