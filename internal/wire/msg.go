// Kernel-to-kernel message protocol: remote invocation, returns, object and
// thread migration, location management. Every message is genuinely
// serialized to network-format bytes; the byte count drives the Ethernet
// timing model in netsim.

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/dir"
	"repro/internal/oid"
)

// ---------------------------------------------------------------- enc/dec

// Enc is a network-byte-order (big endian) encoder.
type Enc struct{ buf []byte }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the current size.
func (e *Enc) Len() int { return len(e.buf) }

// U8 / U16 / U32 / I32 append fixed-width integers.
func (e *Enc) U8(v byte)    { e.buf = append(e.buf, v) }
func (e *Enc) U16(v uint16) { e.buf = append(e.buf, byte(v>>8), byte(v)) }
func (e *Enc) U32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

func (e *Enc) U64(v uint64) {
	e.U32(uint32(v >> 32))
	e.U32(uint32(v))
}

// Str appends a length-prefixed byte string.
func (e *Enc) Str(s []byte) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Value appends a tagged wire value.
func (e *Enc) Value(v Value) {
	e.U8(byte(v.Kind))
	if v.Kind == WString {
		e.Str(v.Str)
		return
	}
	e.U32(v.Bits)
}

// Values appends a counted list of values.
func (e *Enc) Values(vs []Value) {
	e.U16(uint16(len(vs)))
	for _, v := range vs {
		e.Value(v)
	}
}

// Dec decodes network-byte-order buffers. The first error sticks; check
// Err after decoding. Every list and byte string it returns is carved from
// an arena the decoder owns, so a decoder that is reused (an Inbox's)
// allocates nothing once its arenas have grown to the traffic.
type Dec struct {
	buf    []byte
	off    int
	err    error
	vals   arena[Value]
	strs   arena[byte]
	hints  arena[LocHint]
	slots  arena[DirEntry]
	accs   arena[dir.Accepted]
	ids    arena[uint32]   // a Move's entry and condition queues
	queues arena[[]uint32] // its CondQueues
	frags  arena[Fragment]
	acts   arena[MIActivation]
	moves  arena[*Move] // a MoveGroup's Inner
}

// arena hands out the lists decoded from one buffer as slices of one backing
// array, which the next buffer's lists reuse. The slices have clamped
// capacity, so appending to one cannot clobber another.
type arena[T any] []T

// carve returns a list of n elements (nil for none). When the backing array
// is full a new one replaces it — lists already carved keep the old one —
// of capacity n, or most if the caller knows the buffer's later lists need
// more, and at least twice the old: a reused arena settles at a size that
// holds a whole message.
func (a *arena[T]) carve(n, most int) []T {
	if n == 0 {
		return nil
	}
	if len(*a)+n > cap(*a) {
		*a = make([]T, 0, max(n, most, 2*cap(*a)))
	}
	*a = (*a)[:len(*a)+n]
	return (*a)[len(*a)-n : len(*a) : len(*a)]
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// reset points the decoder at a new buffer. What it returned for the last
// one is dead from here on: the arenas are reused.
func (d *Dec) reset(buf []byte) {
	d.buf, d.off, d.err = buf, 0, nil
	d.vals, d.strs, d.hints, d.slots, d.accs = d.vals[:0], d.strs[:0], d.hints[:0], d.slots[:0], d.accs[:0]
	d.ids, d.queues, d.frags, d.acts, d.moves = d.ids[:0], d.queues[:0], d.frags[:0], d.acts[:0], d.moves[:0]
}

// Err returns the sticky error.
func (d *Dec) Err() error { return d.err }

// ErrTruncated is the error of a read past the end of the buffer. It is a
// fixed value so that take formats nothing and inlines into the fixed-width
// readers; the decode entry adds where the message ran out.
var ErrTruncated = errors.New("wire: truncated message")

func (d *Dec) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		if d.err == nil {
			d.err = ErrTruncated
		}
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 / U16 / U32 / I32 read fixed-width integers.
func (d *Dec) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *Dec) U16() uint16 {
	if b := d.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}
func (d *Dec) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}
func (d *Dec) I32() int32 { return int32(d.U32()) }

func (d *Dec) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// strRef reads a length-prefixed byte string in place: the result aliases
// the buffer being decoded.
func (d *Dec) strRef() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > uint32(len(d.buf)-d.off) {
		d.err = fmt.Errorf("wire: string length %d exceeds message", n)
		return nil
	}
	return d.take(int(n))
}

// Str reads a length-prefixed byte string into the decoder's string arena
// (nil for an empty string). A new arena is sized by what is left of the
// buffer, which bounds every string still to come, so one buffer's strings
// cost at most one allocation together.
func (d *Dec) Str() []byte {
	b := d.strRef()
	s := d.strs.carve(len(b), len(b)+len(d.buf)-d.off)
	copy(s, b)
	return s
}

// str reads a length-prefixed string into *s, keeping the string already
// there when it has the same bytes: a reused payload whose operation name
// repeats costs no allocation.
func (d *Dec) str(s *string) {
	if b := d.strRef(); string(b) != *s {
		*s = string(b)
	}
}

// Value reads a tagged wire value.
func (d *Dec) Value() Value {
	k := WKind(d.U8())
	if d.err != nil {
		return Value{}
	}
	if k > WRaw {
		d.err = fmt.Errorf("wire: bad value kind %d", k)
		return Value{}
	}
	if k == WString {
		return Value{Kind: k, Str: d.Str()}
	}
	return Value{Kind: k, Bits: d.U32()}
}

// Count reads a U16 element count and rejects it when fewer than
// count*minElemBytes bytes remain: a corrupt count field cannot force large
// allocations or long decode loops over a short buffer.
func (d *Dec) Count(minElemBytes int) int {
	n := int(d.U16())
	if d.err != nil {
		return 0
	}
	if n*minElemBytes > len(d.buf)-d.off {
		d.err = fmt.Errorf("wire: counted list of %d elements exceeds message", n)
		return 0
	}
	return n
}

// Tail reports how many elemBytes-sized entries fill the rest of the
// message, for lists that ride uncounted as a message's tail. A remainder
// that is not a whole number of entries is a decode error, which bounds the
// list by the buffer the way Count bounds a counted one.
func (d *Dec) Tail(elemBytes int) int {
	if d.err != nil {
		return 0
	}
	rest := len(d.buf) - d.off
	if rest%elemBytes != 0 {
		d.err = fmt.Errorf("wire: ragged tail: %d bytes left for %d-byte entries", rest, elemBytes)
		return 0
	}
	return rest / elemBytes
}

// Minimum encoded sizes of counted-list elements (for Count).
const (
	minValueBytes    = 5  // kind byte + 4 bytes of bits or length
	minHintBytes     = 8  // OID + node
	minFragmentBytes = 18 // fixed Fragment header
	minActBytes      = 12 // fixed MIActivation header
	minMoveBytes     = 32 // fixed Move header (all counts empty)
)

// Values reads a counted list of values (nil for an empty list, matching
// the zero value of the encoding side). All lists decoded from one buffer
// share the value arena — a Move's Data, Vars and Temps cost one allocation
// together instead of one each — so a new arena is sized for every list
// still to come: remaining bytes bound the total value count (Count enforces
// the same bound per list), and the n*4+8 cap keeps a short list with a long
// string tail from over-allocating.
func (d *Dec) Values() []Value {
	n := d.Count(minValueBytes)
	vs := d.vals.carve(n, min((len(d.buf)-d.off)/minValueBytes, n*4+8))
	for i := range vs {
		vs[i] = d.Value()
	}
	if d.err != nil {
		return nil
	}
	return vs
}

// ---------------------------------------------------------------- codec

// codec walks a payload's field list in one direction: with e set it appends
// each field to e, otherwise it reads each field from d. A message kind
// states its wire layout once, as the sequence of codec calls in its fields
// method; encoding (Msg.MarshalTo), decoding into a fresh value (Unmarshal)
// and decoding into a receiver's Inbox all run that one description.
type codec struct {
	e *Enc
	d *Dec
}

// code is the codec's one branch on direction for the kinds of field Enc and
// Dec already know.
func code[T any](c *codec, v *T, enc func(*Enc, T), dec func(*Dec) T) {
	if c.e != nil {
		enc(c.e, *v)
	} else {
		*v = dec(c.d)
	}
}

func (c *codec) u8(v *byte)        { code(c, v, (*Enc).U8, (*Dec).U8) }
func (c *codec) u16(v *uint16)     { code(c, v, (*Enc).U16, (*Dec).U16) }
func (c *codec) u32(v *uint32)     { code(c, v, (*Enc).U32, (*Dec).U32) }
func (c *codec) i32(v *int32)      { code(c, v, (*Enc).I32, (*Dec).I32) }
func (c *codec) u64(v *uint64)     { code(c, v, (*Enc).U64, (*Dec).U64) }
func (c *codec) value(v *Value)    { code(c, v, (*Enc).Value, (*Dec).Value) }
func (c *codec) values(v *[]Value) { code(c, v, (*Enc).Values, (*Dec).Values) }
func (c *codec) oid(v *oid.OID)    { c.u32((*uint32)(v)) }

func (c *codec) bool(v *bool) {
	switch {
	case c.e == nil:
		*v = c.d.U8() != 0
	case *v:
		c.e.U8(1)
	default:
		c.e.U8(0)
	}
}

func (c *codec) str(v *string) {
	if c.e != nil {
		c.e.U32(uint32(len(*v)))
		c.e.buf = append(c.e.buf, *v...)
	} else {
		c.d.str(v)
	}
}

// flags is three bools packed into one byte, lowest bit first.
func (c *codec) flags(b0, b1, b2 *bool) {
	if c.e == nil {
		f := c.d.U8()
		*b0, *b1, *b2 = f&1 != 0, f&2 != 0, f&4 != 0
		return
	}
	var f byte
	for i, b := range [...]*bool{b0, b1, b2} {
		if *b {
			f |= 1 << i
		}
	}
	c.e.U8(f)
}

// count codes the length of a counted list: it writes n, or reads the length
// of a list whose elements take at least minBytes each (see Dec.Count).
func (c *codec) count(n, minBytes int) int {
	if c.e != nil {
		c.e.U16(uint16(n))
		return n
	}
	return c.d.Count(minBytes)
}

// fragIDs is a counted list of fragment ids (a monitor queue of a Move).
func (c *codec) fragIDs(v *[]uint32) {
	n := c.count(len(*v), 4)
	if c.e == nil {
		*v = c.d.ids.carve(n, n)
	}
	for i := range *v {
		c.u32(&(*v)[i])
	}
}

// hints is a counted list of location hints.
func (c *codec) hints(v *[]LocHint) {
	n := c.count(len(*v), minHintBytes)
	if c.e == nil {
		*v = c.d.hints.carve(n, n)
	}
	for i := range *v {
		c.oid(&(*v)[i].OID)
		c.i32(&(*v)[i].Node)
	}
}

func (c *codec) slot(v *dir.Slot) {
	c.oid(&v.OID)
	c.u32(&v.Epoch)
}

// slots is the slot list of a decree message, the one variable shape among
// the fixed-layout kinds: it rides as the tail of the message, entry after
// entry until the payload ends, no count — so a decree over one slot costs
// exactly its fixed fields. homes says whether each entry carries its Node.
func (c *codec) slots(v *[]DirEntry, homes bool) {
	if c.e == nil {
		size := dirSlotBytes
		if homes {
			size = dirEntryBytes
		}
		n := c.d.Tail(size)
		*v = c.d.slots.carve(n, n)
	}
	for i := range *v {
		s := &(*v)[i]
		c.slot(&s.Slot)
		if homes {
			c.i32(&s.Node)
		} else if c.e == nil {
			s.Node = 0
		}
	}
}

// accepted is a promise's per-slot accepted state, a tail like slots.
func (c *codec) accepted(v *[]dir.Accepted) {
	if c.e == nil {
		n := c.d.Tail(dirAccBytes)
		*v = c.d.accs.carve(n, n)
	}
	for i := range *v {
		c.u64(&(*v)[i].Ballot)
		c.i32(&(*v)[i].Node)
	}
}

// ---------------------------------------------------------------- payloads

// MsgKind identifies a protocol message.
type MsgKind byte

// Protocol messages.
const (
	MInvoke    MsgKind = iota + 1 // start a remote invocation
	MReturn                       // deliver an invocation result
	MMoveReq                      // ask the holder of an object to move it
	MMove                         // the object (and thread fragments) itself
	MLocate                       // where is OID?
	_                             // 6: retired (LocateReply, never sent); later kinds keep their numbers
	MUpdateLoc                    // forwarding hint: OID now lives at node
	MUnfixReq                     // unfix/refix control for a remote object
	MMoveAck                      // destination's install ack for a Move (2PC)
	MMoveGroup                    // batched cohort move: several Moves in one frame
	// Directory protocol (emdir): one Paxos instance per (oid, epoch)
	// move-commit slot, plus the replicated lookup service. A decree message
	// carries a list of slots sharing one ballot — one slot for a single
	// move, a MoveGroup cohort's slots otherwise. New kinds append here so
	// older captures stay decodable.
	MDirPrepare     // proposer → replica: prepare(ballot, slots)
	MDirPromise     // replica → proposer: promise or nack
	MDirAccept      // proposer → replica: accept(ballot, slots with homes)
	MDirAccepted    // replica → proposer: accepted or nack
	MDirLearn       // proposer → replica: decree chosen, learn records
	MDirLookup      // client → replica: where does OID live?
	MDirLookupReply // replica → client: record (or miss)
)

// kindInfo is what the codec knows of a message kind besides its field list.
type kindInfo struct {
	name  string
	fresh func() Payload // a zero payload of the kind
}

func kind[T any, P interface {
	*T
	Payload
}](name string) kindInfo {
	return kindInfo{name, func() Payload { return P(new(T)) }}
}

var kinds = [...]kindInfo{
	MInvoke:         kind[Invoke]("invoke"),
	MReturn:         kind[Return]("return"),
	MMoveReq:        kind[MoveReq]("movereq"),
	MMove:           kind[Move]("move"),
	MLocate:         kind[Locate]("locate"),
	MUpdateLoc:      kind[UpdateLoc]("updateloc"),
	MUnfixReq:       kind[UnfixReq]("unfixreq"),
	MMoveAck:        kind[MoveAck]("moveack"),
	MMoveGroup:      kind[MoveGroup]("movegroup"),
	MDirPrepare:     kind[DirPrepare]("dirprepare"),
	MDirPromise:     kind[DirPromise]("dirpromise"),
	MDirAccept:      kind[DirAccept]("diraccept"),
	MDirAccepted:    kind[DirAccepted]("diraccepted"),
	MDirLearn:       kind[DirLearn]("dirlearn"),
	MDirLookup:      kind[DirLookup]("dirlookup"),
	MDirLookupReply: kind[DirLookupReply]("dirlookupreply"),
}

// known reports whether k names a message kind.
func (k MsgKind) known() bool { return int(k) < len(kinds) && kinds[k].fresh != nil }

func (k MsgKind) String() string {
	if k.known() {
		return kinds[k].name
	}
	return fmt.Sprintf("msg(%d)", byte(k))
}

// Payload is a message body: one of the sixteen kinds below, each of which
// states its wire layout in its fields method. Nothing on a message's path
// calls a method through this interface — KindOf and the codec switch on the
// concrete type — so a payload literal handed to a sender never escapes to
// the heap on that account.
type Payload interface {
	fields(c *codec)
}

// KindOf returns p's message kind (0 for nil).
func KindOf(p Payload) MsgKind {
	switch p.(type) {
	case *Invoke:
		return MInvoke
	case *Return:
		return MReturn
	case *MoveReq:
		return MMoveReq
	case *Move:
		return MMove
	case *Locate:
		return MLocate
	case *UpdateLoc:
		return MUpdateLoc
	case *UnfixReq:
		return MUnfixReq
	case *MoveAck:
		return MMoveAck
	case *MoveGroup:
		return MMoveGroup
	case *DirPrepare:
		return MDirPrepare
	case *DirPromise:
		return MDirPromise
	case *DirAccept:
		return MDirAccept
	case *DirAccepted:
		return MDirAccepted
	case *DirLearn:
		return MDirLearn
	case *DirLookup:
		return MDirLookup
	case *DirLookupReply:
		return MDirLookupReply
	}
	return 0
}

// payload runs p's field list through c, dispatching on the concrete type so
// that neither p nor the codec escapes.
func (c *codec) payload(p Payload) {
	switch p := p.(type) {
	case *Invoke:
		p.fields(c)
	case *Return:
		p.fields(c)
	case *MoveReq:
		p.fields(c)
	case *Move:
		p.fields(c)
	case *Locate:
		p.fields(c)
	case *UpdateLoc:
		p.fields(c)
	case *UnfixReq:
		p.fields(c)
	case *MoveAck:
		p.fields(c)
	case *MoveGroup:
		p.fields(c)
	case *DirPrepare:
		p.fields(c)
	case *DirPromise:
		p.fields(c)
	case *DirAccept:
		p.fields(c)
	case *DirAccepted:
		p.fields(c)
	case *DirLearn:
		p.fields(c)
	case *DirLookup:
		p.fields(c)
	case *DirLookupReply:
		p.fields(c)
	}
}

// Msg is one kernel-to-kernel message.
type Msg struct {
	Src, Dst int32
	Seq      uint32
	Payload  Payload
}

// MarshalTo serializes the message into e (resetting it first) and
// returns the encoded bytes. The bytes alias e's buffer: they are valid
// only until e is next used or Released. Callers that hand the bytes to
// a consumer that copies them (netsim.Network.Send does) avoid any
// allocation.
func (m *Msg) MarshalTo(e *Enc) []byte {
	e.buf = e.buf[:0]
	e.U8(byte(KindOf(m.Payload)))
	e.I32(m.Src)
	e.I32(m.Dst)
	e.U32(m.Seq)
	c := codec{e: e}
	c.payload(m.Payload)
	return e.Bytes()
}

// Marshal serializes the message to wire bytes the caller owns.
func (m *Msg) Marshal() []byte {
	e := GetEnc(256)
	b := m.MarshalTo(e)
	out := make([]byte, len(b))
	copy(out, b)
	e.Release()
	return out
}

// decode is the one decode entry: it parses buf into m. The payload is
// reuse's value of the message's kind (made on first use), or a fresh one
// when reuse is nil. A message must fill its buffer exactly.
func (d *Dec) decode(buf []byte, m *Msg, reuse *[len(kinds)]Payload) error {
	d.reset(buf)
	k := MsgKind(d.U8())
	m.Src, m.Dst, m.Seq = d.I32(), d.I32(), d.U32()
	switch {
	case !k.known():
		return fmt.Errorf("wire: unknown message kind %d", k)
	case reuse == nil:
		m.Payload = kinds[k].fresh()
	default:
		if reuse[k] == nil {
			reuse[k] = kinds[k].fresh()
		}
		m.Payload = reuse[k]
	}
	c := codec{d: d}
	c.payload(m.Payload)
	switch {
	case d.err == ErrTruncated:
		d.err = fmt.Errorf("%w: %v message of %d bytes ran out at offset %d", d.err, k, len(buf), d.off)
	case d.err == nil && d.off != len(buf):
		d.err = fmt.Errorf("wire: %d trailing bytes after a %v message", len(buf)-d.off, k)
	}
	return d.err
}

// Unmarshal parses a message into values the caller owns.
func Unmarshal(buf []byte) (*Msg, error) {
	var d Dec
	m := &Msg{}
	if err := d.decode(buf, m, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// Invoke asks the destination to run an operation on a resident object on
// behalf of caller fragment (Src, CallerFrag).
type Invoke struct {
	Target oid.OID
	OpName string
	// Origin is the node hosting CallerFrag. It survives forwarding along
	// stale location chains (Msg.Src becomes the forwarder), so the Return
	// finds its way home and converters know which machine produced the
	// argument values.
	Origin     int32
	CallerFrag uint32
	Args       []Value
	// Hints carries location hints for argument references.
	Hints []LocHint
}

// LocHint tells the receiver where a referenced object was last known to
// live, so it can build a proxy without a broadcast.
type LocHint struct {
	OID  oid.OID
	Node int32
}

func (p *Invoke) fields(c *codec) {
	c.oid(&p.Target)
	c.str(&p.OpName)
	c.i32(&p.Origin)
	c.u32(&p.CallerFrag)
	c.values(&p.Args)
	c.hints(&p.Hints)
}

// Clone returns a copy of p that shares no storage with it: what a handler
// keeps of an Invoke that arrived in an Inbox.
func (p *Invoke) Clone() *Invoke {
	q := *p
	q.Args = slices.Clone(p.Args)
	for i := range q.Args {
		q.Args[i].Str = slices.Clone(q.Args[i].Str)
	}
	q.Hints = slices.Clone(p.Hints)
	return &q
}

// Return delivers the result of a remote invocation to the caller fragment.
type Return struct {
	// Origin is the node that produced the result (for format decisions on
	// raw fast-path values when the Return is forwarded to a migrated
	// caller).
	Origin     int32
	CallerFrag uint32
	Ok         bool
	Result     Value
	FaultMsg   string
	Hints      []LocHint
}

func (p *Return) fields(c *codec) {
	c.i32(&p.Origin)
	c.u32(&p.CallerFrag)
	c.bool(&p.Ok)
	c.value(&p.Result)
	c.str(&p.FaultMsg)
	c.hints(&p.Hints)
}

// MoveReq asks whoever holds Target to move it to Dest (issued when a
// `move` statement executes on a node where the object is not resident).
type MoveReq struct {
	Target oid.OID
	Dest   int32
	Fix    bool // also fix the object at Dest
}

func (p *MoveReq) fields(c *codec) {
	c.oid(&p.Target)
	c.i32(&p.Dest)
	c.bool(&p.Fix)
}

// UnfixReq unfixes (or refixes at Dest) a remote object.
type UnfixReq struct {
	Target oid.OID
	Refix  bool
	Dest   int32
}

func (p *UnfixReq) fields(c *codec) {
	c.oid(&p.Target)
	c.bool(&p.Refix)
	c.i32(&p.Dest)
}

// MIActivation is one activation record in machine-independent form: all
// variables in canonical slot order regardless of their register/memory
// homes, the program point as a bus-stop number, and the live temporaries
// (§3.5: "the new activation record format stored all local variables in
// the activation record rather than in registers").
type MIActivation struct {
	CodeOID   oid.OID
	FuncIndex uint16
	Stop      uint16 // bus stop; EntryStop for a not-yet-started activation
	Vars      []Value
	Temps     []Value
}

// EntryStop marks an activation created but not yet started (blocked at
// monitor entry).
const EntryStop = 0xffff

func (c *codec) act(a *MIActivation) {
	c.oid(&a.CodeOID)
	c.u16(&a.FuncIndex)
	c.u16(&a.Stop)
	c.values(&a.Vars)
	c.values(&a.Temps)
}

// FragStatus describes how a migrated thread fragment was stopped.
type FragStatus byte

// Fragment statuses.
const (
	FragRunnable     FragStatus = iota // resume at the top activation's stop
	FragWaitCond                       // waiting on condition CondIndex of the moved object
	FragBlockedCall                    // awaiting a Return for PendingSeq
	FragBlockedEntry                   // queued for the moved object's monitor
)

func (s FragStatus) String() string {
	switch s {
	case FragRunnable:
		return "runnable"
	case FragWaitCond:
		return "waitcond"
	case FragBlockedCall:
		return "blockedcall"
	case FragBlockedEntry:
		return "blockedentry"
	}
	return fmt.Sprintf("frag(%d)", byte(s))
}

// Fragment is a contiguous run of activation records of one thread, moved
// because every activation belongs to the migrating object. Activations are
// youngest first. Link points at the stack piece below the oldest
// activation (another node's fragment), or is zero for a thread root.
type Fragment struct {
	FragID    uint32 // new identity, minted by the sender
	LinkNode  int32
	LinkFrag  uint32
	Status    FragStatus
	CondIndex uint16
	Executing bool // this piece carries the thread's active top
	Acts      []MIActivation
}

func (c *codec) frag(f *Fragment) {
	c.u32(&f.FragID)
	c.i32(&f.LinkNode)
	c.u32(&f.LinkFrag)
	c.u8((*byte)(&f.Status))
	c.u16(&f.CondIndex)
	c.bool(&f.Executing)
	n := c.count(len(f.Acts), minActBytes)
	if c.e == nil {
		f.Acts = c.d.acts.carve(n, n)
	}
	for i := range f.Acts {
		c.act(&f.Acts[i])
	}
}

// Move carries one migrating object: its identity and code, its converted
// data area, every thread fragment executing inside it, and the monitor
// state. ArrayElemKind+ArrayLen describe arrays (which have no code
// object); for plain objects ArrayLen is ~0.
type Move struct {
	Object  oid.OID
	CodeOID oid.OID
	// Epoch is the object's move count (a forwarding-address timestamp):
	// location knowledge is only ever updated to a strictly newer epoch,
	// which, with the network's FIFO delivery, makes forwarding chains
	// loop-free.
	Epoch uint32
	Fixed bool
	// Array payloads.
	IsArray       bool
	ArrayElemKind byte
	// Data slots in declaration order (or array elements).
	Data []Value
	// Monitor state: all referenced fragments are in Frags.
	MonLocked  bool
	MonHolder  uint32   // FragID of the lock holder (0 = none)
	EntryQueue []uint32 // FragIDs blocked at monitor entry, FIFO
	CondQueues [][]uint32
	Frags      []Fragment
	Hints      []LocHint
	// SpanID is the sender's migration-span identifier (observability): the
	// destination closes the span it names. Zero means untraced.
	SpanID uint32
}

func (p *Move) fields(c *codec) {
	c.oid(&p.Object)
	c.oid(&p.CodeOID)
	c.u32(&p.Epoch)
	c.flags(&p.Fixed, &p.IsArray, &p.MonLocked)
	c.u8(&p.ArrayElemKind)
	c.values(&p.Data)
	c.u32(&p.MonHolder)
	c.fragIDs(&p.EntryQueue)
	n := c.count(len(p.CondQueues), 2)
	if c.e == nil {
		p.CondQueues = c.d.queues.carve(n, n)
	}
	for i := range p.CondQueues {
		c.fragIDs(&p.CondQueues[i])
	}
	n = c.count(len(p.Frags), minFragmentBytes)
	if c.e == nil {
		p.Frags = c.d.frags.carve(n, n)
	}
	for i := range p.Frags {
		c.frag(&p.Frags[i])
	}
	c.hints(&p.Hints)
	c.u32(&p.SpanID)
}

// Locate asks where an object lives. Nodes that do not hold the object
// forward the request along their forwarding hints; the resident node
// answers the Origin directly (a Return carrying the node number).
type Locate struct {
	Target    oid.OID
	Origin    int32 // node whose fragment awaits the answer
	ReplyFrag uint32
	Hops      uint16 // chase bound against stale cycles
}

func (p *Locate) fields(c *codec) {
	c.oid(&p.Target)
	c.i32(&p.Origin)
	c.u32(&p.ReplyFrag)
	c.u16(&p.Hops)
}

// UpdateLoc is a forwarding hint sent back to a node that used a stale
// location; Epoch timestamps the knowledge so late hints cannot regress it.
type UpdateLoc struct {
	Target oid.OID
	Node   int32
	Epoch  uint32
}

func (p *UpdateLoc) fields(c *codec) {
	c.oid(&p.Target)
	c.i32(&p.Node)
	c.u32(&p.Epoch)
}

// MoveAck is the destination's answer to a Move: the second phase of the
// move commit. Ok means the object was installed (or was already installed
// — duplicate Moves are re-acked) and the source may release it; !Ok
// carries the validation error and the source aborts the move.
type MoveAck struct {
	Object oid.OID
	SpanID uint32 // echoes Move.SpanID, keying the source's pending commit
	Epoch  uint32 // echoes Move.Epoch
	Ok     bool
	Err    string
}

func (p *MoveAck) fields(c *codec) {
	c.oid(&p.Object)
	c.u32(&p.SpanID)
	c.u32(&p.Epoch)
	c.bool(&p.Ok)
	c.str(&p.Err)
}

// MoveGroup carries a whole migration cohort — several Moves bound for one
// destination — in a single protocol message, so the group pays the
// per-frame wire overhead and the per-message protocol-stack charge once.
// Each inner Move keeps its own span and epoch and is installed (and
// MoveAck'd) individually at the destination, so the two-phase commit and
// its exactly-once guarantees are unchanged per object.
type MoveGroup struct {
	Inner []*Move
}

func (p *MoveGroup) fields(c *codec) {
	n := c.count(len(p.Inner), minMoveBytes)
	if c.e == nil {
		p.Inner = c.d.moves.carve(n, n)
	}
	for i := range p.Inner {
		if c.e == nil {
			p.Inner[i] = &Move{}
		}
		p.Inner[i].fields(c)
	}
}

// DirEntry is one slot of a decree message and the home node decreed for
// it (a DirPrepare names slots only and encodes no Node).
type DirEntry struct {
	Slot dir.Slot
	Node int32
}

// Encoded sizes of one list entry, without and with its home node.
const (
	dirSlotBytes  = 8
	dirEntryBytes = 12
	dirAccBytes   = 12 // one dir.Accepted in a promise
)

// DirPrepare opens a retry round of a decree: the proposer (the source node
// of the moves that created the slots) asks a replica of the slots' shared
// shard replica set to promise one ballot for all of them. Slots is in the
// proposal's canonical slot order, here and in DirAccept and DirLearn.
type DirPrepare struct {
	Ballot uint64
	Slots  []DirEntry
}

func (p *DirPrepare) fields(c *codec) {
	c.u64(&p.Ballot)
	c.slots(&p.Slots, false)
}

// DirPromise answers a DirPrepare. Slot echoes the prepare's first slot,
// which keys the proposal at its proposer. Ok means every slot promised;
// !Ok is a nack carrying the highest ballot that blocked one. Acc, the tail
// of the message, is the replica's accepted state per slot, parallel to the
// prepare's list, so the proposer can adopt it slot by slot.
type DirPromise struct {
	Slot     dir.Slot
	Ballot   uint64 // the prepare ballot being answered
	Ok       bool
	Promised uint64
	Acc      []dir.Accepted
}

func (p *DirPromise) fields(c *codec) {
	c.slot(&p.Slot)
	c.u64(&p.Ballot)
	c.bool(&p.Ok)
	c.u64(&p.Promised)
	c.accepted(&p.Acc)
}

// DirAccept asks a replica to accept each slot's decree value (the object's
// new home node) under one ballot. The list rides along so the replica side
// stays stateless between phases.
type DirAccept struct {
	Ballot uint64
	Slots  []DirEntry
}

func (p *DirAccept) fields(c *codec) {
	c.u64(&p.Ballot)
	c.slots(&p.Slots, true)
}

// DirAccepted answers a DirAccept: every slot accepted, or a nack with the
// highest blocking ballot. Slot echoes the accept's first slot.
type DirAccepted struct {
	Slot     dir.Slot
	Ballot   uint64
	Ok       bool
	Promised uint64
}

func (p *DirAccepted) fields(c *codec) {
	c.slot(&p.Slot)
	c.u64(&p.Ballot)
	c.bool(&p.Ok)
	c.u64(&p.Promised)
}

// DirLearn announces a chosen decree to a replica: each entry's object lives
// at its Node as of its slot's epoch. Learns are idempotent (replicas apply
// only strictly newer epochs, entry by entry), so the proposer broadcasts
// them unreliably-at-least-once.
type DirLearn struct {
	Slots []DirEntry
}

func (p *DirLearn) fields(c *codec) { c.slots(&p.Slots, true) }

// DirLookup asks a replica of the target's shard for its ownership record.
// Token correlates the reply with the asker's pending query.
type DirLookup struct {
	Target oid.OID
	Token  uint32
}

func (p *DirLookup) fields(c *codec) {
	c.oid(&p.Target)
	c.u32(&p.Token)
}

// DirLookupReply answers a DirLookup. !Ok means the replica has no record
// (the object never moved, or its decrees have not reached this replica).
// Lease, when nonzero on a hit, grants the asker the right to reuse this
// record without re-querying for that many simulated microseconds (counted
// from receipt); the asker still invalidates early on learned decrees and
// peer suspicion (see kernel dir.go).
type DirLookupReply struct {
	Target oid.OID
	Token  uint32
	Ok     bool
	Node   int32
	Epoch  uint32
	Lease  uint32
}

func (p *DirLookupReply) fields(c *codec) {
	c.oid(&p.Target)
	c.u32(&p.Token)
	c.bool(&p.Ok)
	c.i32(&p.Node)
	c.u32(&p.Epoch)
	c.u32(&p.Lease)
}

// PayloadSize returns the encoded size of p alone (without the Msg
// header), using a pooled encoder. The batched move path uses it to
// attribute each inner object's share of a group frame.
func PayloadSize(p Payload) int {
	e := GetEnc(256)
	e.buf = e.buf[:0]
	c := codec{e: e}
	c.payload(p)
	n := e.Len()
	e.Release()
	return n
}
