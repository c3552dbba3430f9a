// Kernel-to-kernel message protocol: remote invocation, returns, object and
// thread migration, location management. Every message is genuinely
// serialized to network-format bytes; the byte count drives the Ethernet
// timing model in netsim.

package wire

import (
	"errors"
	"fmt"

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

// OID appends an object identifier.
func (e *Enc) OID(o oid.OID) { e.U32(uint32(o)) }

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
// Err after decoding.
type Dec struct {
	buf []byte
	off int
	err error
	// vals is the shared backing arena for every Values list decoded from
	// this buffer (see Values).
	vals []Value
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Err returns the sticky error.
func (d *Dec) Err() error { return d.err }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("wire: truncated message at offset %d (+%d > %d)", d.off, n, len(d.buf))
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
	b := d.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func (d *Dec) I32() int32 { return int32(d.U32()) }

func (d *Dec) U64() uint64 {
	hi := d.U32()
	return uint64(hi)<<32 | uint64(d.U32())
}

// Str reads a length-prefixed byte string.
func (d *Dec) Str() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > uint32(len(d.buf)-d.off) {
		d.err = fmt.Errorf("wire: string length %d exceeds message", n)
		return nil
	}
	return append([]byte(nil), d.take(int(n))...)
}

// OID reads an object identifier.
func (d *Dec) OID() oid.OID { return oid.OID(d.U32()) }

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
// the zero value of the encoding side). All lists decoded from one Dec
// share a single backing arena — a Move's Data, Vars and Temps cost one
// allocation together instead of one each. The returned slices have
// clamped capacity, so appending to one cannot clobber another.
func (d *Dec) Values() []Value {
	n := d.Count(minValueBytes)
	if n == 0 {
		return nil
	}
	if d.vals == nil {
		// Size the arena for every list in the message: remaining bytes
		// bound the total value count (Count enforces the same bound per
		// list). The n*4+8 cap keeps a short list with a long string tail
		// from over-allocating.
		c := (len(d.buf) - d.off) / minValueBytes
		if c > n*4+8 {
			c = n*4 + 8
		}
		d.vals = make([]Value, 0, c)
	}
	start := len(d.vals)
	for i := 0; i < n; i++ {
		d.vals = append(d.vals, d.Value())
		if d.err != nil {
			return nil
		}
	}
	return d.vals[start:len(d.vals):len(d.vals)]
}

// ---------------------------------------------------------------- payloads

// MsgKind identifies a protocol message.
type MsgKind byte

// Protocol messages.
const (
	MInvoke      MsgKind = iota + 1 // start a remote invocation
	MReturn                         // deliver an invocation result
	MMoveReq                        // ask the holder of an object to move it
	MMove                           // the object (and thread fragments) itself
	MLocate                         // where is OID?
	MLocateReply                    //
	MUpdateLoc                      // forwarding hint: OID now lives at node
	MUnfixReq                       // unfix/refix control for a remote object
	MMoveAck                        // destination's install ack for a Move (2PC)
	MMoveGroup                      // batched cohort move: several Moves in one frame
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

func (k MsgKind) String() string {
	switch k {
	case MInvoke:
		return "invoke"
	case MReturn:
		return "return"
	case MMoveReq:
		return "movereq"
	case MMove:
		return "move"
	case MLocate:
		return "locate"
	case MLocateReply:
		return "locatereply"
	case MUpdateLoc:
		return "updateloc"
	case MUnfixReq:
		return "unfixreq"
	case MMoveAck:
		return "moveack"
	case MMoveGroup:
		return "movegroup"
	case MDirPrepare:
		return "dirprepare"
	case MDirPromise:
		return "dirpromise"
	case MDirAccept:
		return "diraccept"
	case MDirAccepted:
		return "diraccepted"
	case MDirLearn:
		return "dirlearn"
	case MDirLookup:
		return "dirlookup"
	case MDirLookupReply:
		return "dirlookupreply"
	}
	return fmt.Sprintf("msg(%d)", byte(k))
}

// Payload is a message body.
type Payload interface {
	Kind() MsgKind
	marshal(e *Enc)
	unmarshal(d *Dec)
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
	e.U8(byte(m.Payload.Kind()))
	e.I32(m.Src)
	e.I32(m.Dst)
	e.U32(m.Seq)
	m.Payload.marshal(e)
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

// Unmarshal parses a message. The payload unmarshal calls are concrete
// (not through the Payload interface) so the decoder does not escape to
// the heap — the hot receive path allocates only the message, payload
// and their lists.
func Unmarshal(buf []byte) (*Msg, error) {
	d := Dec{buf: buf}
	k := MsgKind(d.U8())
	m := &Msg{Src: d.I32(), Dst: d.I32(), Seq: d.U32()}
	switch k {
	case MInvoke:
		p := &Invoke{}
		p.unmarshal(&d)
		m.Payload = p
	case MReturn:
		p := &Return{}
		p.unmarshal(&d)
		m.Payload = p
	case MMoveReq:
		p := &MoveReq{}
		p.unmarshal(&d)
		m.Payload = p
	case MMove:
		p := &Move{}
		p.unmarshal(&d)
		m.Payload = p
	case MLocate:
		p := &Locate{}
		p.unmarshal(&d)
		m.Payload = p
	case MLocateReply:
		p := &LocateReply{}
		p.unmarshal(&d)
		m.Payload = p
	case MUpdateLoc:
		p := &UpdateLoc{}
		p.unmarshal(&d)
		m.Payload = p
	case MUnfixReq:
		p := &UnfixReq{}
		p.unmarshal(&d)
		m.Payload = p
	case MMoveAck:
		p := &MoveAck{}
		p.unmarshal(&d)
		m.Payload = p
	case MMoveGroup:
		p := &MoveGroup{}
		p.unmarshal(&d)
		m.Payload = p
	case MDirPrepare:
		p := &DirPrepare{}
		p.unmarshal(&d)
		m.Payload = p
	case MDirPromise:
		p := &DirPromise{}
		p.unmarshal(&d)
		m.Payload = p
	case MDirAccept:
		p := &DirAccept{}
		p.unmarshal(&d)
		m.Payload = p
	case MDirAccepted:
		p := &DirAccepted{}
		p.unmarshal(&d)
		m.Payload = p
	case MDirLearn:
		p := &DirLearn{}
		p.unmarshal(&d)
		m.Payload = p
	case MDirLookup:
		p := &DirLookup{}
		p.unmarshal(&d)
		m.Payload = p
	case MDirLookupReply:
		p := &DirLookupReply{}
		p.unmarshal(&d)
		m.Payload = p
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", k)
	}
	if err := d.Err(); err != nil {
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

// Kind implements Payload.
func (p *Invoke) Kind() MsgKind { return MInvoke }

func (p *Invoke) marshal(e *Enc) {
	e.OID(p.Target)
	e.Str([]byte(p.OpName))
	e.I32(p.Origin)
	e.U32(p.CallerFrag)
	e.Values(p.Args)
	e.U16(uint16(len(p.Hints)))
	for _, h := range p.Hints {
		e.OID(h.OID)
		e.I32(h.Node)
	}
}

func (p *Invoke) unmarshal(d *Dec) {
	p.Target = d.OID()
	p.OpName = string(d.Str())
	p.Origin = d.I32()
	p.CallerFrag = d.U32()
	p.Args = d.Values()
	n := d.Count(minHintBytes)
	for i := 0; i < n; i++ {
		p.Hints = append(p.Hints, LocHint{OID: d.OID(), Node: d.I32()})
	}
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

// Kind implements Payload.
func (p *Return) Kind() MsgKind { return MReturn }

func (p *Return) marshal(e *Enc) {
	e.I32(p.Origin)
	e.U32(p.CallerFrag)
	if p.Ok {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.Value(p.Result)
	e.Str([]byte(p.FaultMsg))
	e.U16(uint16(len(p.Hints)))
	for _, h := range p.Hints {
		e.OID(h.OID)
		e.I32(h.Node)
	}
}

func (p *Return) unmarshal(d *Dec) {
	p.Origin = d.I32()
	p.CallerFrag = d.U32()
	p.Ok = d.U8() != 0
	p.Result = d.Value()
	p.FaultMsg = string(d.Str())
	n := d.Count(minHintBytes)
	for i := 0; i < n; i++ {
		p.Hints = append(p.Hints, LocHint{OID: d.OID(), Node: d.I32()})
	}
}

// MoveReq asks whoever holds Target to move it to Dest (issued when a
// `move` statement executes on a node where the object is not resident).
type MoveReq struct {
	Target oid.OID
	Dest   int32
	Fix    bool // also fix the object at Dest
}

// Kind implements Payload.
func (p *MoveReq) Kind() MsgKind { return MMoveReq }

func (p *MoveReq) marshal(e *Enc) {
	e.OID(p.Target)
	e.I32(p.Dest)
	if p.Fix {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func (p *MoveReq) unmarshal(d *Dec) {
	p.Target = d.OID()
	p.Dest = d.I32()
	p.Fix = d.U8() != 0
}

// UnfixReq unfixes (or refixes at Dest) a remote object.
type UnfixReq struct {
	Target oid.OID
	Refix  bool
	Dest   int32
}

// Kind implements Payload.
func (p *UnfixReq) Kind() MsgKind { return MUnfixReq }

func (p *UnfixReq) marshal(e *Enc) {
	e.OID(p.Target)
	if p.Refix {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.I32(p.Dest)
}

func (p *UnfixReq) unmarshal(d *Dec) {
	p.Target = d.OID()
	p.Refix = d.U8() != 0
	p.Dest = d.I32()
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

func (a *MIActivation) marshal(e *Enc) {
	e.OID(a.CodeOID)
	e.U16(a.FuncIndex)
	e.U16(a.Stop)
	e.Values(a.Vars)
	e.Values(a.Temps)
}

func (a *MIActivation) unmarshal(d *Dec) {
	a.CodeOID = d.OID()
	a.FuncIndex = d.U16()
	a.Stop = d.U16()
	a.Vars = d.Values()
	a.Temps = d.Values()
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

func (f *Fragment) marshal(e *Enc) {
	e.U32(f.FragID)
	e.I32(f.LinkNode)
	e.U32(f.LinkFrag)
	e.U8(byte(f.Status))
	e.U16(f.CondIndex)
	if f.Executing {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.U16(uint16(len(f.Acts)))
	for i := range f.Acts {
		f.Acts[i].marshal(e)
	}
}

func (f *Fragment) unmarshal(d *Dec) {
	f.FragID = d.U32()
	f.LinkNode = d.I32()
	f.LinkFrag = d.U32()
	f.Status = FragStatus(d.U8())
	f.CondIndex = d.U16()
	f.Executing = d.U8() != 0
	n := d.Count(minActBytes)
	for i := 0; i < n; i++ {
		var a MIActivation
		a.unmarshal(d)
		if d.Err() != nil {
			return
		}
		f.Acts = append(f.Acts, a)
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

// Kind implements Payload.
func (p *Move) Kind() MsgKind { return MMove }

func (p *Move) marshal(e *Enc) {
	e.OID(p.Object)
	e.OID(p.CodeOID)
	e.U32(p.Epoch)
	flags := byte(0)
	if p.Fixed {
		flags |= 1
	}
	if p.IsArray {
		flags |= 2
	}
	if p.MonLocked {
		flags |= 4
	}
	e.U8(flags)
	e.U8(p.ArrayElemKind)
	e.Values(p.Data)
	e.U32(p.MonHolder)
	e.U16(uint16(len(p.EntryQueue)))
	for _, f := range p.EntryQueue {
		e.U32(f)
	}
	e.U16(uint16(len(p.CondQueues)))
	for _, q := range p.CondQueues {
		e.U16(uint16(len(q)))
		for _, f := range q {
			e.U32(f)
		}
	}
	e.U16(uint16(len(p.Frags)))
	for i := range p.Frags {
		p.Frags[i].marshal(e)
	}
	e.U16(uint16(len(p.Hints)))
	for _, h := range p.Hints {
		e.OID(h.OID)
		e.I32(h.Node)
	}
	e.U32(p.SpanID)
}

func (p *Move) unmarshal(d *Dec) {
	p.Object = d.OID()
	p.CodeOID = d.OID()
	p.Epoch = d.U32()
	flags := d.U8()
	p.Fixed = flags&1 != 0
	p.IsArray = flags&2 != 0
	p.MonLocked = flags&4 != 0
	p.ArrayElemKind = d.U8()
	p.Data = d.Values()
	p.MonHolder = d.U32()
	n := d.Count(4)
	for i := 0; i < n; i++ {
		p.EntryQueue = append(p.EntryQueue, d.U32())
	}
	nq := d.Count(2)
	for i := 0; i < nq; i++ {
		m := d.Count(4)
		var q []uint32
		for j := 0; j < m; j++ {
			q = append(q, d.U32())
		}
		p.CondQueues = append(p.CondQueues, q)
	}
	nf := d.Count(minFragmentBytes)
	for i := 0; i < nf; i++ {
		var f Fragment
		f.unmarshal(d)
		if d.Err() != nil {
			return
		}
		p.Frags = append(p.Frags, f)
	}
	nh := d.Count(minHintBytes)
	for i := 0; i < nh; i++ {
		p.Hints = append(p.Hints, LocHint{OID: d.OID(), Node: d.I32()})
	}
	p.SpanID = d.U32()
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

// Kind implements Payload.
func (p *Locate) Kind() MsgKind { return MLocate }

func (p *Locate) marshal(e *Enc) {
	e.OID(p.Target)
	e.I32(p.Origin)
	e.U32(p.ReplyFrag)
	e.U16(p.Hops)
}

func (p *Locate) unmarshal(d *Dec) {
	p.Target = d.OID()
	p.Origin = d.I32()
	p.ReplyFrag = d.U32()
	p.Hops = d.U16()
}

// LocateReply answers a Locate.
type LocateReply struct {
	Target    oid.OID
	Node      int32 // -1 = unknown here
	ReplyFrag uint32
}

// Kind implements Payload.
func (p *LocateReply) Kind() MsgKind { return MLocateReply }

func (p *LocateReply) marshal(e *Enc) {
	e.OID(p.Target)
	e.I32(p.Node)
	e.U32(p.ReplyFrag)
}

func (p *LocateReply) unmarshal(d *Dec) {
	p.Target = d.OID()
	p.Node = d.I32()
	p.ReplyFrag = d.U32()
}

// UpdateLoc is a forwarding hint sent back to a node that used a stale
// location; Epoch timestamps the knowledge so late hints cannot regress it.
type UpdateLoc struct {
	Target oid.OID
	Node   int32
	Epoch  uint32
}

// Kind implements Payload.
func (p *UpdateLoc) Kind() MsgKind { return MUpdateLoc }

func (p *UpdateLoc) marshal(e *Enc) {
	e.OID(p.Target)
	e.I32(p.Node)
	e.U32(p.Epoch)
}

func (p *UpdateLoc) unmarshal(d *Dec) {
	p.Target = d.OID()
	p.Node = d.I32()
	p.Epoch = d.U32()
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

// Kind implements Payload.
func (p *MoveAck) Kind() MsgKind { return MMoveAck }

func (p *MoveAck) marshal(e *Enc) {
	e.OID(p.Object)
	e.U32(p.SpanID)
	e.U32(p.Epoch)
	if p.Ok {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.Str([]byte(p.Err))
}

func (p *MoveAck) unmarshal(d *Dec) {
	p.Object = d.OID()
	p.SpanID = d.U32()
	p.Epoch = d.U32()
	p.Ok = d.U8() != 0
	p.Err = string(d.Str())
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

// Kind implements Payload.
func (p *MoveGroup) Kind() MsgKind { return MMoveGroup }

func (p *MoveGroup) marshal(e *Enc) {
	e.U16(uint16(len(p.Inner)))
	for _, m := range p.Inner {
		m.marshal(e)
	}
}

func (p *MoveGroup) unmarshal(d *Dec) {
	n := d.Count(minMoveBytes)
	for i := 0; i < n; i++ {
		m := &Move{}
		m.unmarshal(d)
		if d.Err() != nil {
			return
		}
		p.Inner = append(p.Inner, m)
	}
}

// DirEntry is one slot of a decree message and the home node decreed for
// it (a DirPrepare names slots only and encodes no Node).
type DirEntry struct {
	Slot dir.Slot
	Node int32
}

// DirList is the slot list of a decree message, in the proposal's canonical
// slot order. Almost every decree covers a single object, so a list of one
// is held inline and longer lists sit behind one pointer: a slice header
// here would lift every decree message into the next allocation size class.
// The zero value is the empty list.
type DirList struct {
	one  [1]DirEntry
	n    uint32
	more *[]DirEntry // all n entries, once n > 1
}

// Append adds e to the end of the list.
func (l *DirList) Append(e DirEntry) {
	switch l.n {
	case 0:
		l.one[0] = e
	case 1:
		l.more = &[]DirEntry{l.one[0], e}
	default:
		*l.more = append(*l.more, e)
	}
	l.n++
}

// All returns the entries in order. The slice aliases the list.
func (l *DirList) All() []DirEntry {
	if l.more != nil {
		return *l.more
	}
	return l.one[:l.n]
}

// Encoded sizes of one list entry, without and with its home node.
const (
	dirSlotBytes  = 8
	dirEntryBytes = 12
	dirAccBytes   = 12 // one dir.Accepted in a promise
)

func marshalSlot(e *Enc, s dir.Slot) {
	e.OID(s.OID)
	e.U32(s.Epoch)
}

func unmarshalSlot(d *Dec) dir.Slot { return dir.Slot{OID: d.OID(), Epoch: d.U32()} }

// marshal writes the list as the tail of the message: entry after entry
// until the payload ends, no count — so a decree over one slot costs exactly
// its fixed fields.
func (l *DirList) marshal(e *Enc, homes bool) {
	for _, s := range l.All() {
		marshalSlot(e, s.Slot)
		if homes {
			e.I32(s.Node)
		}
	}
}

func (l *DirList) unmarshal(d *Dec, homes bool) {
	size := dirSlotBytes
	if homes {
		size = dirEntryBytes
	}
	for n := d.Tail(size); n > 0; n-- {
		s := DirEntry{Slot: unmarshalSlot(d)}
		if homes {
			s.Node = d.I32()
		}
		l.Append(s)
	}
}

// DirPrepare opens a retry round of a decree: the proposer (the source node
// of the moves that created the slots) asks a replica of the slots' shared
// shard replica set to promise one ballot for all of them.
type DirPrepare struct {
	Ballot uint64
	Slots  DirList
}

// Kind implements Payload.
func (p *DirPrepare) Kind() MsgKind { return MDirPrepare }

func (p *DirPrepare) marshal(e *Enc) {
	e.U64(p.Ballot)
	p.Slots.marshal(e, false)
}

func (p *DirPrepare) unmarshal(d *Dec) {
	p.Ballot = d.U64()
	p.Slots.unmarshal(d, false)
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

// Kind implements Payload.
func (p *DirPromise) Kind() MsgKind { return MDirPromise }

func (p *DirPromise) marshal(e *Enc) {
	marshalSlot(e, p.Slot)
	e.U64(p.Ballot)
	if p.Ok {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.U64(p.Promised)
	for _, a := range p.Acc {
		e.U64(a.Ballot)
		e.I32(a.Node)
	}
}

func (p *DirPromise) unmarshal(d *Dec) {
	p.Slot = unmarshalSlot(d)
	p.Ballot = d.U64()
	p.Ok = d.U8() != 0
	p.Promised = d.U64()
	if n := d.Tail(dirAccBytes); n > 0 {
		p.Acc = make([]dir.Accepted, n)
		for i := range p.Acc {
			p.Acc[i] = dir.Accepted{Ballot: d.U64(), Node: d.I32()}
		}
	}
}

// DirAccept asks a replica to accept each slot's decree value (the object's
// new home node) under one ballot. The list rides along so the replica side
// stays stateless between phases.
type DirAccept struct {
	Ballot uint64
	Slots  DirList
}

// Kind implements Payload.
func (p *DirAccept) Kind() MsgKind { return MDirAccept }

func (p *DirAccept) marshal(e *Enc) {
	e.U64(p.Ballot)
	p.Slots.marshal(e, true)
}

func (p *DirAccept) unmarshal(d *Dec) {
	p.Ballot = d.U64()
	p.Slots.unmarshal(d, true)
}

// DirAccepted answers a DirAccept: every slot accepted, or a nack with the
// highest blocking ballot. Slot echoes the accept's first slot.
type DirAccepted struct {
	Slot     dir.Slot
	Ballot   uint64
	Ok       bool
	Promised uint64
}

// Kind implements Payload.
func (p *DirAccepted) Kind() MsgKind { return MDirAccepted }

func (p *DirAccepted) marshal(e *Enc) {
	marshalSlot(e, p.Slot)
	e.U64(p.Ballot)
	if p.Ok {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.U64(p.Promised)
}

func (p *DirAccepted) unmarshal(d *Dec) {
	p.Slot = unmarshalSlot(d)
	p.Ballot = d.U64()
	p.Ok = d.U8() != 0
	p.Promised = d.U64()
}

// DirLearn announces a chosen decree to a replica: each entry's object lives
// at its Node as of its slot's epoch. Learns are idempotent (replicas apply
// only strictly newer epochs, entry by entry), so the proposer broadcasts
// them unreliably-at-least-once.
type DirLearn struct {
	Slots DirList
}

// Kind implements Payload.
func (p *DirLearn) Kind() MsgKind { return MDirLearn }

func (p *DirLearn) marshal(e *Enc) { p.Slots.marshal(e, true) }

func (p *DirLearn) unmarshal(d *Dec) { p.Slots.unmarshal(d, true) }

// DirLookup asks a replica of the target's shard for its ownership record.
// Token correlates the reply with the asker's pending query.
type DirLookup struct {
	Target oid.OID
	Token  uint32
}

// Kind implements Payload.
func (p *DirLookup) Kind() MsgKind { return MDirLookup }

func (p *DirLookup) marshal(e *Enc) {
	e.OID(p.Target)
	e.U32(p.Token)
}

func (p *DirLookup) unmarshal(d *Dec) {
	p.Target = d.OID()
	p.Token = d.U32()
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

// Kind implements Payload.
func (p *DirLookupReply) Kind() MsgKind { return MDirLookupReply }

func (p *DirLookupReply) marshal(e *Enc) {
	e.OID(p.Target)
	e.U32(p.Token)
	if p.Ok {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.I32(p.Node)
	e.U32(p.Epoch)
	e.U32(p.Lease)
}

func (p *DirLookupReply) unmarshal(d *Dec) {
	p.Target = d.OID()
	p.Token = d.U32()
	p.Ok = d.U8() != 0
	p.Node = d.I32()
	p.Epoch = d.U32()
	p.Lease = d.U32()
}

// PayloadSize returns the encoded size of p alone (without the Msg
// header), using a pooled encoder. The batched move path uses it to
// attribute each inner object's share of a group frame.
func PayloadSize(p Payload) int {
	e := GetEnc(256)
	e.buf = e.buf[:0]
	p.marshal(e)
	n := e.Len()
	e.Release()
	return n
}

// ErrTruncated is returned for short buffers.
var ErrTruncated = errors.New("wire: truncated message")
