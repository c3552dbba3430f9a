// Link-layer envelope for the crash-tolerant delivery protocol: every frame
// a kernel sends under a chaos plan is wrapped in a LinkFrame carrying a
// per-channel sequence number and a CRC-32, so the receiver can reject
// corrupted frames (the retransmission timer recovers them), deduplicate
// and reorder-buffer data frames, and acknowledge receipt.

package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Link frame kinds. The values deliberately collide with no MsgKind so a
// bare Msg can never parse as a LinkFrame header by accident.
const (
	// LData is reliable payload: carries a serialized Msg, is acked by the
	// receiver, retransmitted by the sender until acked, delivered exactly
	// once and in sequence order per (src,dst) channel.
	LData byte = 0xD1
	// LAck acknowledges one LData sequence number (selective ack).
	LAck byte = 0xD2
	// LRaw is fire-and-forget with no payload semantics (heartbeats): not
	// acked, not retransmitted, not sequenced.
	LRaw byte = 0xD3
)

// LinkFrame is the envelope: [kind u8][seq u32][crc u32][inner ...] with
// crc = CRC-32 (IEEE) over kind, seq and inner.
type LinkFrame struct {
	Kind  byte
	Seq   uint32
	Inner []byte
}

// linkHeaderBytes is the envelope overhead.
const linkHeaderBytes = 1 + 4 + 4

// BadFrameReason says which check a rejected link frame failed.
type BadFrameReason uint8

const (
	BadFrameShort BadFrameReason = iota // Got = frame length, Want = header length
	BadFrameKind                        // Got = the unknown kind byte
	BadFrameCRC                         // Got = CRC computed, Want = CRC the frame carries
)

// ErrBadFrame reports a link frame that failed structural or CRC checks.
// It carries the numbers, not a message: the kernel drops bad frames
// silently, so the text is formatted only if someone asks for it.
type ErrBadFrame struct {
	Reason    BadFrameReason
	Got, Want uint32
}

func (e *ErrBadFrame) Error() string {
	switch e.Reason {
	case BadFrameShort:
		return fmt.Sprintf("wire: bad link frame: short frame (%d bytes)", e.Got)
	case BadFrameKind:
		return fmt.Sprintf("wire: bad link frame: unknown kind 0x%02x", e.Got)
	}
	return fmt.Sprintf("wire: bad link frame: crc mismatch (got %08x, frame says %08x)", e.Got, e.Want)
}

// crcOff is where the CRC sits in a frame: after the kind and seq it covers.
const crcOff = 1 + 4

// linkCRC checksums a frame's covered bytes in place: its first crcOff
// bytes (kind, seq) and inner. It reads the header where it already lies —
// hash/crc32 calls its kernel through a func value, so a header assembled
// on the stack would escape to the heap, one allocation per frame.
func linkCRC(frame, inner []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(frame[:crcOff]), crc32.IEEETable, inner)
}

// AppendTo appends the serialized frame to dst and returns the extended
// slice. Frames that are sent and forgotten (acks) are built this way in a
// sender-owned scratch buffer: netsim.Send copies what it carries.
func (f LinkFrame) AppendTo(dst []byte) []byte {
	at := len(dst)
	dst = append(dst, f.Kind,
		byte(f.Seq>>24), byte(f.Seq>>16), byte(f.Seq>>8), byte(f.Seq), 0, 0, 0, 0)
	crc := linkCRC(dst[at:], f.Inner)
	binary.BigEndian.PutUint32(dst[at+crcOff:], crc)
	return append(dst, f.Inner...)
}

// Marshal serializes the frame into a new buffer of exactly its size (a
// frame kept for good, like the link's heartbeat).
func (f LinkFrame) Marshal() []byte {
	return f.AppendTo(make([]byte, 0, linkHeaderBytes+len(f.Inner)))
}

// ParseLinkFrame parses and verifies a link frame; Inner aliases buf. A
// short buffer, unknown kind byte or CRC mismatch yields *ErrBadFrame —
// under chaos the caller drops such frames silently and lets retransmission
// recover.
func ParseLinkFrame(buf []byte) (LinkFrame, error) {
	if len(buf) < linkHeaderBytes {
		return LinkFrame{}, &ErrBadFrame{Reason: BadFrameShort, Got: uint32(len(buf)), Want: linkHeaderBytes}
	}
	f := LinkFrame{Kind: buf[0]}
	if f.Kind != LData && f.Kind != LAck && f.Kind != LRaw {
		return LinkFrame{}, &ErrBadFrame{Reason: BadFrameKind, Got: uint32(f.Kind)}
	}
	f.Seq = binary.BigEndian.Uint32(buf[1:])
	crc := binary.BigEndian.Uint32(buf[crcOff:])
	f.Inner = buf[linkHeaderBytes:]
	if got := linkCRC(buf, f.Inner); got != crc {
		return LinkFrame{}, &ErrBadFrame{Reason: BadFrameCRC, Got: got, Want: crc}
	}
	return f, nil
}
