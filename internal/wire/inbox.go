package wire

// Inbox is a receiver's decode storage: the message header, one payload
// value per message kind (made when the first message of the kind arrives)
// and the decoder whose arenas back their value lists and strings. A node
// embeds one and decodes every message it receives into it, so a received
// message costs no allocation once the inbox has seen the traffic's shapes.
//
// What Decode returns is valid only until the next Decode on the same
// Inbox: the payload value, its lists and the bytes of its string values are
// all reused. A receiver that keeps a payload beyond the handling of its
// message copies it first (Invoke.Clone; a plain struct copy for the kinds
// without lists).
type Inbox struct {
	dec      Dec
	msg      Msg
	payloads [len(kinds)]Payload
}

// Decode parses buf into the inbox and returns the inbox's message.
func (in *Inbox) Decode(buf []byte) (*Msg, error) {
	if err := in.dec.decode(buf, &in.msg, &in.payloads); err != nil {
		return nil, err
	}
	return &in.msg, nil
}
