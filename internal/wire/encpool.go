// Pooled marshal buffers: Msg.Marshal is on the per-frame hot path of
// every migration and remote invocation, and the append-grown Enc buffer
// was reallocated for each message. Encoders are recycled through
// size-classed pools (powers of two from 256 B to 32 KB) so steady-state
// marshalling reuses a warm buffer of roughly the right size instead of
// re-growing from nil.

package wire

import "sync"

const (
	encMinClassBits = 8  // smallest class: 256 B
	encMaxClassBits = 15 // largest class: 32 KB
	encNumClasses   = encMaxClassBits - encMinClassBits + 1
)

var encPools [encNumClasses]sync.Pool

// GetEnc returns an empty pooled encoder whose buffer has at least
// sizeHint capacity when a warm buffer of that class is available.
// Callers should Release it when the encoded bytes are no longer needed.
func GetEnc(sizeHint int) *Enc {
	c := 0
	for c < encNumClasses-1 && 1<<(encMinClassBits+c) < sizeHint {
		c++
	}
	if v := encPools[c].Get(); v != nil {
		e := v.(*Enc)
		e.buf = e.buf[:0]
		return e
	}
	return &Enc{buf: make([]byte, 0, 1<<(encMinClassBits+c))}
}

// Release returns the encoder to the pool of its (possibly grown)
// capacity class. The encoder and any buffer obtained from it must not
// be used afterwards. Encoders with buffers smaller than the smallest
// class are dropped.
func (e *Enc) Release() {
	if cap(e.buf) < 1<<encMinClassBits {
		return
	}
	c := 0
	for c < encNumClasses-1 && cap(e.buf) >= 1<<(encMinClassBits+c+1) {
		c++
	}
	encPools[c].Put(e)
}
