package netsim

import "testing"

// TestBufPoolWarmGrabDoesNotAllocate pins the pool's steady state: once a
// size class holds a released buffer, grab must recycle it with zero
// allocations.
func TestBufPoolWarmGrabDoesNotAllocate(t *testing.T) {
	payload := make([]byte, 300)
	var p bufPool
	p.release(p.grab(payload)) // warm the 512 B class
	got := testing.AllocsPerRun(100, func() {
		p.release(p.grab(payload))
	})
	if got != 0 {
		t.Errorf("warm grab/release allocated %.1f times per run, want 0", got)
	}
}

// TestBufPoolClassesDoNotMix: a released buffer must come back only for
// payloads its capacity can hold.
func TestBufPoolClassesDoNotMix(t *testing.T) {
	var p bufPool
	small := p.grab(make([]byte, 10))
	p.release(small)
	big := p.grab(make([]byte, 5000))
	if cap(big) < 5000 {
		t.Fatalf("grab(5000) returned cap %d", cap(big))
	}
}
