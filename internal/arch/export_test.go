package arch

import "testing"

// FuseCountdown exports the countdown loop to the external tests.
func FuseCountdown(t testing.TB, s *Spec, iters uint32) *Fused {
	_, _, fz := fuseCountdown(t, s, iters)
	return fz
}
