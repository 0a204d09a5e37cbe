package dirac

import (
	"reflect"
	"testing"

	"femtoverse/internal/linalg"
)

// TestProbeSelectsAVXHop holds the hop the build selects to the start-up
// probe, which linalg's TestProbeSelectsAVXCodec holds to /proc/cpuinfo:
// where the host has AVX both precisions run the AVX hop, and the Go hop
// where it does not, while the SSE fifth-dimension bodies run either way.
// A selection that fell back to Go silently would pass every bit test at
// half the speed.
func TestProbeSelectsAVXHop(t *testing.T) {
	if vec32 == nil || vec64 == nil || vec32.aInv == nil || vec64.aInv == nil {
		t.Fatal("the amd64 build has no SSE fifth-dimension bodies")
	}
	same := func(f, g any) bool { return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer() }
	if linalg.HasAVX {
		if vec32.hop == nil || vec64.hop == nil || !same(vec32.hop, hopAVX32) || !same(vec64.hop, hopAVX64) {
			t.Fatal("the host has AVX, but the build does not run the AVX hop")
		}
	} else if vec32.hop != nil || vec64.hop != nil {
		t.Fatal("the host has no AVX, but the build selects a vector hop")
	}
}
