package linalg

func init() {
	HasAVX = haveAVX()
	if HasAVX {
		halfAVX = halfRoundTripAVX
	}
}

// haveAVX is the CPUID/XGETBV probe of half_amd64.s.
func haveAVX() bool

//go:noescape
func halfRoundTripAVX(v *complex64, blocks int) bool
