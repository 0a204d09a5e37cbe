package dirac

import (
	"testing"
	"unsafe"

	"femtoverse/internal/linalg"
)

// The views of lanes.go rest on a layout: a complex number is its real
// part then its imaginary part, as the matching floats, nothing between.
// These tests pin it - order, sizes, aliasing, the edges - so that a
// toolchain that laid complex values out differently would fail here and
// not in a fingerprint.

func TestLanesSizes(t *testing.T) {
	for _, c := range []struct {
		name       string
		lane, want uintptr
	}{
		{"cx[float32] vs complex64", unsafe.Sizeof(cx[float32]{}), unsafe.Sizeof(complex64(0))},
		{"cx[float64] vs complex128", unsafe.Sizeof(cx[float64]{}), unsafe.Sizeof(complex128(0))},
		{"link[float32] vs SU3C64", unsafe.Sizeof(link[float32]{}), unsafe.Sizeof(SU3C64{})},
		{"link[float64] vs linalg.SU3", unsafe.Sizeof(link[float64]{}), unsafe.Sizeof(linalg.SU3{})},
	} {
		if c.lane != c.want {
			t.Errorf("%s: %d bytes vs %d", c.name, c.lane, c.want)
		}
	}
}

func TestLanesReadAndWriteThrough(t *testing.T) {
	v64 := []complex128{complex(1, 2), complex(3, 4), complex(5, 6)}
	l64 := lanes64(v64)
	if len(l64) != 3 || l64[0] != (cx[float64]{1, 2}) || l64[1] != (cx[float64]{3, 4}) {
		t.Fatalf("lanes64 reads %v of %v", l64, v64)
	}
	l64[1] = cx[float64]{-7, 8}
	if v64[1] != complex(-7, 8) {
		t.Fatalf("a write through lanes64 left %v", v64[1])
	}
	// A sub-slice at an odd offset is viewed where it is.
	if odd := lanes64(v64[1:]); len(odd) != 2 || odd[0] != (cx[float64]{-7, 8}) || odd[1] != (cx[float64]{5, 6}) {
		t.Fatalf("lanes64 of v[1:] reads %v", odd)
	}

	v32 := []complex64{complex(1, 2), complex(3, 4), complex(5, 6)}
	l32 := lanes32(v32)
	if len(l32) != 3 || l32[0] != (cx[float32]{1, 2}) || l32[1] != (cx[float32]{3, 4}) {
		t.Fatalf("lanes32 reads %v of %v", l32, v32)
	}
	l32[1] = cx[float32]{-7, 8}
	if v32[1] != complex(-7, 8) {
		t.Fatalf("a write through lanes32 left %v", v32[1])
	}
	if odd := lanes32(v32[1:]); len(odd) != 2 || odd[0] != (cx[float32]{-7, 8}) || odd[1] != (cx[float32]{5, 6}) {
		t.Fatalf("lanes32 of v[1:] reads %v", odd)
	}
}

func TestLanesLinks(t *testing.T) {
	var u64 [2]linalg.SU3
	var u32 [2]SU3C64
	for n := range u64 {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				re, im := float64(100*n+10*i+j), -float64(100*n+10*i+j)-0.5
				u64[n][i][j] = complex(re, im)
				u32[n][i][j] = complex(float32(re), float32(im))
			}
		}
	}
	l64, l32 := links64(u64[1:]), links32(u32[1:])
	if len(l64) != 1 || len(l32) != 1 {
		t.Fatalf("link views have lengths %d, %d", len(l64), len(l32))
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			re, im := float64(100+10*i+j), -float64(100+10*i+j)-0.5
			if l64[0][i][j] != (cx[float64]{re, im}) {
				t.Errorf("links64[%d][%d] = %v", i, j, l64[0][i][j])
			}
			if l32[0][i][j] != (cx[float32]{float32(re), float32(im)}) {
				t.Errorf("links32[%d][%d] = %v", i, j, l32[0][i][j])
			}
		}
	}
}

// The spinor and link views are pointers into the field or the gauge
// links where they lie: a hop reads and writes through them in place.
func TestLanesSpinorAndLink(t *testing.T) {
	v := make([]complex128, 2*SpinorLen)
	for i := range v {
		v[i] = complex(float64(i), -float64(i)-0.5)
	}
	sp := spinor64((*[SpinorLen]complex128)(v[SpinorLen:]))
	for i := range sp {
		if want := (cx[float64]{float64(SpinorLen + i), -float64(SpinorLen+i) - 0.5}); sp[i] != want {
			t.Fatalf("spinor64[%d] = %v, want %v", i, sp[i], want)
		}
	}
	sp[SpinorLen-1] = cx[float64]{-7, 8}
	if v[2*SpinorLen-1] != complex(-7, 8) || v[SpinorLen-1] != complex(SpinorLen-1, -SpinorLen+0.5) {
		t.Fatalf("a write through spinor64 left %v, %v", v[2*SpinorLen-1], v[SpinorLen-1])
	}

	u := make([]linalg.SU3, 2)
	u[1][2][0] = complex(3, -4)
	l := link64(&u[1])
	if l[2][0] != (cx[float64]{3, -4}) {
		t.Fatalf("link64 reads %v", l[2][0])
	}
	l[0][1] = cx[float64]{5, 6}
	if u[1][0][1] != complex(5, 6) || u[0][0][1] != 0 {
		t.Fatalf("a write through link64 left %v, %v", u[1][0][1], u[0][0][1])
	}
}

// A nil or empty slice has no element 0 to take the address of; its view
// is empty and costs no dereference. (The kernels pass nil for the
// operands a pass does not use.)
func TestLanesOfNothing(t *testing.T) {
	if n := len(lanes64(nil)) + len(lanes64([]complex128{})) + len(lanes64(make([]complex128, 4)[4:])); n != 0 {
		t.Errorf("empty lanes64 views hold %d elements", n)
	}
	if n := len(lanes32(nil)) + len(lanes32([]complex64{})) + len(lanes32(make([]complex64, 4)[4:])); n != 0 {
		t.Errorf("empty lanes32 views hold %d elements", n)
	}
	if n := len(links64(nil)) + len(links32(nil)) + len(links64([]linalg.SU3{})) + len(links32([]SU3C64{})); n != 0 {
		t.Errorf("empty link views hold %d elements", n)
	}
}
