package linalg

import (
	"math"
	"sync/atomic"
)

// HalfVector is the QUDA-style 16-bit fixed-point storage format used by
// the inner stage of the mixed-precision solver: values are stored as
// int16 fractions of a per-block float32 scale, where a block is typically
// one site's spinor (24 real numbers for Ns*Nc = 12 complex components).
// Storage is therefore 2 bytes per real plus 4 bytes per block for the
// scale - the "16-bit precision fixed-point storage (utilizing
// single-precision computation)" of the paper.
type HalfVector struct {
	// Data holds interleaved (re, im) int16 pairs: 2*len(vector) entries.
	Data []int16
	// Scale holds one float32 maximum-magnitude scale per block.
	Scale []float32
	// Block is the number of complex elements per scale block.
	Block int
}

const halfMax = 32767

// NewHalfVector allocates storage for n complex elements with the given
// block size (complex elements per scale). n must be a multiple of block.
func NewHalfVector(n, block int) *HalfVector {
	if block <= 0 || n%block != 0 {
		panic("linalg: half-vector length must be a positive multiple of block")
	}
	return &HalfVector{
		Data:  make([]int16, 2*n),
		Scale: make([]float32, n/block),
		Block: block,
	}
}

// Len returns the number of complex elements stored.
func (h *HalfVector) Len() int { return len(h.Data) / 2 }

// Bytes returns the storage footprint in bytes (data + scales), the
// quantity that enters the solver's effective-bandwidth accounting.
func (h *HalfVector) Bytes() int { return 2*len(h.Data) + 4*len(h.Scale) }

// DecodeC64 dequantizes h into a single-precision vector, the form consumed
// by the single-precision compute stage of the solver.
func (h *HalfVector) DecodeC64(dst []complex64) {
	if len(dst) != h.Len() {
		panic("linalg: DecodeC64 length mismatch")
	}
	if nb := len(h.Scale); serialPass(len(dst), 0) {
		h.decodeC64(dst, 0, nb)
	} else {
		For(nb, 0, func(lo, hi int) { h.decodeC64(dst, lo, hi) })
	}
}

func (h *HalfVector) decodeC64(dst []complex64, lo, hi int) {
	for b := lo; b < hi; b++ {
		s := h.Scale[b] / halfMax
		for i := 0; i < h.Block; i++ {
			idx := b*h.Block + i
			dst[idx] = complex(
				float32(h.Data[2*idx])*s,
				float32(h.Data[2*idx+1])*s,
			)
		}
	}
}

// EncodeC64 quantizes a single-precision vector into h.
func (h *HalfVector) EncodeC64(src []complex64) {
	if len(src) != h.Len() {
		panic("linalg: EncodeC64 length mismatch")
	}
	if nb := len(h.Scale); serialPass(len(src), 0) {
		h.encodeC64(src, 0, nb)
	} else {
		For(nb, 0, func(lo, hi int) { h.encodeC64(src, lo, hi) })
	}
}

func (h *HalfVector) encodeC64(src []complex64, lo, hi int) {
	for b := lo; b < hi; b++ {
		blk := src[b*h.Block : (b+1)*h.Block]
		m := maxAbsC64(blk)
		h.Scale[b] = m
		if m == 0 {
			for i := range blk {
				h.Data[2*(b*h.Block+i)] = 0
				h.Data[2*(b*h.Block+i)+1] = 0
			}
			continue
		}
		q := float64(halfMax) / float64(m)
		for i, c := range blk {
			h.Data[2*(b*h.Block+i)] = int16(roundHalfAway(float64(real(c)) * q))
			h.Data[2*(b*h.Block+i)+1] = int16(roundHalfAway(float64(imag(c)) * q))
		}
	}
}

// HasAVX reports whether the host runs the tree's AVX bodies - this
// package's half round trip and internal/dirac's hop: the CPU has AVX and
// the OS saves the YMM state. The probe of half_amd64.s sets it once at
// start-up; it stays false on other architectures, whose builds have no
// such bodies.
var HasAVX bool

// halfAVX is the vector round trip of halfVecBlock-element blocks, set
// where HasAVX is; nil runs the Go body.
var halfAVX func(v *complex64, blocks int) bool

// halfVecBlock is the one block size halfAVX takes: a spinor's twelve
// components (dirac.SpinorLen), the only block the solver rounds by.
const halfVecBlock = 12

// HalfRoundTripC64 rounds v through the 16-bit storage format in place:
// every block of block complex elements comes out as DecodeC64 of its
// EncodeC64, bit for bit, without the int16 buffer in between - what the
// mixed-precision solver wants of the format, which never reads the
// stored form. It reports whether every component of v was finite before
// the rounding, which would otherwise launder a NaN or an infinity into
// finite values (the verdict NormSqC64(v) being finite gives). len(v) must
// be a multiple of block.
func HalfRoundTripC64(v []complex64, block, workers int) bool {
	if block <= 0 || len(v)%block != 0 {
		panic("linalg: half round trip length must be a positive multiple of block")
	}
	nb := len(v) / block
	if serialPass(len(v), workers) {
		return halfRoundTrip(v, block, 0, nb)
	}
	var bad atomic.Bool
	For(nb, workers, func(lo, hi int) {
		if !halfRoundTrip(v, block, lo, hi) {
			bad.Store(true)
		}
	})
	return !bad.Load()
}

// halfRoundTrip rounds blocks lo to hi: by the AVX body where the host has
// one and the block is a spinor, by the Go body otherwise.
func halfRoundTrip(v []complex64, block, lo, hi int) bool {
	if halfAVX != nil && block == halfVecBlock && lo < hi {
		return halfAVX(&v[lo*block], hi-lo)
	}
	return halfRoundTripC64(v, block, lo, hi)
}

func halfRoundTripC64(v []complex64, block, lo, hi int) bool {
	finite := true
	for b := lo; b < hi; b++ {
		blk := v[b*block : (b+1)*block]
		finite = finite && finiteC64(blk)
		m := maxAbsC64(blk)
		if m == 0 {
			// A block of zeros (or of nothing but NaNs, which never win
			// the maximum) is stored as zeros under scale 0.
			for i := range blk {
				blk[i] = 0
			}
			continue
		}
		q := float64(halfMax) / float64(m)
		s := m / halfMax
		for i, c := range blk {
			blk[i] = complex(
				float32(int16(roundHalfAway(float64(real(c))*q)))*s,
				float32(int16(roundHalfAway(float64(imag(c))*q)))*s,
			)
		}
	}
	return finite
}

// finiteC64 reports whether every component of blk is finite: a NaN fails
// the comparison as an infinity does.
func finiteC64(blk []complex64) bool {
	for _, c := range blk {
		if !(absf32(real(c)) <= math.MaxFloat32 && absf32(imag(c)) <= math.MaxFloat32) {
			return false
		}
	}
	return true
}

// maxAbsC64 is the scale of a block: its largest absolute component.
func maxAbsC64(blk []complex64) float32 {
	var m float32
	for _, c := range blk {
		if a := absf32(real(c)); a > m {
			m = a
		}
		if a := absf32(imag(c)); a > m {
			m = a
		}
	}
	return m
}

// roundHalfAway rounds x to the nearest integer, halves away from zero:
// math.Round for every |x| < 2^30, which scaled components (at most
// halfMax in magnitude) always are, at a fraction of its cost. With t the
// truncation of x, the remainder d = x - t is exact and lies in (-1, 1),
// 2d is exact too, and its truncation is +1 from d = 0.5 up, -1 from -0.5
// down and 0 between - the correction, with no comparison for the branch
// predictor to lose on data whose fractions are as good as random. Adding
// 0.5 and truncating would not do: 0.49999999999999994 + 0.5 rounds to 1.
func roundHalfAway(x float64) int32 {
	t := int32(x)
	return t + int32(2*(x-float64(t)))
}

// absf32 clears the sign bit. A comparison with zero would be a branch
// on the sign of field data, which the predictor loses half the time: it
// was most of what the C64 codec cost.
func absf32(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
}
