package linalg

import "math"

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

// Encode quantizes src into h. Each block is scaled by its own maximum
// absolute component so the int16 range is fully used; a block of exact
// zeros gets scale 0 and decodes to exact zeros.
func (h *HalfVector) Encode(src []complex128) {
	if len(src) != h.Len() {
		panic("linalg: Encode length mismatch")
	}
	if nb := len(h.Scale); serialPass(len(src), 0) {
		h.encode(src, 0, nb)
	} else {
		For(nb, 0, func(lo, hi int) { h.encode(src, lo, hi) })
	}
}

func (h *HalfVector) encode(src []complex128, lo, hi int) {
	for b := lo; b < hi; b++ {
		blk := src[b*h.Block : (b+1)*h.Block]
		m := MaxAbs(blk)
		h.Scale[b] = float32(m)
		if m == 0 {
			for i := range blk {
				h.Data[2*(b*h.Block+i)] = 0
				h.Data[2*(b*h.Block+i)+1] = 0
			}
			continue
		}
		q := halfMax / m
		for i, c := range blk {
			h.Data[2*(b*h.Block+i)] = int16(math.Round(real(c) * q))
			h.Data[2*(b*h.Block+i)+1] = int16(math.Round(imag(c) * q))
		}
	}
}

// Decode dequantizes h into dst as complex128.
func (h *HalfVector) Decode(dst []complex128) {
	if len(dst) != h.Len() {
		panic("linalg: Decode length mismatch")
	}
	if nb := len(h.Scale); serialPass(len(dst), 0) {
		h.decode(dst, 0, nb)
	} else {
		For(nb, 0, func(lo, hi int) { h.decode(dst, lo, hi) })
	}
}

func (h *HalfVector) decode(dst []complex128, lo, hi int) {
	for b := lo; b < hi; b++ {
		s := float64(h.Scale[b]) / halfMax
		for i := 0; i < h.Block; i++ {
			idx := b*h.Block + i
			dst[idx] = complex(
				float64(h.Data[2*idx])*s,
				float64(h.Data[2*idx+1])*s,
			)
		}
	}
}

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
		var m float32
		for _, c := range blk {
			if a := absf32(real(c)); a > m {
				m = a
			}
			if a := absf32(imag(c)); a > m {
				m = a
			}
		}
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
			h.Data[2*(b*h.Block+i)] = int16(math.Round(float64(real(c)) * q))
			h.Data[2*(b*h.Block+i)+1] = int16(math.Round(float64(imag(c)) * q))
		}
	}
}

// RelError bounds the worst-case relative quantization error of a block
// whose max magnitude is scale: half a quantum over the scale.
func RelError() float64 { return 0.5 / halfMax }

func absf32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
