package dirac

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// sameFunc reports whether f and g are the same function.
func sameFunc(f, g any) bool { return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer() }

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
	if linalg.HasAVX {
		if vec32.hop == nil || vec64.hop == nil || !sameFunc(vec32.hop, hopAVX32) || !sameFunc(vec64.hop, hopAVX64) {
			t.Fatal("the host has AVX, but the build does not run the AVX hop")
		}
	} else if vec32.hop != nil || vec64.hop != nil {
		t.Fatal("the host has no AVX, but the build selects a vector hop")
	}
}

// TestProbeSelectsAVXSite holds the 4-D site body the build selects to
// the start-up probe - siteAVX where the host has AVX, siteGo where it
// does not - and the flat Wilson operator to running it: every site of
// Apply and of ApplyDagger goes through the selected body, on one worker
// and split. The rank-local stencil's half is TestProbeSubRunsSiteBody.
func TestProbeSelectsAVXSite(t *testing.T) {
	want := any(siteGo)
	if linalg.HasAVX {
		want = siteAVX
	}
	if !sameFunc(siteBody, want) {
		t.Fatalf("linalg.HasAVX is %v, but WilsonSite does not run the body it selects", linalg.HasAVX)
	}
	w := NewWilson(gauge.NewRandom(lattice.MustNew(4, 4, 4, 4), 3), 0.1)
	src, dst := randField(rand.New(rand.NewSource(1)), w.Size()), make([]complex128, w.Size())
	for _, workers := range []int{1, 3} {
		w.Workers = workers
		calls, restore := CountSites()
		w.Apply(dst, src)
		w.ApplyDagger(dst, src)
		restore()
		if n := calls.Load(); n != 2*int64(w.G.Vol) {
			t.Fatalf("workers=%d: %d sites ran the selected body, want %d", workers, n, 2*w.G.Vol)
		}
	}
}

// siteSpinor is one spinor of the given kind: dense normal parts; zeros,
// whose parts are +0, -0 or normal in turn; a point, one component 1 and
// every other part +0; negzero, every part -0; and special, parts drawn
// from fibreSpecials (infinities, a NaN, both zeros, subnormals, large)
// and normal values.
func siteSpinor(rng *rand.Rand, kind string) *[SpinorLen]complex128 {
	var v [SpinorLen]complex128
	negZero := math.Copysign(0, -1)
	specials := fibreSpecials[float64]()
	part := func() float64 {
		switch kind {
		case "zeros":
			return [...]float64{0, negZero, rng.NormFloat64()}[rng.Intn(3)]
		case "negzero":
			return negZero
		case "special":
			if rng.Intn(3) == 0 {
				return specials[rng.Intn(len(specials))]
			}
		}
		return rng.NormFloat64()
	}
	if kind == "point" {
		v[rng.Intn(SpinorLen)] = 1
		return &v
	}
	for i := range v {
		v[i] = complex(part(), part())
	}
	return &v
}

// TestSiteAVXMatchesGoBitForBit holds the AVX site body to the Go body
// it was written from: every output part the same bits, except that a
// NaN only has to meet a NaN (sameOrNaN). Each kind of spinor runs with
// all eight legs live and with one leg live at a time - the site's own
// spinor and the other legs' then zeros of mixed sign - so every direction
// is seen alone; plain and dagger, three masses (diag 0 included), links
// random, the identity (exact zeros and ones in every product) and one
// with -0 parts.
func TestSiteAVXMatchesGoBitForBit(t *testing.T) {
	if !linalg.HasAVX {
		t.Skip("the host has no AVX: the build runs siteGo only")
	}
	rng := rand.New(rand.NewSource(35))
	links := gauge.NewRandom(lattice.MustNew(2, 2, 2, 2), 7).U[0]
	negZero := math.Copysign(0, -1)
	id := linalg.IdentitySU3()
	signed := id
	signed[0][1], signed[1][2], signed[2][0] = complex(negZero, negZero), complex(0, negZero), complex(negZero, 0)
	links = append(links, id, signed)
	for _, kind := range []string{"dense", "zeros", "point", "negzero", "special"} {
		for trial := 0; trial < 100; trial++ {
			for live := -1; live < len(Legs{}); live++ {
				spinor := func(d int) *[SpinorLen]complex128 {
					if live < 0 || d == live {
						return siteSpinor(rng, kind)
					}
					return siteSpinor(rng, "negzero")
				}
				in := spinor(-1)
				var legs Legs
				for d := range legs {
					legs[d] = Leg{Psi: spinor(d), U: &links[rng.Intn(len(links))]}
				}
				for _, diag := range []float64{4.1, 2.6, 0} {
					for _, dagger := range []bool{false, true} {
						var got, want [SpinorLen]complex128
						siteGo(&want, in, &legs, diag, dagger)
						siteAVX(&got, in, &legs, diag, dagger)
						for i := range want {
							if !sameOrNaN(real(got[i]), real(want[i])) || !sameOrNaN(imag(got[i]), imag(want[i])) {
								t.Fatalf("%s, live leg %d, diag %v, dagger %v: component %d is %v, Go body %v",
									kind, live, diag, dagger, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
