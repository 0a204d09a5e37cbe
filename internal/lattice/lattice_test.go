package lattice

import (
	"testing"
	"testing/quick"
)

func TestIndexCoordsBijection(t *testing.T) {
	g := MustNew(4, 6, 2, 8)
	seen := make(map[int]bool, g.Vol)
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			for z := 0; z < 2; z++ {
				for tt := 0; tt < 8; tt++ {
					c := [4]int{x, y, z, tt}
					s := g.Index(c)
					if s < 0 || s >= g.Vol {
						t.Fatalf("index out of range: %v -> %d", c, s)
					}
					if seen[s] {
						t.Fatalf("duplicate index %d for %v", s, c)
					}
					seen[s] = true
					if got := g.Coords(s); got != c {
						t.Fatalf("Coords(Index(%v)) = %v", c, got)
					}
				}
			}
		}
	}
	if len(seen) != g.Vol {
		t.Fatalf("covered %d sites, want %d", len(seen), g.Vol)
	}
}

func TestNeighborsAreInverse(t *testing.T) {
	g := MustNew(4, 4, 4, 8)
	for s := 0; s < g.Vol; s++ {
		for mu := 0; mu < NDim; mu++ {
			if g.Bwd(g.Fwd(s, mu), mu) != s {
				t.Fatalf("bwd(fwd(%d,%d)) != %d", s, mu, s)
			}
			if g.Fwd(g.Bwd(s, mu), mu) != s {
				t.Fatalf("fwd(bwd(%d,%d)) != %d", s, mu, s)
			}
		}
	}
}

func TestNeighborsWrapPeriodically(t *testing.T) {
	g := MustNew(4, 4, 4, 4)
	origin := g.Index([4]int{0, 0, 0, 0})
	for mu := 0; mu < NDim; mu++ {
		back := g.Coords(g.Bwd(origin, mu))
		want := [4]int{0, 0, 0, 0}
		want[mu] = g.Dims[mu] - 1
		if back != want {
			t.Fatalf("bwd wrap in %d: got %v want %v", mu, back, want)
		}
	}
	// Walking Dims[mu] steps forward returns to start.
	for mu := 0; mu < NDim; mu++ {
		s := origin
		for i := 0; i < g.Dims[mu]; i++ {
			s = g.Fwd(s, mu)
		}
		if s != origin {
			t.Fatalf("forward walk in %d did not close", mu)
		}
	}
}

func TestParityFlipsAcrossLinks(t *testing.T) {
	g := MustNew(2, 4, 6, 4)
	for s := 0; s < g.Vol; s++ {
		for mu := 0; mu < NDim; mu++ {
			if g.Parity(s) == g.Parity(g.Fwd(s, mu)) {
				t.Fatalf("parity preserved across link %d,%d", s, mu)
			}
		}
	}
}

func TestParityBalance(t *testing.T) {
	g := MustNew(4, 4, 2, 6)
	n := 0
	for s := 0; s < g.Vol; s++ {
		if g.Parity(s) == 0 {
			n++
		}
	}
	if n != g.Vol/2 {
		t.Fatalf("even sites %d of %d", n, g.Vol)
	}
}

func TestOddExtentsRejected(t *testing.T) {
	if _, err := New([4]int{3, 4, 4, 4}); err == nil {
		t.Fatal("odd extent accepted")
	}
	if _, err := New([4]int{4, 4, 4, 1}); err == nil {
		t.Fatal("extent 1 accepted")
	}
}

// TestOversizedVolumeRejected: extents whose site count wraps int, or
// passes what the int32 neighbour tables index, are an error before
// anything is allocated. The wrapping cases come first: the others would
// ask for tens of gigabytes from a New without the check.
func TestOversizedVolumeRejected(t *testing.T) {
	for _, dims := range [][4]int{
		{1 << 32, 1 << 32, 2, 2}, // 2^66 sites: wraps to 0
		{1 << 30, 1 << 30, 4, 2}, // 2^63: wraps negative
		{1 << 16, 1 << 13, 2, 2}, // 2^31: one past the last int32 index
	} {
		if g, err := New(dims); err == nil {
			t.Fatalf("extents %v accepted with volume %d", dims, g.Vol)
		}
	}
}

func TestTimeSliceCoversLattice(t *testing.T) {
	g := MustNew(2, 2, 4, 6)
	total := 0
	for tt := 0; tt < g.T(); tt++ {
		sl := g.TimeSlice(tt)
		if len(sl) != g.Dims[0]*g.Dims[1]*g.Dims[2] {
			t.Fatalf("slice %d has %d sites", tt, len(sl))
		}
		for _, s := range sl {
			if g.Coords(s)[3] != tt {
				t.Fatalf("site %d not on slice %d", s, tt)
			}
		}
		total += len(sl)
	}
	if total != g.Vol {
		t.Fatalf("slices cover %d sites of %d", total, g.Vol)
	}
}

func TestEvenOddBijection(t *testing.T) {
	g := MustNew(4, 4, 4, 4)
	eo := NewEvenOdd(g)
	if len(eo.EOToLex[0]) != g.Vol/2 || len(eo.EOToLex[1]) != g.Vol/2 {
		t.Fatalf("parity blocks %d/%d", len(eo.EOToLex[0]), len(eo.EOToLex[1]))
	}
	for p := 0; p < 2; p++ {
		for i, lex := range eo.EOToLex[p] {
			if g.Parity(int(lex)) != p {
				t.Fatalf("parity table wrong at %d,%d", p, i)
			}
			if int(eo.LexToEO[lex]) != i {
				t.Fatalf("LexToEO not inverse at %d,%d", p, i)
			}
		}
	}
}

func TestEvenOddNeighborConsistency(t *testing.T) {
	g := MustNew(4, 4, 2, 4)
	eo := NewEvenOdd(g)
	for p := 0; p < 2; p++ {
		for i := 0; i < eo.HalfVol(); i++ {
			lex := int(eo.EOToLex[p][i])
			for mu := 0; mu < NDim; mu++ {
				nEO := int(eo.Hops[p][2*NDim*i+2*mu].Site)
				if int(eo.EOToLex[1-p][nEO]) != g.Fwd(lex, mu) {
					t.Fatalf("fwd EO neighbour mismatch p=%d i=%d mu=%d", p, i, mu)
				}
				nEO = int(eo.Hops[p][2*NDim*i+2*mu+1].Site)
				if int(eo.EOToLex[1-p][nEO]) != g.Bwd(lex, mu) {
					t.Fatalf("bwd EO neighbour mismatch p=%d i=%d mu=%d", p, i, mu)
				}
			}
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	g := MustNew(2, 2, 2, 4)
	eo := NewEvenOdd(g)
	perSite := 12
	src := make([]complex128, g.Vol*perSite)
	for i := range src {
		src[i] = complex(float64(i), -float64(i))
	}
	even := make([]complex128, eo.HalfVol()*perSite)
	odd := make([]complex128, eo.HalfVol()*perSite)
	eo.GatherParity(0, src, perSite, even)
	eo.GatherParity(1, src, perSite, odd)
	dst := make([]complex128, g.Vol*perSite)
	eo.ScatterParity(0, even, perSite, dst)
	eo.ScatterParity(1, odd, perSite, dst)
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}

func TestDecomposeBasics(t *testing.T) {
	d, err := Decompose([4]int{48, 48, 48, 64}, [4]int{2, 2, 2, 2}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ranks() != 16 {
		t.Fatalf("ranks = %d", d.Ranks())
	}
	if d.LocalVolume4D() != 24*24*24*32 {
		t.Fatalf("local volume = %d", d.LocalVolume4D())
	}
	if d.LocalVolume5D() != d.LocalVolume4D()*20 {
		t.Fatal("5-D volume wrong")
	}
	if d.SurfaceSites4D(0) != 24*24*32 {
		t.Fatalf("surface = %d", d.SurfaceSites4D(0))
	}
	want := 2 * 20 * (24*24*32*3 + 24*24*24)
	if d.HaloSites5D() != want {
		t.Fatalf("halo sites = %d, want %d", d.HaloSites5D(), want)
	}
	if d.PartitionedDims() != 4 {
		t.Fatal("partitioned dims")
	}
}

func TestDecomposeRejectsUneven(t *testing.T) {
	if _, err := Decompose([4]int{48, 48, 48, 64}, [4]int{5, 1, 1, 1}, 8); err == nil {
		t.Fatal("uneven split accepted")
	}
	if _, err := Decompose([4]int{4, 4, 4, 4}, [4]int{2, 2, 2, 2}, 8); err != nil {
		t.Fatalf("2-site local extent should be legal: %v", err)
	}
	if _, err := Decompose([4]int{4, 4, 4, 4}, [4]int{4, 1, 1, 1}, 8); err == nil {
		t.Fatal("1-site local extent accepted")
	}
}

func TestBestGridMinimizesSurface(t *testing.T) {
	// For a 48^3 x 64 lattice on 2 ranks, splitting t (the longest
	// direction) gives the smallest halo.
	d, err := BestGrid([4]int{48, 48, 48, 64}, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Grid != [4]int{1, 1, 1, 2} {
		t.Fatalf("grid = %v", d.Grid)
	}
	// Unachievable rank count errors out.
	if _, err := BestGrid([4]int{4, 4, 4, 4}, 8, 7); err == nil {
		t.Fatal("7 ranks on 4^4 accepted")
	}
}

func TestBestGridProperty(t *testing.T) {
	// Whatever grid BestGrid picks, it must be admissible and cover ranks.
	f := func(seed uint8) bool {
		ranks := 1 << (seed % 6) // 1..32
		d, err := BestGrid([4]int{16, 16, 16, 32}, 8, ranks)
		if err != nil {
			return false
		}
		global := 1
		for _, l := range d.Global {
			global *= l
		}
		return d.Ranks() == ranks && d.LocalVolume4D()*ranks == global
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
