package hio

import (
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestGroupTreeAndAttrs(t *testing.T) {
	f := New()
	cfg, err := f.Root().CreateGroup("config0042")
	if err != nil {
		t.Fatal(err)
	}
	cfg.SetAttr("ensemble", "a09m310")
	cfg.SetAttrFloat("beta", 6.3)
	props, err := cfg.CreateGroup("props")
	if err != nil {
		t.Fatal(err)
	}
	// Resolution by path.
	got, err := f.Root().Group("config0042/props")
	if err != nil || got != props {
		t.Fatalf("path resolution: %v", err)
	}
	if v, ok := cfg.Attr("ensemble"); !ok || v != "a09m310" {
		t.Fatal("attr")
	}
	if b, err := cfg.AttrFloat("beta"); err != nil || b != 6.3 {
		t.Fatalf("float attr: %v %v", b, err)
	}
	if _, err := cfg.AttrFloat("missing"); err == nil {
		t.Fatal("missing attr accepted")
	}
	// CreateGroup is idempotent.
	again, err := cfg.CreateGroup("props")
	if err != nil || again != props {
		t.Fatal("CreateGroup not idempotent")
	}
}

func TestDatasetRoundTripsAllKinds(t *testing.T) {
	f := New()
	g := f.Root()
	c := []complex128{1 + 2i, -3, 0, 5i}
	if err := g.WriteComplex128("prop", []int{2, 2}, c); err != nil {
		t.Fatal(err)
	}
	r := []float64{3.14, -2.71}
	if err := g.WriteFloat64("corr", []int{2}, r); err != nil {
		t.Fatal(err)
	}
	iv := []int64{-9, 42}
	if err := g.WriteInt64("dims", []int{2}, iv); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBytes("blob", []byte("hello")); err != nil {
		t.Fatal(err)
	}

	shape, cc, err := g.ReadComplex128("prop")
	if err != nil || shape[0] != 2 || shape[1] != 2 {
		t.Fatalf("complex: %v %v", shape, err)
	}
	for i := range c {
		if cc[i] != c[i] {
			t.Fatal("complex data")
		}
	}
	_, rr, err := g.ReadFloat64("corr")
	if err != nil || rr[0] != 3.14 || rr[1] != -2.71 {
		t.Fatalf("float: %v", err)
	}
	_, ii, err := g.ReadInt64("dims")
	if err != nil || ii[0] != -9 || ii[1] != 42 {
		t.Fatalf("int: %v", err)
	}
	b, err := g.ReadBytes("blob")
	if err != nil || string(b) != "hello" {
		t.Fatalf("bytes: %v", err)
	}
}

func TestKindMismatchRejected(t *testing.T) {
	f := New()
	g := f.Root()
	if err := g.WriteFloat64("x", []int{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.ReadComplex128("x"); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, _, err := g.ReadFloat64("missing"); err == nil {
		t.Fatal("missing dataset accepted")
	}
}

func TestShapeValidation(t *testing.T) {
	f := New()
	g := f.Root()
	if err := g.WriteFloat64("x", []int{3}, []float64{1, 2}); err == nil {
		t.Fatal("shape/data mismatch accepted")
	}
	if err := g.WriteFloat64("x", []int{0}, nil); err == nil {
		t.Fatal("zero-extent shape accepted")
	}
	if err := g.WriteFloat64("a/b", []int{1}, []float64{1}); err == nil {
		t.Fatal("slash in name accepted")
	}
}

func TestNameCollisionsRejected(t *testing.T) {
	f := New()
	g := f.Root()
	if _, err := g.CreateGroup("x"); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteFloat64("x", []int{1}, []float64{1}); err == nil {
		t.Fatal("dataset over group accepted")
	}
	if err := g.WriteFloat64("y", []int{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreateGroup("y"); err == nil {
		t.Fatal("group over dataset accepted")
	}
}

func TestFileSaveLoadRoundTrip(t *testing.T) {
	f := New()
	cfg, _ := f.Root().CreateGroup("cfg")
	cfg.SetAttr("machine", "Sierra")
	rng := rand.New(rand.NewSource(1))
	data := make([]complex128, 1024)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if err := cfg.WriteComplex128("prop", []int{8, 128}, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.fhio")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	f2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := f2.Root().Group("cfg")
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := cfg2.Attr("machine"); m != "Sierra" {
		t.Fatal("attr lost")
	}
	shape, got, err := cfg2.ReadComplex128("prop")
	if err != nil {
		t.Fatal(err)
	}
	if shape[0] != 8 || shape[1] != 128 {
		t.Fatalf("shape %v", shape)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatal("data corrupted in round trip")
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	f := New()
	if err := f.Root().WriteFloat64("x", []int{4}, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	enc := f.Encode()
	// Flip a payload byte near the end.
	enc[len(enc)-5] ^= 0xFF
	if _, err := Decode(enc); err == nil {
		t.Fatal("bit flip not detected")
	}
	// Truncation detected too.
	if _, err := Decode(enc[:len(enc)-9]); err == nil {
		t.Fatal("truncation not detected")
	}
	// Wrong magic.
	if _, err := Decode([]byte("NOPE1234")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestListingIsSorted(t *testing.T) {
	g := New().Root()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := g.WriteFloat64(n, []int{1}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	ds := g.Datasets()
	if len(ds) != 3 || ds[0] != "alpha" || ds[1] != "mid" || ds[2] != "zeta" {
		t.Fatalf("datasets %v", ds)
	}
}

func TestEncodeDecodePropertyRoundTrip(t *testing.T) {
	fn := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := New()
		g, _ := f.Root().CreateGroup("g")
		data := make([]float64, int(n%16)+1)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		if err := g.WriteFloat64("d", []int{len(data)}, data); err != nil {
			return false
		}
		f2, err := Decode(f.Encode())
		if err != nil {
			return false
		}
		g2, err := f2.Root().Group("g")
		if err != nil {
			return false
		}
		_, got, err := g2.ReadFloat64("d")
		if err != nil || len(got) != len(data) {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
