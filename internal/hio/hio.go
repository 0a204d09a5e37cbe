// Package hio is a hierarchical binary container standing in for the
// parallel HDF5 library of the paper's workflow [Kurth et al., PoS
// LATTICE2014 045]: gauge configurations, propagators and correlator
// results are written and re-read between workflow stages as named,
// typed, shaped datasets organised into groups with scalar attributes.
// Every dataset carries a CRC-32 checksum verified on read, and the
// paper's I/O accounting (0.5% of application time) is measured over this
// code path.
package hio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Kind enumerates dataset element types.
type Kind uint8

const (
	// Float64 datasets hold real numbers.
	Float64 Kind = iota + 1
	// Complex128 datasets hold complex numbers (interleaved re, im).
	Complex128
	// Int64 datasets hold integers.
	Int64
	// Bytes datasets hold opaque bytes.
	Bytes
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Float64:
		return "float64"
	case Complex128:
		return "complex128"
	case Int64:
		return "int64"
	case Bytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

func (k Kind) elemSize() int {
	switch k {
	case Float64, Int64:
		return 8
	case Complex128:
		return 16
	case Bytes:
		return 1
	default:
		return 0
	}
}

// Dataset is a typed, shaped array with a checksum.
type Dataset struct {
	Name  string
	Kind  Kind
	Shape []int
	raw   []byte
	crc   uint32
}

// Len returns the element count implied by the shape.
func (d *Dataset) Len() int {
	n := 1
	for _, s := range d.Shape {
		n *= s
	}
	return n
}

// Group is a node of the container tree.
type Group struct {
	name     string
	attrs    map[string]string
	children map[string]*Group
	datasets map[string]*Dataset
}

func newGroup(name string) *Group {
	return &Group{
		name:     name,
		attrs:    map[string]string{},
		children: map[string]*Group{},
		datasets: map[string]*Dataset{},
	}
}

// File is an in-memory container serializable to disk.
type File struct {
	root *Group
}

// New returns an empty container.
func New() *File { return &File{root: newGroup("/")} }

// Root returns the root group.
func (f *File) Root() *Group { return f.root }

// CreateGroup adds (or returns the existing) child group.
func (g *Group) CreateGroup(name string) (*Group, error) {
	if name == "" || strings.Contains(name, "/") {
		return nil, fmt.Errorf("hio: bad group name %q", name)
	}
	if _, clash := g.datasets[name]; clash {
		return nil, fmt.Errorf("hio: %q already names a dataset", name)
	}
	if c, ok := g.children[name]; ok {
		return c, nil
	}
	c := newGroup(name)
	g.children[name] = c
	return c, nil
}

// Group resolves a slash-separated path below g.
func (g *Group) Group(path string) (*Group, error) {
	cur := g
	for _, part := range strings.Split(path, "/") {
		if part == "" {
			continue
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("hio: no group %q under %q", part, cur.name)
		}
		cur = next
	}
	return cur, nil
}

// SetAttr stores a string attribute.
func (g *Group) SetAttr(key, value string) { g.attrs[key] = value }

// SetAttrFloat stores a float attribute.
func (g *Group) SetAttrFloat(key string, value float64) {
	g.attrs[key] = fmt.Sprintf("%.17g", value)
}

// Attr fetches an attribute.
func (g *Group) Attr(key string) (string, bool) {
	v, ok := g.attrs[key]
	return v, ok
}

// AttrFloat fetches a float attribute.
func (g *Group) AttrFloat(key string) (float64, error) {
	v, ok := g.attrs[key]
	if !ok {
		return 0, fmt.Errorf("hio: no attribute %q", key)
	}
	var f float64
	if _, err := fmt.Sscanf(v, "%g", &f); err != nil {
		return 0, fmt.Errorf("hio: attribute %q = %q is not numeric", key, v)
	}
	return f, nil
}

// Datasets lists dataset names, sorted.
func (g *Group) Datasets() []string {
	out := make([]string, 0, len(g.datasets))
	for n := range g.datasets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (g *Group) put(name string, k Kind, shape []int, raw []byte) error {
	if name == "" || strings.Contains(name, "/") {
		return fmt.Errorf("hio: bad dataset name %q", name)
	}
	if _, clash := g.children[name]; clash {
		return fmt.Errorf("hio: %q already names a group", name)
	}
	if err := checkShape(k, shape, len(raw)); err != nil {
		return err
	}
	g.datasets[name] = &Dataset{
		Name: name, Kind: k, Shape: append([]int(nil), shape...),
		raw: raw, crc: crc32.ChecksumIEEE(raw),
	}
	return nil
}

// checkShape holds a dataset's shape to its size bytes of kind k: every
// extent positive and their product, times k's element size, exactly
// size. The product is held to the bytes before it can overflow, so a
// decoded shape never names more elements than its data holds - the
// readers below allocate by it.
func checkShape(k Kind, shape []int, size int) error {
	es := k.elemSize()
	if es == 0 {
		return fmt.Errorf("hio: unknown dataset kind %d", k)
	}
	n := 1
	for _, s := range shape {
		if s <= 0 || n > size/es/s {
			return fmt.Errorf("hio: shape %v does not fit %d bytes of %v", shape, size, k)
		}
		n *= s
	}
	if n*es != size {
		return fmt.Errorf("hio: shape %v implies %d bytes, got %d", shape, n*es, size)
	}
	return nil
}

func (g *Group) get(name string, k Kind) (*Dataset, error) {
	d, ok := g.datasets[name]
	if !ok {
		return nil, fmt.Errorf("hio: no dataset %q in group %q", name, g.name)
	}
	if d.Kind != k {
		return nil, fmt.Errorf("hio: dataset %q is %v, asked for %v", name, d.Kind, k)
	}
	if crc32.ChecksumIEEE(d.raw) != d.crc {
		return nil, fmt.Errorf("hio: dataset %q failed its checksum", name)
	}
	return d, nil
}

// WriteComplex128 stores a complex dataset.
func (g *Group) WriteComplex128(name string, shape []int, data []complex128) error {
	raw := make([]byte, 16*len(data))
	for i, c := range data {
		binary.LittleEndian.PutUint64(raw[16*i:], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(raw[16*i+8:], math.Float64bits(imag(c)))
	}
	return g.put(name, Complex128, shape, raw)
}

// ReadComplex128 fetches a complex dataset and its shape.
func (g *Group) ReadComplex128(name string) ([]int, []complex128, error) {
	d, err := g.get(name, Complex128)
	if err != nil {
		return nil, nil, err
	}
	out := make([]complex128, d.Len())
	for i := range out {
		re := math.Float64frombits(binary.LittleEndian.Uint64(d.raw[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(d.raw[16*i+8:]))
		out[i] = complex(re, im)
	}
	return append([]int(nil), d.Shape...), out, nil
}

// WriteFloat64 stores a real dataset.
func (g *Group) WriteFloat64(name string, shape []int, data []float64) error {
	raw := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return g.put(name, Float64, shape, raw)
}

// ReadFloat64 fetches a real dataset and its shape.
func (g *Group) ReadFloat64(name string) ([]int, []float64, error) {
	d, err := g.get(name, Float64)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.raw[8*i:]))
	}
	return append([]int(nil), d.Shape...), out, nil
}

// WriteInt64 stores an integer dataset.
func (g *Group) WriteInt64(name string, shape []int, data []int64) error {
	raw := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
	}
	return g.put(name, Int64, shape, raw)
}

// ReadInt64 fetches an integer dataset and its shape.
func (g *Group) ReadInt64(name string) ([]int, []int64, error) {
	d, err := g.get(name, Int64)
	if err != nil {
		return nil, nil, err
	}
	out := make([]int64, d.Len())
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(d.raw[8*i:]))
	}
	return append([]int(nil), d.Shape...), out, nil
}

// WriteBytes stores an opaque byte dataset.
func (g *Group) WriteBytes(name string, data []byte) error {
	return g.put(name, Bytes, []int{len(data)}, append([]byte(nil), data...))
}

// ReadBytes fetches an opaque byte dataset.
func (g *Group) ReadBytes(name string) ([]byte, error) {
	d, err := g.get(name, Bytes)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), d.raw...), nil
}

// Serialization: little-endian, length-prefixed strings, depth-first tree.

const magic = "FHIO"
const version = uint32(1)

type writer struct {
	buf []byte
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) group(g *Group) {
	w.str(g.name)
	w.u32(uint32(len(g.attrs)))
	for _, k := range sortedKeys(g.attrs) {
		w.str(k)
		w.str(g.attrs[k])
	}
	w.u32(uint32(len(g.datasets)))
	for _, name := range sortedDatasetNames(g.datasets) {
		d := g.datasets[name]
		w.str(d.Name)
		w.buf = append(w.buf, byte(d.Kind))
		w.u32(uint32(len(d.Shape)))
		for _, s := range d.Shape {
			w.u32(uint32(s))
		}
		w.u32(d.crc)
		w.bytes(d.raw)
	}
	w.u32(uint32(len(g.children)))
	for _, name := range sortedGroupNames(g.children) {
		w.group(g.children[name])
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedDatasetNames(m map[string]*Dataset) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedGroupNames(m map[string]*Group) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Encode renders the container to bytes.
func (f *File) Encode() []byte {
	w := &writer{}
	w.buf = append(w.buf, magic...)
	w.u32(version)
	w.group(f.root)
	return w.buf
}

// Save writes the container to a file atomically: the bytes land in a
// temporary file in the same directory, are fsynced, and replace any
// existing file at path with a single rename. A crash - or an allocation
// drain that kills the process mid-checkpoint - therefore leaves either
// the complete old container or the complete new one, never a torn file.
func (f *File) Save(path string) error {
	return atomicWriteFile(path, f.Encode())
}

// atomicWriteFile is the temp-file + fsync + rename idiom. The temporary
// file is created in path's own directory so the rename never crosses a
// filesystem boundary, and the directory is fsynced afterwards so the
// rename itself is durable. On failure the temporary file is removed and
// any cleanup error is joined onto the primary one.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := writeSyncClose(tmp, data); err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	return syncDir(dir)
}

// writeSyncClose writes data, forces it to stable storage, sets the
// container's permanent mode, and closes the file; the file is closed on
// every path.
func writeSyncClose(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Chmod(0o644); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return errors.Join(err, d.Close())
	}
	return d.Close()
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("hio: truncated file at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.buf) {
		return "", fmt.Errorf("hio: truncated string at offset %d", r.off)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.off+int(n) > len(r.buf) {
		return nil, fmt.Errorf("hio: truncated payload at offset %d", r.off)
	}
	b := append([]byte(nil), r.buf[r.off:r.off+int(n)]...)
	r.off += int(n)
	return b, nil
}

func (r *reader) group() (*Group, error) {
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	g := newGroup(name)
	nAttr, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nAttr; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.str()
		if err != nil {
			return nil, err
		}
		g.attrs[k] = v
	}
	nDS, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nDS; i++ {
		dn, err := r.str()
		if err != nil {
			return nil, err
		}
		if r.off >= len(r.buf) {
			return nil, fmt.Errorf("hio: truncated dataset header")
		}
		kind := Kind(r.buf[r.off])
		r.off++
		nShape, err := r.u32()
		if err != nil {
			return nil, err
		}
		// Bound the allocation by the bytes actually present: each shape
		// entry is 4 bytes, so a corrupt count cannot force a huge make.
		if int64(nShape)*4 > int64(len(r.buf)-r.off) {
			return nil, fmt.Errorf("hio: truncated shape at offset %d", r.off)
		}
		shape := make([]int, nShape)
		for j := range shape {
			v, err := r.u32()
			if err != nil {
				return nil, err
			}
			shape[j] = int(v)
		}
		crc, err := r.u32()
		if err != nil {
			return nil, err
		}
		raw, err := r.bytes()
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(raw) != crc {
			return nil, fmt.Errorf("hio: dataset %q corrupt (checksum mismatch)", dn)
		}
		if err := checkShape(kind, shape, len(raw)); err != nil {
			return nil, fmt.Errorf("hio: dataset %q: %w", dn, err)
		}
		g.datasets[dn] = &Dataset{Name: dn, Kind: kind, Shape: shape, raw: raw, crc: crc}
	}
	nChild, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nChild; i++ {
		c, err := r.group()
		if err != nil {
			return nil, err
		}
		g.children[c.name] = c
	}
	return g, nil
}

// Decode parses a container from bytes.
func Decode(data []byte) (*File, error) {
	if len(data) < 8 || string(data[:4]) != magic {
		return nil, fmt.Errorf("hio: not a container file")
	}
	r := &reader{buf: data, off: 4}
	v, err := r.u32()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("hio: unsupported version %d", v)
	}
	root, err := r.group()
	if err != nil {
		return nil, err
	}
	return &File{root: root}, nil
}

// Load reads a container from a file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hio: %w", err)
	}
	return Decode(data)
}
