// Package datatype implements an MPI derived-datatype engine that operates
// on real bytes: type construction (contiguous, vector, hvector, indexed,
// hindexed, struct, subarray, resized), commit-time flattening to an
// I/O vector, full and partial pack/unpack, and shape analysis used by the
// GPU path to offload packing onto 2D copy engines.
//
// Semantics follow MPI-1.1/2.2: a datatype is a type map — a sequence of
// (displacement, basic type) pairs. Size is the number of real data bytes;
// extent is ub−lb, the stride applied between consecutive elements when
// count > 1. Lower bounds may be negative (as with MPI_Type_create_struct);
// callers must then point base past the front of their buffer, exactly as
// in MPI.
package datatype

import (
	"errors"
	"fmt"
	"sort"
)

// Kind identifies the constructor that built a type.
type Kind uint8

const (
	KindPredefined Kind = iota
	KindContiguous
	KindVector
	KindHvector
	KindIndexed
	KindHindexed
	KindStruct
	KindSubarray
	KindResized
)

func (k Kind) String() string {
	switch k {
	case KindPredefined:
		return "predefined"
	case KindContiguous:
		return "contiguous"
	case KindVector:
		return "vector"
	case KindHvector:
		return "hvector"
	case KindIndexed:
		return "indexed"
	case KindHindexed:
		return "hindexed"
	case KindStruct:
		return "struct"
	case KindSubarray:
		return "subarray"
	case KindResized:
		return "resized"
	default:
		return fmt.Sprintf("Kind(%d)", k)
	}
}

// Segment is one contiguous piece of a flattened type: Len bytes at byte
// displacement Off from the buffer base.
type Segment struct {
	Off int
	Len int
}

// Datatype is an immutable (after Commit) MPI datatype.
type Datatype struct {
	name string
	kind Kind
	size int // true data bytes per element
	lb   int // lowest displacement touched (or set by Resized)
	ub   int // highest displacement+len touched (or set by Resized)

	committed bool
	iov       []Segment // flattened type map of ONE element, coalesced
	prefix    []int     // prefix[i] = total packed bytes before iov[i]

	// Commit-time canonicalization: when the element's own type map is a
	// uniform row grid (equal widths, constant pitch), Uniform2D answers
	// analytically from these three fields instead of materializing
	// SegmentsOf(count). Only meaningful for len(iov) > 1; single-segment
	// and contiguous cases are derived directly from iov[0].
	elemUniform bool
	elemWidth   int
	elemPitch   int

	// dataLo and dataHi bound the bytes one element's type map touches
	// (the true extent as [lo, hi)); the payload walks resolve their typed
	// memory from them once per call.
	dataLo, dataHi int

	planCache // lazily built per-(count, chunkBytes) chunk plans
}

// Predefined basic types.
var (
	Byte    = predefined("MPI_BYTE", 1)
	Char    = predefined("MPI_CHAR", 1)
	Int32   = predefined("MPI_INT", 4)
	Int64   = predefined("MPI_LONG_LONG", 8)
	Float32 = predefined("MPI_FLOAT", 4)
	Float64 = predefined("MPI_DOUBLE", 8)
)

func predefined(name string, size int) *Datatype {
	t := &Datatype{name: name, kind: KindPredefined, size: size, lb: 0, ub: size, dataHi: size}
	t.iov = []Segment{{0, size}}
	t.prefix = []int{0}
	t.committed = true
	return t
}

// Name returns a human-readable type name.
func (t *Datatype) Name() string { return t.name }

// Kind returns the constructor kind.
func (t *Datatype) Kind() Kind { return t.kind }

// Size returns the number of true data bytes in one element, like
// MPI_Type_size.
func (t *Datatype) Size() int { return t.size }

// Extent returns ub−lb, the element-to-element stride, like
// MPI_Type_get_extent.
func (t *Datatype) Extent() int { return t.ub - t.lb }

// LB and UB return the type bounds.
func (t *Datatype) LB() int { return t.lb }
func (t *Datatype) UB() int { return t.ub }

// Committed reports whether Commit has run.
func (t *Datatype) Committed() bool { return t.committed }

// String renders a short description.
func (t *Datatype) String() string {
	return fmt.Sprintf("%s(%s size=%d extent=%d)", t.name, t.kind, t.size, t.Extent())
}

var errUncommitted = errors.New("datatype: base type must be committed")

func checkBase(base *Datatype) error {
	if base == nil {
		return errors.New("datatype: nil base type")
	}
	if !base.committed {
		return errUncommitted
	}
	return nil
}

// Contiguous builds count consecutive copies of base
// (MPI_Type_contiguous).
func Contiguous(count int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("datatype: negative count %d", count)
	}
	t := &Datatype{
		name: fmt.Sprintf("contig(%d,%s)", count, base.name),
		kind: KindContiguous,
		size: count * base.size,
	}
	t.boundsFromBlocks(blocksOf(count, 1, base.Extent(), base))
	t.iovFromBlocks(blocksOf(count, 1, base.Extent(), base))
	return t, nil
}

// Vector builds count blocks of blocklen base elements, with the starts of
// consecutive blocks stride base-extents apart (MPI_Type_vector).
func Vector(count, blocklen, stride int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if count < 0 || blocklen < 0 {
		return nil, fmt.Errorf("datatype: negative vector dimensions (%d,%d)", count, blocklen)
	}
	t := &Datatype{
		name: fmt.Sprintf("vector(%d,%d,%d,%s)", count, blocklen, stride, base.name),
		kind: KindVector,
		size: count * blocklen * base.size,
	}
	bl := blocksOf(count, blocklen, stride*base.Extent(), base)
	t.boundsFromBlocks(bl)
	t.iovFromBlocks(bl)
	return t, nil
}

// Hvector is Vector with the stride given in bytes
// (MPI_Type_create_hvector).
func Hvector(count, blocklen, strideBytes int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if count < 0 || blocklen < 0 {
		return nil, fmt.Errorf("datatype: negative hvector dimensions (%d,%d)", count, blocklen)
	}
	t := &Datatype{
		name: fmt.Sprintf("hvector(%d,%d,%dB,%s)", count, blocklen, strideBytes, base.name),
		kind: KindHvector,
		size: count * blocklen * base.size,
	}
	bl := blocksOf(count, blocklen, strideBytes, base)
	t.boundsFromBlocks(bl)
	t.iovFromBlocks(bl)
	return t, nil
}

// Indexed builds blocks of blocklens[i] base elements at displacements
// displs[i] measured in base extents (MPI_Type_indexed).
func Indexed(blocklens, displs []int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("datatype: indexed lengths mismatch (%d vs %d)", len(blocklens), len(displs))
	}
	byteDispls := make([]int, len(displs))
	for i, d := range displs {
		byteDispls[i] = d * base.Extent()
	}
	t, err := hindexed(blocklens, byteDispls, base)
	if err != nil {
		return nil, err
	}
	t.kind = KindIndexed
	t.name = fmt.Sprintf("indexed(%d blocks,%s)", len(blocklens), base.name)
	return t, nil
}

// Hindexed is Indexed with displacements in bytes
// (MPI_Type_create_hindexed).
func Hindexed(blocklens, byteDispls []int, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if len(blocklens) != len(byteDispls) {
		return nil, fmt.Errorf("datatype: hindexed lengths mismatch (%d vs %d)", len(blocklens), len(byteDispls))
	}
	t, err := hindexed(blocklens, byteDispls, base)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("hindexed(%d blocks,%s)", len(blocklens), base.name)
	return t, nil
}

func hindexed(blocklens, byteDispls []int, base *Datatype) (*Datatype, error) {
	var bl []block
	size := 0
	for i := range blocklens {
		if blocklens[i] < 0 {
			return nil, fmt.Errorf("datatype: negative block length %d", blocklens[i])
		}
		bl = append(bl, block{off: byteDispls[i], count: blocklens[i], base: base})
		size += blocklens[i] * base.size
	}
	t := &Datatype{kind: KindHindexed, size: size}
	t.boundsFromBlocks(bl)
	t.iovFromBlocks(bl)
	return t, nil
}

// Struct builds a heterogeneous sequence: blocklens[i] elements of
// types[i] at byte displacement byteDispls[i] (MPI_Type_create_struct).
func Struct(blocklens, byteDispls []int, types []*Datatype) (*Datatype, error) {
	if len(blocklens) != len(byteDispls) || len(blocklens) != len(types) {
		return nil, errors.New("datatype: struct argument lengths mismatch")
	}
	var bl []block
	size := 0
	for i := range blocklens {
		if err := checkBase(types[i]); err != nil {
			return nil, err
		}
		if blocklens[i] < 0 {
			return nil, fmt.Errorf("datatype: negative block length %d", blocklens[i])
		}
		bl = append(bl, block{off: byteDispls[i], count: blocklens[i], base: types[i]})
		size += blocklens[i] * types[i].size
	}
	t := &Datatype{
		name: fmt.Sprintf("struct(%d members)", len(blocklens)),
		kind: KindStruct,
		size: size,
	}
	t.boundsFromBlocks(bl)
	t.iovFromBlocks(bl)
	return t, nil
}

// Order selects array storage order for Subarray.
type Order uint8

const (
	// RowMajor is C order: the last dimension is contiguous.
	RowMajor Order = iota
	// ColMajor is Fortran order: the first dimension is contiguous.
	ColMajor
)

// Subarray selects a subsizes-shaped region starting at starts within a
// sizes-shaped array of base elements (MPI_Type_create_subarray).
func Subarray(sizes, subsizes, starts []int, order Order, base *Datatype) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	n := len(sizes)
	if n == 0 || len(subsizes) != n || len(starts) != n {
		return nil, errors.New("datatype: subarray dimension mismatch")
	}
	for d := 0; d < n; d++ {
		if sizes[d] <= 0 || subsizes[d] <= 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			return nil, fmt.Errorf("datatype: subarray dim %d out of range (size=%d sub=%d start=%d)",
				d, sizes[d], subsizes[d], starts[d])
		}
	}
	// Normalize to row-major by reversing dimension order for ColMajor.
	sz, sub, st := sizes, subsizes, starts
	if order == ColMajor {
		sz, sub, st = reverse(sizes), reverse(subsizes), reverse(starts)
	}
	// Row-major strides in base elements.
	stride := make([]int, n)
	stride[n-1] = 1
	for d := n - 2; d >= 0; d-- {
		stride[d] = stride[d+1] * sz[d+1]
	}
	// Emit one block per contiguous run along the innermost dimension.
	var bl []block
	idx := make([]int, n-1)
	for {
		off := st[n-1] * stride[n-1]
		for d := 0; d < n-1; d++ {
			off += (st[d] + idx[d]) * stride[d]
		}
		bl = append(bl, block{off: off * base.Extent(), count: sub[n-1], base: base})
		// Advance the outer-dimension odometer.
		d := n - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < sub[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
	size := base.size
	for d := 0; d < n; d++ {
		size *= subsizes[d]
	}
	t := &Datatype{
		name: fmt.Sprintf("subarray(%dd,%s)", n, base.name),
		kind: KindSubarray,
		size: size,
	}
	t.iovFromBlocks(bl)
	// Subarray extent spans the whole array, per the MPI standard.
	t.lb = 0
	full := base.Extent()
	for d := 0; d < n; d++ {
		full *= sizes[d]
	}
	t.ub = full
	return t, nil
}

func reverse(a []int) []int {
	out := make([]int, len(a))
	for i, v := range a {
		out[len(a)-1-i] = v
	}
	return out
}

// Resized overrides a type's lower bound and extent
// (MPI_Type_create_resized). The type map is unchanged.
func Resized(base *Datatype, lb, extent int) (*Datatype, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if extent < 0 {
		return nil, fmt.Errorf("datatype: negative extent %d", extent)
	}
	t := &Datatype{
		name: fmt.Sprintf("resized(%s,lb=%d,ext=%d)", base.name, lb, extent),
		kind: KindResized,
		size: base.size,
		lb:   lb,
		ub:   lb + extent,
	}
	t.iov = append([]Segment(nil), base.iov...)
	return t, nil
}

// block is an intermediate flattening unit: count copies of base starting
// at byte offset off, laid out contiguously by base extent.
type block struct {
	off    int
	count  int
	base   *Datatype
	stride int // byte stride between copies; 0 means base extent
}

// blocksOf describes count blocks of blocklen base elements with the given
// byte stride between block starts.
func blocksOf(count, blocklen, strideBytes int, base *Datatype) []block {
	bl := make([]block, 0, count)
	for i := 0; i < count; i++ {
		bl = append(bl, block{off: i * strideBytes, count: blocklen, base: base})
	}
	return bl
}

// boundsFromBlocks computes lb/ub over the block list. An empty type map
// gets lb=ub=0.
func (t *Datatype) boundsFromBlocks(bl []block) {
	first := true
	for _, b := range bl {
		if b.count == 0 {
			continue
		}
		lo := b.off + b.base.lb
		hi := b.off + (b.count-1)*b.base.Extent() + b.base.ub
		if first {
			t.lb, t.ub = lo, hi
			first = false
			continue
		}
		if lo < t.lb {
			t.lb = lo
		}
		if hi > t.ub {
			t.ub = hi
		}
	}
}

// iovFromBlocks flattens the block list into t.iov with adjacent-segment
// coalescing.
func (t *Datatype) iovFromBlocks(bl []block) {
	var iov []Segment
	emit := func(off, n int) {
		if n == 0 {
			return
		}
		if len(iov) > 0 && iov[len(iov)-1].Off+iov[len(iov)-1].Len == off {
			iov[len(iov)-1].Len += n
			return
		}
		iov = append(iov, Segment{off, n})
	}
	for _, b := range bl {
		for i := 0; i < b.count; i++ {
			elemOff := b.off + i*b.base.Extent()
			for _, s := range b.base.iov {
				emit(elemOff+s.Off, s.Len)
			}
		}
	}
	t.iov = iov
}

// Commit finalizes the type for communication (MPI_Type_commit): it builds
// the packed-offset prefix table used by partial packing. Committing twice
// is a no-op.
func (t *Datatype) Commit() error {
	if t.committed {
		return nil
	}
	if t.overlaps() {
		return fmt.Errorf("datatype: %s has overlapping segments; packing would be ambiguous", t.name)
	}
	t.prefix = make([]int, len(t.iov))
	sum := 0
	for i, s := range t.iov {
		t.prefix[i] = sum
		sum += s.Len
	}
	if sum != t.size {
		return fmt.Errorf("datatype: internal error: iov covers %d bytes, size is %d", sum, t.size)
	}
	t.canonicalize()
	lo, ext := t.TrueExtent()
	t.dataLo, t.dataHi = lo, lo+ext
	t.committed = true
	return nil
}

// canonicalize precomputes the per-element row shape the analytic
// Uniform2D fast path answers from. Committed type maps are coalesced and
// overlap-free, so a uniform element always has pitch > width; the guard
// also rejects unsorted (negative-pitch) struct layouts.
func (t *Datatype) canonicalize() {
	t.elemUniform = false
	m := len(t.iov)
	if m < 2 {
		return
	}
	w := t.iov[0].Len
	pitch := t.iov[1].Off - t.iov[0].Off
	if pitch <= w {
		return
	}
	for i := 1; i < m; i++ {
		if t.iov[i].Len != w || t.iov[i].Off-t.iov[i-1].Off != pitch {
			return
		}
	}
	t.elemUniform, t.elemWidth, t.elemPitch = true, w, pitch
}

// MustCommit commits or panics; for statically correct test/benchmark
// types.
func (t *Datatype) MustCommit() *Datatype {
	if err := t.Commit(); err != nil {
		panic(err)
	}
	return t
}

// overlaps reports whether any two segments of one element overlap.
// (Overlap across elements — extent smaller than the data span — is legal
// for sends in MPI; within one element it would make unpacking ambiguous,
// and MPI forbids it for receives. We reject it at commit for simplicity.)
// Segments are sorted by offset and checked pairwise-adjacent, so commit
// stays O(n log n) even for types with millions of segments.
func (t *Datatype) overlaps() bool {
	segs := append([]Segment(nil), t.iov...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Off < segs[j].Off })
	for i := 1; i < len(segs); i++ {
		if segs[i].Off < segs[i-1].Off+segs[i-1].Len {
			return true
		}
	}
	return false
}

// IOV returns the flattened segment list of one element. The slice is
// shared; callers must not mutate it.
func (t *Datatype) IOV() []Segment { return t.iov }

// IsContiguous reports whether count elements of t occupy one gap-free
// byte range starting at displacement 0 — the layout for which pack and
// unpack degenerate to a single memcpy.
func (t *Datatype) IsContiguous() bool {
	if len(t.iov) == 0 {
		return true
	}
	return len(t.iov) == 1 && t.iov[0].Off == 0 && t.iov[0].Len == t.size && t.size == t.Extent()
}

// SegmentCount returns the number of distinct contiguous pieces in count
// elements, after cross-element coalescing. It is the per-segment cost
// driver for host packing models.
func (t *Datatype) SegmentCount(count int) int {
	if count <= 0 {
		return 0
	}
	if t.IsContiguous() {
		return 1
	}
	return count * len(t.iov)
}

// SegmentsOf returns the absolute segments of `count` elements: element i
// contributes its IOV shifted by i*Extent().
func (t *Datatype) SegmentsOf(count int) []Segment {
	out := make([]Segment, 0, count*len(t.iov))
	for i := 0; i < count; i++ {
		base := i * t.Extent()
		for _, s := range t.iov {
			if len(out) > 0 && out[len(out)-1].Off+out[len(out)-1].Len == base+s.Off {
				out[len(out)-1].Len += s.Len
				continue
			}
			out = append(out, Segment{base + s.Off, s.Len})
		}
	}
	return out
}

// Span returns the number of buffer bytes touched by count elements,
// measured from base+lb: (count-1)*extent + (ub-lb) for count > 0.
func (t *Datatype) Span(count int) int {
	if count <= 0 {
		return 0
	}
	return (count-1)*t.Extent() + (t.ub - t.lb)
}
