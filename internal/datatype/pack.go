package datatype

import (
	"fmt"
	"sort"

	"mv2sim/internal/mem"
)

// mustCommitted panics on use of an uncommitted type in a communication
// path — the same contract violation MPI reports as MPI_ERR_TYPE.
func (t *Datatype) mustCommitted() {
	if !t.committed {
		panic("datatype: " + t.name + " used before Commit")
	}
}

// Pack gathers count elements described by t from the typed buffer at src
// into the contiguous destination dst. dst must have room for
// count*Size() bytes. Only bytes move; timing is modeled elsewhere.
func (t *Datatype) Pack(dst, src mem.Ptr, count int) {
	t.mustCommitted()
	if t.IsContiguous() {
		mem.Copy(dst, src, count*t.size)
		return
	}
	if count > 0 {
		t.walk(dst.Bytes(count*t.size), src, count, true)
	}
}

// Unpack scatters count elements from the contiguous source src into the
// typed buffer at dst — the inverse of Pack.
func (t *Datatype) Unpack(dst, src mem.Ptr, count int) {
	t.mustCommitted()
	if t.IsContiguous() {
		mem.Copy(dst, src, count*t.size)
		return
	}
	if count > 0 {
		t.walk(src.Bytes(count*t.size), dst, count, false)
	}
}

// PackBytes gathers count elements from the typed buffer at src into the
// plain byte slice dst, which must hold count*Size() bytes. It is used to
// build eager-protocol payloads that live outside any simulated address
// space.
func (t *Datatype) PackBytes(dst []byte, src mem.Ptr, count int) {
	t.mustCommitted()
	if len(dst) < count*t.size {
		panic(fmt.Sprintf("datatype: PackBytes destination too small (%d < %d)", len(dst), count*t.size))
	}
	if t.IsContiguous() {
		copy(dst[:count*t.size], src.Bytes(count*t.size))
		return
	}
	if count > 0 {
		t.walk(dst[:count*t.size], src, count, true)
	}
}

// UnpackBytes scatters the packed byte slice src into the typed buffer at
// dst — the inverse of PackBytes.
func (t *Datatype) UnpackBytes(dst mem.Ptr, src []byte, count int) {
	t.mustCommitted()
	if len(src) < count*t.size {
		panic(fmt.Sprintf("datatype: UnpackBytes source too small (%d < %d)", len(src), count*t.size))
	}
	if t.IsContiguous() {
		copy(dst.Bytes(count*t.size), src[:count*t.size])
		return
	}
	if count > 0 {
		t.walk(src[:count*t.size], dst, count, false)
	}
}

// hull returns the typed-offset envelope [lo, hi) of count > 0 elements:
// element 0's lowest byte to element count-1's highest, extents being
// non-negative. It is exactly the range a whole-message walk touches, so
// resolving it once is the walk's bounds check.
func (t *Datatype) hull(count int) (lo, hi int) {
	return t.dataLo, (count-1)*t.Extent() + t.dataHi
}

// walk moves count > 0 elements between packed, which holds the whole
// packed stream, and the typed buffer at typed. The typed side is
// resolved once, as the elements' hull. Uniform row grids move as
// strided rows; other maps segment by segment.
func (t *Datatype) walk(packed []byte, typed mem.Ptr, count int, packing bool) {
	lo, hi := t.hull(count)
	b := typed.Add(lo).Bytes(hi - lo)
	if sh, ok := t.Uniform2D(count); ok {
		if packing {
			mem.CopyRows(packed, sh.Width, b, sh.Pitch, sh.Width, sh.Rows)
		} else {
			mem.CopyRows(b, sh.Pitch, packed, sh.Width, sh.Width, sh.Rows)
		}
		return
	}
	pos := 0
	for i := 0; i < count; i++ {
		elem := i*t.Extent() - lo
		for _, s := range t.iov {
			off := elem + s.Off
			if packing {
				copy(packed[pos:pos+s.Len], b[off:off+s.Len])
			} else {
				copy(b[off:off+s.Len], packed[pos:pos+s.Len])
			}
			pos += s.Len
		}
	}
}

// locate maps a packed-stream offset to (element, segment index, offset
// within segment). packOff must lie in [0, count*size).
func (t *Datatype) locate(packOff int) (elem, segIdx, segOff int) {
	elem = packOff / t.size
	rem := packOff % t.size
	// prefix is sorted; find the last segment whose prefix ≤ rem.
	segIdx = sort.Search(len(t.prefix), func(i int) bool { return t.prefix[i] > rem }) - 1
	segOff = rem - t.prefix[segIdx]
	return
}

// PackRange gathers the byte range [packOff, packOff+n) of the packed
// representation of count elements into dst. It is the partial-pack
// primitive that lets the pipeline process a large non-contiguous message
// chunk by chunk without materializing the whole packed buffer.
func (t *Datatype) PackRange(dst, src mem.Ptr, count, packOff, n int) {
	t.copyRange(dst, src, count, packOff, n, true)
}

// UnpackRange scatters the byte range [packOff, packOff+n) of the packed
// stream from src into the typed buffer at dst — the inverse of PackRange.
func (t *Datatype) UnpackRange(dst, src mem.Ptr, count, packOff, n int) {
	t.copyRange(dst, src, count, packOff, n, false)
}

func (t *Datatype) copyRange(a, b mem.Ptr, count, packOff, n int, packing bool) {
	t.mustCommitted()
	if n == 0 {
		return
	}
	total := count * t.size
	if packOff < 0 || n < 0 || packOff+n > total {
		panic(fmt.Sprintf("datatype: range [%d,%d) outside packed size %d", packOff, packOff+n, total))
	}
	if t.size == 0 {
		return
	}
	if t.IsContiguous() {
		if packing {
			mem.Copy(a, b.Add(packOff), n)
		} else {
			mem.Copy(a.Add(packOff), b, n)
		}
		return
	}
	elem, segIdx, segOff := t.locate(packOff)
	pos := 0 // progress within the requested range
	for pos < n {
		seg := t.iov[segIdx]
		take := seg.Len - segOff
		if take > n-pos {
			take = n - pos
		}
		typedOff := elem*t.Extent() + seg.Off + segOff
		if packing {
			mem.Copy(a.Add(pos), b.Add(typedOff), take)
		} else {
			mem.Copy(a.Add(typedOff), b.Add(pos), take)
		}
		pos += take
		segOff += take
		if segOff == seg.Len {
			segOff = 0
			segIdx++
			if segIdx == len(t.iov) {
				segIdx = 0
				elem++
			}
		}
	}
}

// Shape2D describes a uniform strided layout equivalent to the type map of
// `count` elements: Rows rows of Width bytes, Pitch bytes apart. It is
// exactly the geometry cudaMemcpy2D accepts, so any type with a Shape2D
// can be packed by the GPU's copy engine in one operation — the offload
// the paper builds on.
type Shape2D struct {
	Off   int // byte offset of the first row from the buffer base
	Width int // bytes per row
	Pitch int // bytes between row starts
	Rows  int
}

// Uniform2D reports whether count elements of t form a uniform 2D shape,
// and returns it. Vectors of fixed-size blocks qualify; indexed or struct
// types with irregular gaps do not. A fully contiguous region qualifies
// with Rows == 1.
//
// The answer is computed in O(1) from the element shape canonicalized at
// Commit time — no segment list is materialized, so calling this per
// message (as the transport's planFor does) allocates nothing. The
// uncached uniform2DSlow derivation is kept for cross-validation.
func (t *Datatype) Uniform2D(count int) (Shape2D, bool) {
	t.mustCommitted()
	m := len(t.iov)
	if count <= 0 || m == 0 {
		return Shape2D{}, false
	}
	off := t.iov[0].Off
	if m == 1 {
		w := t.iov[0].Len
		if count == 1 {
			return Shape2D{Off: off, Width: w, Pitch: w, Rows: 1}, true
		}
		switch ext := t.Extent(); {
		case w == ext:
			// Consecutive elements butt together: one contiguous run.
			return Shape2D{Off: off, Width: count * w, Pitch: count * w, Rows: 1}, true
		case w < ext:
			// One row per element, extent apart.
			return Shape2D{Off: off, Width: w, Pitch: ext, Rows: count}, true
		default:
			// Extent shrunk below the data span (Resized): rows overlap.
			return Shape2D{}, false
		}
	}
	if !t.elemUniform {
		return Shape2D{}, false
	}
	if count == 1 {
		return Shape2D{Off: off, Width: t.elemWidth, Pitch: t.elemPitch, Rows: m}, true
	}
	// Across elements the grid continues only if the gap from the last row
	// of one element to the first row of the next equals the row pitch.
	if t.Extent()+off-t.iov[m-1].Off != t.elemPitch {
		return Shape2D{}, false
	}
	return Shape2D{Off: off, Width: t.elemWidth, Pitch: t.elemPitch, Rows: count * m}, true
}

// uniform2DSlow is the original derivation of Uniform2D: expand the full
// segment list and test it for uniformity. Retained as the ground truth
// the analytic fast path is validated against in tests.
func (t *Datatype) uniform2DSlow(count int) (Shape2D, bool) {
	t.mustCommitted()
	if count <= 0 || len(t.iov) == 0 {
		return Shape2D{}, false
	}
	segs := t.SegmentsOf(count)
	if len(segs) == 1 {
		return Shape2D{Off: segs[0].Off, Width: segs[0].Len, Pitch: segs[0].Len, Rows: 1}, true
	}
	width := segs[0].Len
	pitch := segs[1].Off - segs[0].Off
	if pitch < width {
		return Shape2D{}, false
	}
	for i, s := range segs {
		if s.Len != width {
			return Shape2D{}, false
		}
		if i > 0 && s.Off-segs[i-1].Off != pitch {
			return Shape2D{}, false
		}
	}
	return Shape2D{Off: segs[0].Off, Width: width, Pitch: pitch, Rows: len(segs)}, true
}
