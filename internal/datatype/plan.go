// Chunk-aligned pack plans. The pipeline moves a non-contiguous message
// as a sequence of fixed-size packed chunks; without a plan every chunk
// re-derives its segment list from the type map (a divide, a binary
// search, and per-segment bookkeeping in copyRange). A ChunkPlan does that
// derivation once per (count, chunkBytes) pair and caches the result on
// the datatype, so the steady-state chunk path is a straight walk over a
// precomputed []chunkSeg slice with zero allocations — the commit-time
// canonicalization real CUDA-aware MPI implementations use (TEMPI,
// arXiv:2012.14363).
//
// A range walk resolves its memory once: the packed side as the range
// itself, the typed side as the union of its chunks' precomputed typed
// hulls. That one mem bounds check per side replaces one per segment,
// and the per-segment loop indexes plain slices.
package datatype

import (
	"fmt"
	"sync"

	"mv2sim/internal/mem"
)

// chunkSeg is one contiguous copy of a chunk plan: Len bytes at TypedOff
// in the typed buffer, landing at absolute offset PackOff in the packed
// stream. Segments never straddle a chunk boundary.
type chunkSeg struct {
	typedOff int
	packOff  int
	len      int
}

// ChunkPlan is the precomputed chunk-aligned pack plan for `count`
// elements of one datatype split into chunkBytes-sized packed chunks. It
// is immutable and safe for concurrent use.
type ChunkPlan struct {
	t          *Datatype
	count      int
	chunkBytes int
	total      int // count * size
	segs       []chunkSeg
	index      []int  // segs[index[c]:index[c+1]] belong to chunk c
	hull       []span // hull[c] is the typed-offset envelope of chunk c

	// rows is the plan's row grid when count elements form a Uniform2D
	// shape whose rows never straddle a chunk boundary, else zero; the
	// range walk then moves rows with mem.CopyRows instead of visiting
	// segments.
	rows Shape2D
}

// span is a half-open typed-offset interval [lo, hi).
type span struct{ lo, hi int }

type planKey struct {
	count      int
	chunkBytes int
}

// ChunkPlan returns the (cached) plan for packing count elements of t in
// chunkBytes-sized chunks. The first call per (count, chunkBytes) builds
// the plan in one pass over the expanded type map; later calls are a map
// lookup. The cache lives on the committed type, which is otherwise
// immutable, so shared predefined types guard it with a mutex.
func (t *Datatype) ChunkPlan(count, chunkBytes int) *ChunkPlan {
	t.mustCommitted()
	if count < 0 || chunkBytes <= 0 {
		panic(fmt.Sprintf("datatype: invalid plan geometry (count=%d chunkBytes=%d)", count, chunkBytes))
	}
	key := planKey{count, chunkBytes}
	t.planMu.Lock()
	defer t.planMu.Unlock()
	if p, ok := t.plans[key]; ok {
		return p
	}
	p := t.buildPlan(count, chunkBytes)
	if t.plans == nil {
		t.plans = map[planKey]*ChunkPlan{}
	}
	t.plans[key] = p
	return p
}

// buildPlan walks the packed stream of count elements once, splitting the
// type map's segments at chunk boundaries and coalescing typed-contiguous
// neighbours within a chunk (cross-element coalescing included).
func (t *Datatype) buildPlan(count, chunkBytes int) *ChunkPlan {
	total := count * t.size
	chunks := (total + chunkBytes - 1) / chunkBytes
	p := &ChunkPlan{t: t, count: count, chunkBytes: chunkBytes, total: total}
	p.index = make([]int, chunks+1)
	p.hull = make([]span, chunks)
	if total == 0 {
		return p
	}
	packOff := 0
	emit := func(typedOff, n int) {
		for n > 0 {
			c := packOff / chunkBytes
			take := n
			if room := (c+1)*chunkBytes - packOff; take > room {
				take = room
			}
			if k := len(p.segs) - 1; k >= 0 &&
				p.segs[k].packOff+p.segs[k].len == packOff &&
				p.segs[k].typedOff+p.segs[k].len == typedOff &&
				p.segs[k].packOff/chunkBytes == c {
				p.segs[k].len += take
			} else {
				p.segs = append(p.segs, chunkSeg{typedOff: typedOff, packOff: packOff, len: take})
			}
			packOff += take
			typedOff += take
			n -= take
		}
	}
	for i := 0; i < count; i++ {
		base := i * t.Extent()
		for _, s := range t.iov {
			emit(base+s.Off, s.Len)
		}
	}
	k := 0
	for c := 0; c < chunks; c++ {
		p.index[c] = k
		end := (c + 1) * chunkBytes
		if end > total {
			end = total
		}
		h := span{lo: p.segs[k].typedOff, hi: p.segs[k].typedOff + p.segs[k].len}
		for k < len(p.segs) && p.segs[k].packOff < end {
			h.lo = min(h.lo, p.segs[k].typedOff)
			h.hi = max(h.hi, p.segs[k].typedOff+p.segs[k].len)
			k++
		}
		p.hull[c] = h
	}
	p.index[chunks] = len(p.segs)
	if sh, ok := t.Uniform2D(count); ok && sh.Rows > 1 && chunkBytes%sh.Width == 0 {
		p.rows = sh
	}
	return p
}

// Chunks returns the number of chunks in the plan.
func (p *ChunkPlan) Chunks() int { return len(p.index) - 1 }

// ChunkBytes returns the plan's chunk size.
func (p *ChunkPlan) ChunkBytes() int { return p.chunkBytes }

// Total returns the packed byte count covered by the plan.
func (p *ChunkPlan) Total() int { return p.total }

// ChunkLen returns the packed length of chunk c (only the final chunk may
// be short).
func (p *ChunkPlan) ChunkLen(c int) int {
	n := p.total - c*p.chunkBytes
	if n > p.chunkBytes {
		n = p.chunkBytes
	}
	return n
}

// SegmentCount returns the number of contiguous copies chunk c takes —
// the per-segment cost driver for pack-kernel models.
func (p *ChunkPlan) SegmentCount(c int) int { return p.index[c+1] - p.index[c] }

// checkAligned enforces the plan contract: ranges start on a chunk
// boundary and end on one (or at the end of the stream).
func (p *ChunkPlan) checkAligned(packOff, n int) {
	if packOff < 0 || n < 0 || packOff+n > p.total ||
		packOff%p.chunkBytes != 0 ||
		((packOff+n)%p.chunkBytes != 0 && packOff+n != p.total) {
		panic(fmt.Sprintf("datatype: plan range [%d,%d) not chunk-aligned (chunk=%d total=%d)",
			packOff, packOff+n, p.chunkBytes, p.total))
	}
}

// PackRange gathers the packed byte range [packOff, packOff+n) into dst,
// where dst addresses the range itself (dst byte 0 holds packed byte
// packOff). The range must be chunk-aligned per checkAligned. The walk
// touches only the precomputed segments and allocates nothing.
func (p *ChunkPlan) PackRange(dst, src mem.Ptr, packOff, n int) {
	p.copyRange(dst, src, packOff, n, true)
}

// UnpackRange scatters the packed byte range [packOff, packOff+n) from
// src into the typed buffer at dst — the inverse of PackRange.
func (p *ChunkPlan) UnpackRange(dst, src mem.Ptr, packOff, n int) {
	p.copyRange(dst, src, packOff, n, false)
}

// PackChunk gathers chunk c into dst (chunk-local addressing).
func (p *ChunkPlan) PackChunk(dst, src mem.Ptr, c int) {
	p.copyRange(dst, src, c*p.chunkBytes, p.ChunkLen(c), true)
}

// UnpackChunk scatters chunk c from src into the typed buffer at dst.
func (p *ChunkPlan) UnpackChunk(dst, src mem.Ptr, c int) {
	p.copyRange(dst, src, c*p.chunkBytes, p.ChunkLen(c), false)
}

// chunkSpan returns the chunks [c0, c1) the chunk-aligned range
// [packOff, packOff+n) covers.
func (p *ChunkPlan) chunkSpan(packOff, n int) (c0, c1 int) {
	return packOff / p.chunkBytes, (packOff + n + p.chunkBytes - 1) / p.chunkBytes
}

// rangeHull returns the typed-offset envelope of chunks [c0, c1): exactly
// the typed bytes a walk over them touches, so resolving it is the walk's
// whole bounds check — range-local, never wider than the chunks asked for.
func (p *ChunkPlan) rangeHull(c0, c1 int) span {
	h := p.hull[c0]
	for _, g := range p.hull[c0+1 : c1] {
		h.lo, h.hi = min(h.lo, g.lo), max(h.hi, g.hi)
	}
	return h
}

func (p *ChunkPlan) copyRange(a, b mem.Ptr, packOff, n int, packing bool) {
	if n == 0 {
		return
	}
	p.checkAligned(packOff, n)
	packed, typed := a, b
	if !packing {
		packed, typed = b, a
	}
	p.walk(packed.Bytes(n), typed, packOff, packing)
}

// walk moves the chunk-aligned packed range starting at stream offset
// packOff, held by packed, to or from the typed buffer at typed. The
// typed side is resolved once, as the range's hull; the loops then index
// plain slices.
func (p *ChunkPlan) walk(packed []byte, typed mem.Ptr, packOff int, packing bool) {
	c0, c1 := p.chunkSpan(packOff, len(packed))
	h := p.rangeHull(c0, c1)
	t := typed.Add(h.lo).Bytes(h.hi - h.lo)
	if p.rows.Width > 0 {
		w, pitch, rows := p.rows.Width, p.rows.Pitch, len(packed)/p.rows.Width
		if packing {
			mem.CopyRows(packed, w, t, pitch, w, rows)
		} else {
			mem.CopyRows(t, pitch, packed, w, w, rows)
		}
		return
	}
	for _, s := range p.segs[p.index[c0]:p.index[c1]] {
		rel, off := s.packOff-packOff, s.typedOff-h.lo
		if packing {
			copy(packed[rel:rel+s.len], t[off:off+s.len])
		} else {
			copy(t[off:off+s.len], packed[rel:rel+s.len])
		}
	}
}

// planCache holds the lazily built per-(count, chunkBytes) plans; see
// Datatype.ChunkPlan. Separated into its own struct so Datatype literals
// elsewhere in the package stay valid.
type planCache struct {
	planMu sync.Mutex
	plans  map[planKey]*ChunkPlan
}
