package datatype

import (
	"fmt"
	"strings"
	"testing"

	"mv2sim/internal/mem"
)

// outOfBounds runs f and reports whether it panicked with mem's own
// bounds message. A runtime slice-index panic (a runtime.Error, not a
// string) fails the test: resolving memory once must still report through
// mem, never by indexing past a resolved slice.
func outOfBounds(t *testing.T, what string, f func()) (panicked bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "mem: ") || !strings.Contains(msg, "out of") {
			t.Errorf("%s: panicked with %v, want mem's out-of-bounds message", what, r)
		}
		panicked = true
	}()
	f()
	return false
}

// TestWalkerBoundsContract pins the resolve-once bounds contract of every
// payload walker: a call panics through mem exactly when a byte it
// touches lies outside its space. Each row places the typed buffer so
// that its last segment overhangs the end of the space by one byte (must
// panic), then one byte earlier so it ends exactly at the end (must not).
// Both walk shapes are covered: a uniform row grid (strided rows) and an
// irregular indexed map (segment walk).
func TestWalkerBoundsContract(t *testing.T) {
	vec, _ := Vector(6, 8, 32, Byte)
	grid, _ := Resized(vec.MustCommit(), 0, 6*32) // count elements continue the row grid
	ix, _ := Indexed([]int{3, 1, 5, 2}, []int{9, 0, 20, 3}, Int32)
	const count, chunk = 2, 24
	for _, dt := range []*Datatype{grid.MustCommit(), ix.MustCommit()} {
		total := count * dt.Size()
		_, hi := dt.hull(count)
		plan := dt.ChunkPlan(count, chunk)
		if strided := plan.rows.Width > 0; strided != (dt == grid) {
			t.Fatalf("%s: strided plan = %v, want %v", dt.Name(), strided, dt == grid)
		}
		last := 0 // the chunk that touches typed byte hi-1
		for c := range plan.hull {
			if plan.hull[c].hi == hi {
				last = c
			}
		}
		walkers := []struct {
			name string
			run  func(typed, packed mem.Ptr, buf []byte)
		}{
			{"Pack", func(typed, packed mem.Ptr, _ []byte) { dt.Pack(packed, typed, count) }},
			{"Unpack", func(typed, packed mem.Ptr, _ []byte) { dt.Unpack(typed, packed, count) }},
			{"PackBytes", func(typed, _ mem.Ptr, buf []byte) { dt.PackBytes(buf, typed, count) }},
			{"UnpackBytes", func(typed, _ mem.Ptr, buf []byte) { dt.UnpackBytes(typed, buf, count) }},
			{"PackRange", func(typed, packed mem.Ptr, _ []byte) { plan.PackRange(packed, typed, 0, total) }},
			{"UnpackRange", func(typed, packed mem.Ptr, _ []byte) { plan.UnpackRange(typed, packed, 0, total) }},
			{"PackChunk", func(typed, packed mem.Ptr, _ []byte) { plan.PackChunk(packed, typed, last) }},
			{"UnpackChunk", func(typed, packed mem.Ptr, _ []byte) { plan.UnpackChunk(typed, packed, last) }},
			{"PackRangeBytes", func(typed, _ mem.Ptr, buf []byte) { plan.PackRangeBytes(buf, typed, 0, total) }},
			{"UnpackRangeBytes", func(typed, _ mem.Ptr, buf []byte) { plan.UnpackRangeBytes(typed, buf, 0, total) }},
			{"KernelDesc.Pack", func(typed, packed mem.Ptr, _ []byte) { plan.Kernel(0, total).Pack(packed, typed) }},
			{"KernelDesc.Unpack", func(typed, packed mem.Ptr, _ []byte) { plan.Kernel(0, total).Unpack(typed, packed) }},
		}
		for _, w := range walkers {
			for _, overhang := range []int{1, 0} {
				name := fmt.Sprintf("%s/%s/overhang=%d", dt.Name(), w.name, overhang)
				// The typed base sits so that byte hi-1, the last one the
				// walk touches, lands at size-1+overhang.
				const size = 4096
				typed := mem.NewHostSpace("typed", size).Base().Add(size - hi + overhang)
				packed := mem.NewHostSpace("packed", total).Base()
				got := outOfBounds(t, name, func() { w.run(typed, packed, make([]byte, total)) })
				if got != (overhang == 1) {
					t.Errorf("%s: panicked=%v, want %v", name, got, overhang == 1)
				}
			}
		}
	}
}

// TestWalkerBoundsRangeLocal pins that the bounds check is range-local: a
// chunk is resolved against its own hull, not the whole plan's. Chunk 0
// of each type lies outside the space (past its end, or at a negative
// offset); chunk 1 lies inside and must move without a panic.
func TestWalkerBoundsRangeLocal(t *testing.T) {
	high, _ := Hindexed([]int{8, 8}, []int{64, 0}, Byte)
	neg, _ := Struct([]int{1, 1}, []int{-8, 0}, []*Datatype{Float64, Float64})
	for _, dt := range []*Datatype{high.MustCommit(), neg.MustCommit()} {
		plan := dt.ChunkPlan(1, 8)
		typed := mem.NewHostSpace("typed", 32).Base()
		packed := mem.NewHostSpace("packed", 16).Base()
		buf := make([]byte, 8)
		for c, wantPanic := range []bool{true, false} {
			off := c * 8
			for _, w := range []struct {
				name string
				run  func()
			}{
				{"PackChunk", func() { plan.PackChunk(packed, typed, c) }},
				{"UnpackChunk", func() { plan.UnpackChunk(typed, packed, c) }},
				{"PackRangeBytes", func() { plan.PackRangeBytes(buf, typed, off, 8) }},
				{"UnpackRangeBytes", func() { plan.UnpackRangeBytes(typed, buf, off, 8) }},
				{"KernelDesc.Pack", func() { plan.Kernel(off, 8).Pack(packed, typed) }},
				{"KernelDesc.Unpack", func() { plan.Kernel(off, 8).Unpack(typed, packed) }},
			} {
				name := fmt.Sprintf("%s/%s/chunk=%d", dt.Name(), w.name, c)
				if got := outOfBounds(t, name, w.run); got != wantPanic {
					t.Errorf("%s: panicked=%v, want %v", name, got, wantPanic)
				}
			}
		}
	}
}
