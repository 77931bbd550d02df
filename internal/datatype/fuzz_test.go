package datatype

import (
	"bytes"
	"testing"

	"mv2sim/internal/mem"
)

// refPack is the naive reference walker: one bounds-checked mem.Copy per
// SegmentsOf entry, in stream order. Every payload walker must agree with
// it byte for byte.
func refPack(dst, src mem.Ptr, dt *Datatype, count int) {
	pos := 0
	for _, s := range dt.SegmentsOf(count) {
		mem.Copy(dst.Add(pos), src.Add(s.Off), s.Len)
		pos += s.Len
	}
}

// refUnpack is the inverse of refPack.
func refUnpack(dst, src mem.Ptr, dt *Datatype, count int) {
	pos := 0
	for _, s := range dt.SegmentsOf(count) {
		mem.Copy(dst.Add(s.Off), src.Add(pos), s.Len)
		pos += s.Len
	}
}

// fuzzType decodes one datatype from fuzz input. kind selects the
// constructor; rows, width and gap shape vectors; raw supplies block
// lengths and signed displacements for the irregular constructors, so
// negative offsets and unsorted maps occur; lb and gap set a Resized
// type's bounds, including negative lb and extents below the data span.
// It returns nil for inputs the constructors or Commit reject.
func fuzzType(kind uint8, rows, width, gap uint16, lb int16, raw []byte) *Datatype {
	n := 1 + int(rows)%32
	w := 1 + int(width-1)%1024
	g := int(gap) % 1025
	var dt *Datatype
	var err error
	switch kind % 5 {
	case 0:
		dt, err = Vector(n, w, w+g, Byte)
	case 1:
		var lens, displs []int
		for i := 0; i+1 < len(raw) && len(lens) < 16; i += 2 {
			lens = append(lens, 1+int(raw[i])%8)
			displs = append(displs, int(int8(raw[i+1])))
		}
		dt, err = Indexed(lens, displs, Int32)
	case 2:
		var displs []int
		for i := 0; i < len(raw) && len(displs) < 16; i++ {
			displs = append(displs, int(int8(raw[i])))
		}
		dt, err = IndexedBlock(1+int(width)%4, displs, Float64)
	case 3:
		bases := []*Datatype{Byte, Int32, Float64}
		var lens, displs []int
		var types []*Datatype
		for i := 0; i+2 < len(raw) && len(lens) < 8; i += 3 {
			lens = append(lens, 1+int(raw[i])%4)
			displs = append(displs, 4*int(int8(raw[i+1])))
			types = append(types, bases[int(raw[i+2])%len(bases)])
		}
		dt, err = Struct(lens, displs, types)
	case 4:
		inner := fuzzType(kind/5%4, rows, width, gap, lb, raw)
		if inner == nil {
			return nil
		}
		dt, err = Resized(inner, int(lb)%64, max(0, inner.Extent()+int(lb)%64))
	}
	if err != nil || dt.Commit() != nil {
		return nil
	}
	return dt
}

// FuzzChunkPlan checks every payload walker against the naive reference:
// ChunkPlan PackRange/UnpackRange (per chunk, whole stream, and a
// multi-chunk tail), PackRangeBytes/UnpackRangeBytes, KernelDesc
// Pack/Unpack, and the whole-message Pack/Unpack/PackBytes/UnpackBytes.
// Chunk sizes need not be row multiples. The typed buffer sits between
// guard bytes, so a stray write outside the type map shows up as a
// mismatch.
func FuzzChunkPlan(f *testing.F) {
	// The three perfbench row shapes (width/pitch 8/32, 1024/2048,
	// 64/128), one element each as perfbench sends them, at the
	// transport's 64 KiB chunk, a row-multiple chunk and an odd one.
	f.Add(uint8(0), uint16(31), uint16(8), uint16(24), uint8(0), uint16(0), int16(0), []byte{})
	f.Add(uint8(0), uint16(15), uint16(1024), uint16(1024), uint8(0), uint16(4096), int16(0), []byte{})
	f.Add(uint8(0), uint16(7), uint16(64), uint16(64), uint8(0), uint16(100), int16(0), []byte{})
	// A vector resized to continue its row grid across three elements.
	f.Add(uint8(4), uint16(5), uint16(8), uint16(24), uint8(2), uint16(48), int16(24), []byte{})
	f.Add(uint8(1), uint16(0), uint16(0), uint16(0), uint8(2), uint16(12), int16(0), []byte{3, 9, 0, 0, 5, 20, 2, 3})
	f.Add(uint8(2), uint16(0), uint16(3), uint16(0), uint8(1), uint16(40), int16(0), []byte{6, 250, 1, 12})
	f.Add(uint8(3), uint16(0), uint16(0), uint16(0), uint8(2), uint16(7), int16(0), []byte{1, 254, 2, 0, 0, 1, 2, 8, 0})
	f.Add(uint8(4), uint16(5), uint16(8), uint16(8), uint8(2), uint16(24), int16(-8), []byte{})
	f.Add(uint8(19), uint16(0), uint16(0), uint16(0), uint8(3), uint16(5), int16(-40), []byte{1, 254, 2, 0, 0, 1})

	f.Fuzz(func(t *testing.T, kind uint8, rows, width, gap uint16, countRaw uint8, chunk uint16, lb int16, raw []byte) {
		dt := fuzzType(kind, rows, width, gap, lb, raw)
		if dt == nil {
			return
		}
		count := 1 + int(countRaw)%3
		total := count * dt.Size()
		if total == 0 {
			return
		}
		chunkBytes := int(chunk)
		if chunkBytes == 0 || chunkBytes > 1<<16 {
			chunkBytes = 1 << 16
		}
		// The buffer base sits where its lowest touched byte (possibly at a
		// negative offset) lands guard bytes into the space, and the base
		// itself stays inside it.
		lo, hi := dt.hull(count)
		const guard = 8
		base := guard + max(0, -lo)
		typedSpace := func() (mem.Ptr, *mem.Space) {
			s := mem.NewHostSpace("typed", base+max(0, hi)+guard)
			mem.Fill(s.Base(), s.Size(), func(i int) byte { return byte(i*13 + 5) })
			return s.Base().Add(base), s
		}
		src, _ := typedSpace()
		mem.Fill(src.Add(lo), hi-lo, func(i int) byte { return byte(i*7 + 1) })
		packedSpace := func() mem.Ptr { return mem.NewHostSpace("packed", total).Base() }

		want := packedSpace()
		refPack(want, src, dt, count)
		wantBytes := want.Bytes(total)
		refDst, refSpace := typedSpace()
		refUnpack(refDst, want, dt, count)
		refTyped := refSpace.Base().Bytes(refSpace.Size())

		checkPacked := func(what string, got []byte) {
			t.Helper()
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("%s (%s count=%d chunk=%d): packed stream differs from the reference",
					what, dt, count, chunkBytes)
			}
		}
		checkTyped := func(what string, s *mem.Space) {
			t.Helper()
			if !bytes.Equal(s.Base().Bytes(s.Size()), refTyped) {
				t.Fatalf("%s (%s count=%d chunk=%d): typed buffer differs from the reference",
					what, dt, count, chunkBytes)
			}
		}

		// Whole-message walkers.
		got := packedSpace()
		dt.Pack(got, src, count)
		checkPacked("Pack", got.Bytes(total))
		gotBytes := make([]byte, total)
		dt.PackBytes(gotBytes, src, count)
		checkPacked("PackBytes", gotBytes)
		dst, s := typedSpace()
		dt.Unpack(dst, want, count)
		checkTyped("Unpack", s)
		dst, s = typedSpace()
		dt.UnpackBytes(dst, wantBytes, count)
		checkTyped("UnpackBytes", s)

		// Plan walkers, one chunk at a time.
		plan := dt.ChunkPlan(count, chunkBytes)
		got = packedSpace()
		gotBytes = make([]byte, total)
		dst, s = typedSpace()
		bdst, bs := typedSpace()
		for c := 0; c < plan.Chunks(); c++ {
			off, n := c*chunkBytes, plan.ChunkLen(c)
			plan.PackRange(got.Add(off), src, off, n)
			plan.PackRangeBytes(gotBytes[off:off+n], src, off, n)
			plan.UnpackRange(dst, want.Add(off), off, n)
			plan.UnpackRangeBytes(bdst, wantBytes[off:off+n], off, n)
		}
		checkPacked("PackRange per chunk", got.Bytes(total))
		checkPacked("PackRangeBytes per chunk", gotBytes)
		checkTyped("UnpackRange per chunk", s)
		checkTyped("UnpackRangeBytes per chunk", bs)

		// Kernel descriptors: chunk 0, then every later chunk at once, so
		// one walk spans several chunk hulls.
		got = packedSpace()
		dst, s = typedSpace()
		head := plan.ChunkLen(0)
		for _, d := range []KernelDesc{plan.Kernel(0, head), plan.Kernel(head, total-head)} {
			d.Pack(got.Add(d.packOff), src)
			d.Unpack(dst, want.Add(d.packOff))
		}
		checkPacked("KernelDesc.Pack", got.Bytes(total))
		checkTyped("KernelDesc.Unpack", s)

		// One descriptor over the whole stream.
		got = packedSpace()
		dst, s = typedSpace()
		whole := plan.Kernel(0, total)
		whole.Pack(got, src)
		whole.Unpack(dst, want)
		checkPacked("whole-stream KernelDesc.Pack", got.Bytes(total))
		checkTyped("whole-stream KernelDesc.Unpack", s)
	})
}
