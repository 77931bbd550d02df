package ib

import (
	"bytes"
	"testing"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
)

// fuzzSGType decodes one datatype from fuzz input: a byte vector, an
// indexed or struct type with signed displacements taken from raw, or a
// resized vector whose extent may fall below its data span. It returns
// nil for inputs the constructors or Commit reject.
func fuzzSGType(kind uint8, rows, width, gap uint8, raw []byte) *datatype.Datatype {
	n, w, g := 1+int(rows)%32, 1+int(width)%64, int(gap)%64
	var dt *datatype.Datatype
	var err error
	switch kind % 4 {
	case 0:
		dt, err = datatype.Vector(n, w, w+g, datatype.Byte)
	case 1:
		var lens, displs []int
		for i := 0; i+1 < len(raw) && len(lens) < 16; i += 2 {
			lens = append(lens, 1+int(raw[i])%8)
			displs = append(displs, int(int8(raw[i+1])))
		}
		dt, err = datatype.Indexed(lens, displs, datatype.Int32)
	case 2:
		bases := []*datatype.Datatype{datatype.Byte, datatype.Int32, datatype.Float64}
		var lens, displs []int
		var types []*datatype.Datatype
		for i := 0; i+2 < len(raw) && len(lens) < 8; i += 3 {
			lens = append(lens, 1+int(raw[i])%4)
			displs = append(displs, 4*int(int8(raw[i+1])))
			types = append(types, bases[int(raw[i+2])%len(bases)])
		}
		dt, err = datatype.Struct(lens, displs, types)
	case 3:
		var inner *datatype.Datatype
		if inner, err = datatype.Vector(n, w, w+g, datatype.Byte); err == nil && inner.Commit() == nil {
			dt, err = datatype.Resized(inner, 0, max(1, inner.Extent()-int(gap)%16))
		}
	}
	if err != nil || dt == nil || dt.Commit() != nil {
		return nil
	}
	return dt
}

// FuzzSGDesc checks the SGE unit's gather and scatter walks against the
// naive iov reference, the one-copy-per-segment walk of SegmentsOf. The
// descriptor covers a chunk-aligned packed range [Off, Off+N) of a fuzzed
// type, or a contiguous range with a nil Plan:
//
//   - gather writes exactly the N bytes of its destination, which sits in
//     a longer poisoned buffer as a recycled payload does: the range
//     matches the reference whatever the poison, and the bytes past N
//     keep it;
//   - scatter, reached through sub as an arriving write is, reproduces
//     the typed image the reference unpack gives, and leaves every byte
//     outside the range's segments poisoned.
func FuzzSGDesc(f *testing.F) {
	f.Add(uint8(0), uint8(31), uint8(7), uint8(24), uint8(1), uint8(1), uint16(64), uint8(0), uint8(2), []byte{})
	f.Add(uint8(0), uint8(15), uint8(63), uint8(63), uint8(2), uint8(0), uint16(100), uint8(1), uint8(3), []byte{})
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint16(12), uint8(0), uint8(1), []byte{3, 9, 0, 0, 5, 20, 2, 3})
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint8(2), uint8(0), uint16(7), uint8(1), uint8(0), []byte{1, 254, 2, 0, 0, 1, 2, 8, 0})
	f.Add(uint8(3), uint8(5), uint8(8), uint8(40), uint8(3), uint8(0), uint16(24), uint8(2), uint8(9), []byte{})
	f.Add(uint8(0), uint8(9), uint8(16), uint8(0), uint8(1), uint8(1), uint16(0), uint8(0), uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, kind, rows, width, gap, countRaw, contigRaw uint8, chunk uint16, firstRaw, chunksRaw uint8, raw []byte) {
		dt := fuzzSGType(kind, rows, width, gap, raw)
		if dt == nil {
			return
		}
		count := 1 + int(countRaw)%3
		total := count * dt.Size()
		if total == 0 {
			return
		}
		chunkBytes := 1 + int(chunk)%total
		plan := dt.ChunkPlan(count, chunkBytes)
		first := int(firstRaw) % plan.Chunks()
		last := min(plan.Chunks(), first+1+int(chunksRaw)%plan.Chunks())
		off := first * chunkBytes
		n := min(total, last*chunkBytes) - off

		// The typed buffer sits between guard bytes, so a stray access
		// outside the type map shows up as a mismatch.
		segs := dt.SegmentsOf(count)
		lo, hi := 0, 0
		for _, s := range segs {
			lo, hi = min(lo, s.Off), max(hi, s.Off+s.Len)
		}
		const guard = 16
		base := guard - lo
		space := func(fill func(i int) byte) mem.Ptr {
			s := mem.NewHostSpace("typed", base+hi+guard)
			mem.Fill(s.Base(), s.Size(), fill)
			return s.Base().Add(base)
		}
		src := space(func(i int) byte { return byte(i*7 + 1) })
		sg := SGDesc{Plan: plan, Buf: src, Off: off, N: n}
		if contigRaw%2 == 1 {
			// A nil Plan: one contiguous range of the typed buffer.
			segs = []datatype.Segment{{Off: lo, Len: hi - lo}}
			sg = SGDesc{Buf: src.Add(lo), Off: off % (hi - lo), N: min(n, hi-lo-off%(hi-lo))}
		}

		// The naive reference: walk the iov list in stream order and
		// keep the pieces that fall in [sg.Off, sg.Off+sg.N).
		type piece struct{ typed, packed, n int }
		var pieces []piece
		pos := 0
		for _, s := range segs {
			a, b := max(pos, sg.Off), min(pos+s.Len, sg.Off+sg.N)
			if a < b {
				pieces = append(pieces, piece{typed: s.Off + a - pos, packed: a - sg.Off, n: b - a})
			}
			pos += s.Len
		}
		want := make([]byte, sg.N)
		for _, p := range pieces {
			copy(want[p.packed:p.packed+p.n], src.Add(p.typed).Bytes(p.n))
		}
		if sg.Plan == nil {
			copy(want, sg.Buf.Add(sg.Off).Bytes(sg.N))
		}

		for _, poison := range []byte{0xEE, 0x11} {
			buf := bytes.Repeat([]byte{poison}, sg.N+guard)
			sg.gather(buf[:sg.N])
			if !bytes.Equal(buf[:sg.N], want) {
				t.Fatalf("gather (%s count=%d range [%d,%d) poison %#x): packed bytes differ from the reference",
					dt, count, sg.Off, sg.Off+sg.N, poison)
			}
			for i, b := range buf[sg.N:] {
				if b != poison {
					t.Fatalf("gather (%s count=%d range [%d,%d)): wrote byte %d past N", dt, count, sg.Off, sg.Off+sg.N, sg.N+i)
				}
			}
		}

		poisoned := func(int) byte { return 0xEE }
		dst := space(poisoned)
		ref := space(poisoned)
		if sg.Plan == nil {
			copy(ref.Add(lo+sg.Off).Bytes(sg.N), want)
		} else {
			for _, p := range pieces {
				copy(ref.Add(p.typed).Bytes(p.n), want[p.packed:p.packed+p.n])
			}
		}
		whole := SGDesc{Plan: sg.Plan, Buf: dst, N: total}
		if sg.Plan == nil {
			whole = SGDesc{Buf: dst.Add(lo), N: hi - lo}
		}
		whole.sub(sg.Off, sg.N).scatter(want)
		image := func(p mem.Ptr) []byte { return p.Add(-base).Bytes(base + hi + guard) }
		if !bytes.Equal(image(dst), image(ref)) {
			t.Fatalf("scatter (%s count=%d range [%d,%d)): typed image differs from the reference",
				dt, count, sg.Off, sg.Off+sg.N)
		}
	})
}
