package ib

import (
	"runtime"
	"testing"

	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// TestRDMAWriteSourceReuse rewrites the source buffer after the first
// write's local completion but before its delivery: the first write must
// still land the bytes as they were at post time, and a second write out
// of the rewritten buffer must land its own bytes. A third write, posted
// once both have landed, runs on a recycled snapshot and must land its
// bytes too. Every snapshot goes back to the fabric's recycler.
func TestRDMAWriteSourceReuse(t *testing.T) {
	const n = 4096
	nw := newNet(2)
	dst := nw.host[1].Base()
	reg := nw.hcas[1].Register(dst, 3*n)
	src := nw.host[0].Base()
	pattern := func(k int) func(int) byte { return func(i int) byte { return byte(i*7 + k) } }
	landedEarly := false
	nw.e.Spawn("sender", func(p *sim.Proc) {
		mem.Fill(src, n, pattern(1))
		p.Wait(nw.hcas[0].RDMAWrite(1, src, n, reg.Rkey, 0, 0, obs.Span{}, 0))
		// Local completion: the poster owns src again, the bytes are
		// still on the wire.
		landedEarly = dst.Bytes(n)[n-1] != 0
		mem.Fill(src, n, pattern(2))
		p.Wait(nw.hcas[0].RDMAWrite(1, src, n, reg.Rkey, n, 0, obs.Span{}, 1))
		p.Sleep(100 * sim.Microsecond)
		mem.Fill(src, n, pattern(3))
		p.Wait(nw.hcas[0].RDMAWrite(1, src, n, reg.Rkey, 2*n, 0, obs.Span{}, 2))
		mem.Fill(src, n, pattern(4))
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	if landedEarly {
		t.Fatal("first write landed before local completion; the test does not exercise the window")
	}
	for k := 0; k < 3; k++ {
		got, want := dst.Add(k*n).Bytes(n), pattern(k+1)
		for i := range got {
			if got[i] != want(i) {
				t.Fatalf("write %d byte %d = %d, want %d (post-time snapshot)", k, i, got[i], want(i))
			}
		}
	}
	if out := nw.f.Buffers().Outstanding(); out != 0 {
		t.Errorf("%d payload buffers outstanding after delivery, want 0", out)
	}
}

// TestRDMAWriteSteadyStateAlloc checks that the wire recycles its
// snapshots: after a warm-up batch, 100 more 64 KiB writes allocate less
// than one payload's worth of heap beyond what 100 zero-byte writes
// allocate, where a fresh snapshot per write would add 6.4 MB. The
// zero-byte baseline carries the same control plane (a process, an event
// and a few closures per write, under 1 KiB), so the difference is what
// the payload itself costs.
func TestRDMAWriteSteadyStateAlloc(t *testing.T) {
	const n, writes = 64 << 10, 100
	nw := newNet(2)
	reg := nw.hcas[1].Register(nw.host[1].Base(), n)
	src := nw.host[0].Base()
	batch := func(size int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		nw.e.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < writes; i++ {
				p.Wait(nw.hcas[0].RDMAWrite(1, src, size, reg.Rkey, 0, 0, obs.Span{}, i))
			}
		})
		if err := nw.e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	batch(n) // warm-up: fills the free list
	payload, control := batch(n), batch(0)
	if payload >= control+n {
		t.Errorf("%d steady-state writes of %d B allocated %d B against %d B for zero-byte writes; want under %d B more",
			writes, n, payload, control, n)
	}
	if out := nw.f.Buffers().Outstanding(); out != 0 {
		t.Errorf("%d payload buffers outstanding, want 0", out)
	}
}

// TestPayloadBuffersReleased runs every wire operation that snapshots a
// payload (two-sided send, RDMA write into a plain and a scatter region,
// SGE gather-write, RDMA read) on a fabric whose recycler was first
// filled with poisoned buffers of every class, and checks byte-exact
// delivery and that every buffer came back.
func TestPayloadBuffersReleased(t *testing.T) {
	const rows, rowBytes, pitch = 64, 24, 40
	size := rows * rowBytes
	nw := newNet(2)
	poison(nw.f.Buffers(), 16, 2)
	var sent []byte
	nw.hcas[1].SetHandler(func(_ int, _ Message, payload []byte) {
		sent = append([]byte(nil), payload...)
		nw.f.Buffers().Put(payload)
	})
	srcPlan, src := vecPlan(t, rows, rowBytes, pitch, size)
	dstType, err := datatype.Hvector(rows, rowBytes, pitch, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	dstType.MustCommit()
	scDst := mem.NewDeviceSpace("scatter.dst", 1, rows*pitch).Base()
	scReg := nw.hcas[1].RegisterScatterRegion(SGDesc{Plan: dstType.ChunkPlan(1, size), Buf: scDst, N: size}, size, nil)
	plain := nw.host[1].Base()
	plainReg := nw.hcas[1].Register(plain, 2*size)
	readSrc := nw.host[1].Base().Add(4 * size)
	mem.Fill(readSrc, size, func(i int) byte { return byte(i*11 + 2) })
	readReg := nw.hcas[1].Register(readSrc, size)
	readDst := nw.host[0].Base()
	contig := nw.host[0].Base().Add(2 * size)
	mem.Fill(contig, size, func(i int) byte { return byte(i*5 + 9) })

	nw.e.Spawn("sender", func(p *sim.Proc) {
		h := nw.hcas[0]
		p.WaitAll(
			h.PostSend(1, nil, contig.Bytes(size)),
			h.RDMAWrite(1, contig, size, plainReg.Rkey, 0, 0, obs.Span{}, 0),
			h.RDMAWriteGather(1, SGDesc{Plan: srcPlan, Buf: src, N: size}, plainReg.Rkey, size, 0, obs.Span{}, 1, nil),
			h.RDMAWrite(1, contig, size, scReg.Rkey, 0, 0, obs.Span{}, 0),
			h.RDMARead(readDst, 1, readReg.Rkey, 0, size),
		)
	})
	if err := nw.e.Run(); err != nil {
		t.Fatal(err)
	}
	packed := make([]byte, size)
	srcPlan.PackRangeBytes(packed, src, 0, size)
	checks := []struct {
		what      string
		got, want []byte
	}{
		{"send payload", sent, contig.Bytes(size)},
		{"RDMA write", plain.Bytes(size), contig.Bytes(size)},
		{"gather write", plain.Add(size).Bytes(size), packed},
		{"RDMA read", readDst.Bytes(size), readSrc.Bytes(size)},
	}
	for _, c := range checks {
		if string(c.got) != string(c.want) {
			t.Errorf("%s: delivered bytes differ from the source", c.what)
		}
	}
	for r := 0; r < rows; r++ {
		if !mem.Equal(scDst.Add(r*pitch), contig.Add(r*rowBytes), rowBytes) {
			t.Fatalf("scatter write: row %d differs from the source", r)
		}
	}
	if out := nw.f.Buffers().Outstanding(); out != 0 {
		t.Errorf("%d payload buffers outstanding after delivery, want 0", out)
	}
}

// poison fills a recycler's free list with per buffers of every class up
// to 1<<maxClass bytes, each set to 0xEE, so any byte a transfer forgets
// to overwrite shows up as a delivery mismatch.
func poison(r *mem.Recycler, maxClass, per int) {
	var bufs [][]byte
	for c := 0; c <= maxClass; c++ {
		for i := 0; i < per; i++ {
			b := r.Get(1 << c)
			for j := range b {
				b[j] = 0xEE
			}
			bufs = append(bufs, b)
		}
	}
	for _, b := range bufs {
		r.Put(b)
	}
}
