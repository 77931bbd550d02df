package cluster

import (
	"strings"
	"testing"

	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/sim"
)

// poisonBuffers fills the fabric's payload recycler with per buffers of
// every class up to 1<<maxClass bytes, each set to 0xEE, so a transfer
// that reads a recycled buffer before overwriting it delivers poison.
func poisonBuffers(cl *Cluster, maxClass, per int) {
	r := cl.Fabric.Buffers()
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

// TestPoisonedPayloadBuffers runs every protocol path that moves payload
// through the fabric's recycled buffers — device and host eager (matched
// on arrival and from the unexpected queue), self-sends, the put
// rendezvous, the NIC gather/scatter pipeline and both get-protocol
// receivers — on a recycler pre-filled with poisoned buffers, and checks
// byte-exact delivery and an empty leak gate.
func TestPoisonedPayloadBuffers(t *testing.T) {
	const elem = 64
	cases := []struct {
		name             string
		kib              int
		srcDev, dstDev   bool
		late, self       bool
		configure        func(*Config)
		wantUnexpected   bool
		wantRendezvouses bool
	}{
		{name: "eager device", kib: 8, srcDev: true, dstDev: true},
		{name: "eager device unexpected", kib: 8, srcDev: true, dstDev: true, late: true, wantUnexpected: true},
		{name: "eager host unexpected", kib: 8, late: true, wantUnexpected: true},
		{name: "eager host to device", kib: 12, dstDev: true},
		{name: "self device", kib: 64, srcDev: true, dstDev: true, self: true},
		{name: "self host", kib: 4, self: true, wantUnexpected: true},
		{name: "rendezvous", kib: 256, srcDev: true, dstDev: true, wantRendezvouses: true},
		{name: "nic", kib: 256, srcDev: true, dstDev: true, wantRendezvouses: true, configure: func(c *Config) {
			c.Core.PackMode, c.Core.UnpackMode = core.PackModeNic, core.PackModeNic
		}},
		{name: "host get to device", kib: 200, dstDev: true, wantRendezvouses: true, configure: func(c *Config) {
			c.MPI.Rendezvous = mpi.RendezvousGet
		}},
		{name: "host get", kib: 200, wantRendezvouses: true, configure: func(c *Config) {
			c.MPI.Rendezvous = mpi.RendezvousGet
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := tc.kib << 10 / elem
			vec, err := datatype.Vector(rows, elem, 2*elem, datatype.Byte)
			if err != nil {
				t.Fatal(err)
			}
			vec.MustCommit()
			span := vec.Span(1)
			var cfg Config
			if tc.configure != nil {
				tc.configure(&cfg)
			}
			cl := New(cfg)
			poisonBuffers(cl, 20, 4)
			pattern := func(i int) byte { return byte(i*13 + 5) }
			alloc := func(n *Node, dev bool) (mem.Ptr, func()) {
				if dev {
					p := n.Ctx.MustMalloc(span)
					return p, func() {
						if err := n.Ctx.Free(p); err != nil {
							panic(err)
						}
					}
				}
				p := n.Rank.AllocHost(span)
				return p, func() { n.Rank.FreeHost(p) }
			}
			receiver := 1
			if tc.self {
				receiver = 0
			}
			var got []byte
			runErr := cl.Run(func(n *Node) {
				r := n.Rank
				var sq *mpi.Request
				if r.Rank() == 0 {
					src, free := alloc(n, tc.srcDev)
					defer free()
					mem.Fill(src, span, pattern)
					sq = r.Isend(src, 1, vec, receiver, 7)
				}
				if r.Rank() == receiver {
					dst, free := alloc(n, tc.dstDev)
					defer free()
					if tc.late {
						r.Proc().Sleep(sim.Millisecond)
					}
					r.Recv(dst, 1, vec, 0, 7)
					got = append([]byte(nil), dst.Bytes(span)...)
				}
				if sq != nil {
					r.Wait(sq)
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			for _, s := range vec.SegmentsOf(1) {
				for i := s.Off; i < s.Off+s.Len; i++ {
					if got[i] != pattern(i) {
						t.Fatalf("byte %d = %#x, want %#x", i, got[i], pattern(i))
					}
				}
			}
			st := cl.Nodes[receiver].Rank.Stats()
			if (st.Unexpected > 0) != tc.wantUnexpected || (st.RndvRecvd > 0) != tc.wantRendezvouses {
				t.Errorf("protocol stats %+v: want unexpected %v, rendezvous %v", st, tc.wantUnexpected, tc.wantRendezvouses)
			}
			if err := cl.CheckDeviceLeaks(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLeakGateCatchesPayloadBuffers checks that CheckDeviceLeaks fails
// while a fabric payload buffer is outstanding: here, the payload of an
// eager message that no receive ever matched, still parked in the
// unexpected queue when the run ends.
func TestLeakGateCatchesPayloadBuffers(t *testing.T) {
	cl := New(Config{})
	err := cl.Run(func(n *Node) {
		if r := n.Rank; r.Rank() == 0 {
			buf := r.AllocHost(1024)
			defer r.FreeHost(buf)
			r.Send(buf, 1024, datatype.Byte, 1, 3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.CheckDeviceLeaks()
	if err == nil || !strings.Contains(err.Error(), "leaks 1 payload buffers") {
		t.Fatalf("CheckDeviceLeaks = %v, want one leaked payload buffer", err)
	}
}
