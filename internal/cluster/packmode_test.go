package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
)

// TestPackModeTransferProperties drives randomized end-to-end vector
// transfers across all four PackModes on each side independently — every
// sender/receiver engine mix, including mixes where one side gathers on
// the NIC's SGE unit and the other unpacks with the copy engine — over
// random shapes, counts, rail counts and chunk boundaries, crossed with the
// GPUDirect and HostStagedPack ablations, and checks:
//
//   - byte-exact delivery into the strided receive buffer under every mix;
//   - every vbuf returned to its pool at the end of the run;
//   - no leaked device allocations (tbufs freed on all paths).
func TestPackModeTransferProperties(t *testing.T) {
	modes := []core.PackMode{core.PackModeAuto, core.PackModeMemcpy2D, core.PackModeKernel, core.PackModeNic}
	prop := func(packMode, unpackMode core.PackMode, blockSize, sizeKB, elem, count, rails int, gdr, hostStaged bool) bool {
		rows := max(1, sizeKB<<10/elem/count)
		pitch := 2 * elem
		size := rows * elem * count
		vec, err := datatype.Vector(rows, elem, pitch, datatype.Byte)
		if err != nil {
			t.Logf("vector(%d,%d,%d): %v", rows, elem, pitch, err)
			return false
		}
		vec.MustCommit()

		cfg := Config{MPI: mpi.Config{BlockSize: blockSize}, Rails: rails, GPUDirect: gdr}
		cfg.Core.PackMode = packMode
		cfg.Core.UnpackMode = unpackMode
		cfg.Core.HostStagedPack = hostStaged
		what := fmt.Sprintf("pack=%v unpack=%v gdr=%v hoststaged=%v block=%d size=%d count=%d",
			packMode, unpackMode, gdr, hostStaged, blockSize, size, count)
		cl := New(cfg)
		pattern := func(i int) byte { return byte(i*13 + 5) }
		ok := true
		runErr := cl.Run(func(n *Node) {
			r := n.Rank
			buf := n.Ctx.MustMalloc(vec.Span(count))
			defer func() {
				if err := n.Ctx.Free(buf); err != nil {
					panic(err)
				}
			}()
			if r.Rank() == 0 {
				mem.Fill(buf, vec.Span(count), func(i int) byte { return pattern(i) })
				r.Send(buf, count, vec, 1, 9)
			} else {
				r.Recv(buf, count, vec, 0, 9)
				for _, s := range vec.SegmentsOf(count) {
					b := buf.Add(s.Off).Bytes(s.Len)
					for i := range b {
						if b[i] != pattern(s.Off+i) {
							t.Logf("%s: corrupt at byte %d", what, s.Off+i)
							ok = false
							return
						}
					}
				}
			}
		})
		if runErr != nil {
			t.Logf("%s: %v", what, runErr)
			return false
		}
		if err := cl.CheckDeviceLeaks(); err != nil {
			t.Logf("%s: %v", what, err)
			return false
		}
		for i, n := range cl.Nodes {
			if n.Pool.Free() != n.Pool.Count() || n.RecvPool.Free() != n.RecvPool.Count() {
				t.Logf("%s: node %d vbufs leaked (tx %d/%d, rx %d/%d)", what, i,
					n.Pool.Free(), n.Pool.Count(), n.RecvPool.Free(), n.RecvPool.Count())
				return false
			}
		}
		return ok
	}

	cfg := &quick.Config{
		MaxCount: 12,
		Rand:     rand.New(rand.NewSource(20260807)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(modes[r.Intn(len(modes))])
			args[1] = reflect.ValueOf(modes[r.Intn(len(modes))])
			args[2] = reflect.ValueOf((4 + r.Intn(125)) << 10) // block size 4K..128K
			args[3] = reflect.ValueOf(1 + r.Intn(512))         // packed size 1K..512K
			args[4] = reflect.ValueOf(4 << r.Intn(7))          // element width 4..256
			args[5] = reflect.ValueOf(1 + r.Intn(3))           // datatype count 1..3
			args[6] = reflect.ValueOf(1 + r.Intn(2))           // rails 1..2
			args[7] = reflect.ValueOf(r.Intn(2) == 1)          // GPUDirect
			args[8] = reflect.ValueOf(r.Intn(2) == 1)          // HostStagedPack
		},
	}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}

	// The sixteen mode pairs are also covered deterministically under each
	// of the four variants (five-stage, GPUDirect, host-staged, both) at
	// one fixed geometry that exercises eager (small) and rendezvous
	// (large) sizes on both rail counts, so a regression in a rare pair
	// cannot hide behind the random draw.
	for _, pm := range modes {
		for _, um := range modes {
			for _, v := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				for _, sizeKB := range []int{2, 192} {
					for rails := 1; rails <= 2; rails++ {
						if !prop(pm, um, 64<<10, sizeKB, 4, 1, rails, v[0], v[1]) {
							t.Fatalf("pack=%v unpack=%v gdr=%v hoststaged=%v sizeKB=%d rails=%d failed",
								pm, um, v[0], v[1], sizeKB, rails)
						}
					}
				}
			}
		}
	}
}
