package critpath_test

import (
	"fmt"
	"testing"

	"mv2sim/internal/core"
	"mv2sim/internal/obs/critpath"
)

// TestGPUDirectAttribution checks the doctor on GPUDirect transfers, which
// have no staging hops: the receiver's unpacks follow the rx wire with no
// H2D stage in between. The walk must still reach the sender through the
// wire, so pack and wire time show up and only the tail after the last
// unpack is FIN time. The kernel case's handshake shows up too; the
// memcpy2d case is unpack-bound from its first pack on.
func TestGPUDirectAttribution(t *testing.T) {
	for _, tc := range []struct {
		msg, rails int
		mode       core.PackMode
		want       []string
	}{
		{4 << 20, 1, core.PackModeKernel, []string{critpath.BucketPack, critpath.BucketWire, critpath.BucketHandshake, critpath.BucketRailQueue}},
		{1 << 20, 2, core.PackModeMemcpy2D, []string{critpath.BucketPack, critpath.BucketWire, critpath.BucketUnpack}},
	} {
		label := fmt.Sprintf("gdr msg=%d rails=%d %v", tc.msg, tc.rails, tc.mode)
		col, _ := runTransfer(t, tc.msg, tc.rails, tc.mode, true)
		as := col.Analyze()
		if len(as) != 1 {
			t.Fatalf("%s: analyzed %d transfers, want 1", label, len(as))
		}
		a := as[0]
		if !a.Exact() {
			t.Errorf("%s: attribution sum %d != wall %d", label, a.Sum(), a.Wall())
		}
		if fin := a.Buckets[critpath.BucketFIN]; fin*20 >= a.Wall() {
			t.Errorf("%s: fin %v is ≥5%% of wall %v: the walk stopped at the receiver", label, fin, a.Wall())
		}
		for _, b := range tc.want {
			if a.Buckets[b] <= 0 {
				t.Errorf("%s: bucket %q = %v, want > 0", label, b, a.Buckets[b])
			}
		}
		for _, b := range []string{critpath.BucketD2H, critpath.BucketH2D} {
			if a.StageTotals[b] != 0 {
				t.Errorf("%s: %s stage total %v on a staging-free transfer", label, b, a.StageTotals[b])
			}
		}
		if !validPath(t, label, a) {
			t.Errorf("%s: critical path invariants violated", label)
		}
	}
}
