package critpath_test

import (
	"testing"

	"mv2sim/internal/core"
	"mv2sim/internal/obs/critpath"
)

// TestNicAttribution checks the doctor on a NIC-offloaded transfer: the
// gather runs inside the rdma span and the scatter is a parentless task
// hanging off the receive wire, yet the attribution must still sum
// exactly to the wall clock, with the gather counted as pack work, the
// scatter as unpack work, and the SGE engine wait surfaced in the
// dedicated nic-queueing bucket.
func TestNicAttribution(t *testing.T) {
	col, _ := runTransfer(t, 1<<20, 1, core.PackModeNic, false)
	as := col.Analyze()
	if len(as) != 1 {
		t.Fatalf("analyzed %d transfers, want 1", len(as))
	}
	a := as[0]
	if !a.Exact() {
		t.Fatalf("attribution sum %d != wall %d", a.Sum(), a.Wall())
	}
	if a.Chunks != 16 {
		t.Errorf("chunks = %d, want 16", a.Chunks)
	}
	for _, b := range []string{critpath.BucketPack, critpath.BucketUnpack, critpath.BucketNicQueue} {
		if a.Buckets[b] <= 0 {
			t.Errorf("bucket %q = %v, want > 0 on a nic transfer", b, a.Buckets[b])
		}
	}
	// No GPU pack engines run in nic mode: their queue buckets must be
	// empty, and so must the staging copies those engines feed.
	for _, b := range []string{critpath.BucketCopyQueue, critpath.BucketKernelQueue} {
		if a.Buckets[b] != 0 {
			t.Errorf("bucket %q = %v on a nic transfer, want 0", b, a.Buckets[b])
		}
	}
	// The gather work is also visible in the per-stage totals: the rdma
	// stage span contains the pack work rather than a D2D pack stage.
	if a.StageTotals[critpath.BucketPack] <= 0 {
		t.Errorf("stage total pack = %v, want > 0 (gather inside rdma span)", a.StageTotals[critpath.BucketPack])
	}
	m, ok := a.Model()
	if !ok {
		t.Fatal("no model for a chunked nic transfer")
	}
	if m.Flagged {
		t.Errorf("nic 1MB pinned shape flagged divergent: %+v", m)
	}
	if !validPath(t, "nic", a) {
		t.Error("critical path invariants violated")
	}
}
