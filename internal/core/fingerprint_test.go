package core_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mv2sim/internal/cluster"
	"mv2sim/internal/core"
	"mv2sim/internal/datatype"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/variant_fingerprints.txt")

const fingerprintFile = "testdata/variant_fingerprints.txt"

// fpShape is one datatype the fingerprint matrix transfers.
type fpShape struct {
	name string
	dt   *datatype.Datatype
}

func fingerprintShapes(t *testing.T) []fpShape {
	t.Helper()
	must := func(dt *datatype.Datatype, err error) *datatype.Datatype {
		if err != nil {
			t.Fatal(err)
		}
		dt.MustCommit()
		return dt
	}
	// The irregular type: block lengths cycle 1..7 elements with gaps that
	// also vary, so no 2D shape describes it and chunk boundaries split
	// blocks.
	var bl, displ []int
	at := 0
	for i := 0; at < 160<<10; i++ {
		n := 1 + i%7
		bl = append(bl, n)
		displ = append(displ, at/4+i%3)
		at += 4*n + 4*(i%3) + 8
	}
	return []fpShape{
		{"vec4B", must(datatype.Vector(48<<10, 4, 16, datatype.Byte))},    // 192 KiB of 4 B rows
		{"vectail", must(datatype.Vector(8448, 16, 48, datatype.Byte))},   // 2 chunks + a 4 KiB tail
		{"rows1K", must(datatype.Vector(160, 1024, 2048, datatype.Byte))}, // 160 KiB of 1 KiB rows
		{"contig", must(datatype.Contiguous(144<<10, datatype.Byte))},     // no pack stage
		{"indexed", must(datatype.Indexed(bl, displ, datatype.Float32))},  // irregular
		{"eager4B", must(datatype.Vector(2048, 4, 16, datatype.Byte))},    // 8 KiB: eager staging
	}
}

// fpVariant is one transport variant: the paper's five-stage pipeline and
// its ablations.
type fpVariant struct {
	name               string
	gpuDirect, hstaged bool
}

var fpVariants = []fpVariant{
	{"fivestage", false, false},
	{"gdr", true, false},
	{"hstaged", false, true},
	{"gdr+hstaged", true, true},
}

// fpModePairs covers every engine on each side, plus nic mixed with each
// device engine in both directions.
var fpModePairs = [][2]core.PackMode{
	{core.PackModeAuto, core.PackModeAuto},
	{core.PackModeMemcpy2D, core.PackModeMemcpy2D},
	{core.PackModeKernel, core.PackModeKernel},
	{core.PackModeNic, core.PackModeNic},
	{core.PackModeNic, core.PackModeAuto},
	{core.PackModeAuto, core.PackModeNic},
	{core.PackModeNic, core.PackModeKernel},
	{core.PackModeMemcpy2D, core.PackModeNic},
}

// fpBusy is how long an application kernel holds each rank's compute
// engine in the busy column: far past the end of any transfer, so every
// auto decision sees foreign compute.
const fpBusy = 2 * sim.Millisecond

// fingerprint runs one configuration and renders its behavioural
// fingerprint: digests of the Chrome trace and the Figure 3 table, the
// virtual end time, byte-exact delivery and leak-freedom. busy launches an
// application kernel on every rank before the transfer is posted.
func fingerprint(t *testing.T, v fpVariant, pm, um core.PackMode, sh fpShape, rails int, bidi, busy bool) string {
	chrome := obs.NewChromeTracer()
	table := &core.PipelineTrace{}
	cfg := cluster.Config{
		GPUMemBytes:   4 << 20,
		HostHeapBytes: 1 << 20,
		VbufCount:     8,
		Rails:         rails,
		GPUDirect:     v.gpuDirect,
		Tracers:       []obs.Tracer{chrome, table},
	}
	cfg.Core.PackMode, cfg.Core.UnpackMode = pm, um
	cfg.Core.HostStagedPack = v.hstaged
	cl := cluster.New(cfg)
	span := sh.dt.Span(1)
	seed := func(rank int) func(int) byte {
		return func(i int) byte { return byte(i*7 + 3 + 40*rank) }
	}
	exact := true
	runErr := cl.Run(func(n *cluster.Node) {
		r := n.Rank
		me, peer := r.Rank(), 1-r.Rank()
		if busy {
			n.Ctx.LaunchKernel(r.Proc(), n.Ctx.NewStream(), 1, float64(fpBusy/sim.Nanosecond), nil)
		}
		src, dst := n.Ctx.MustMalloc(span), n.Ctx.MustMalloc(span)
		mem.Fill(src, span, seed(me))
		var reqs []*mpi.Request
		if me == 0 || bidi {
			reqs = append(reqs, r.Isend(src, 1, sh.dt, peer, 0))
		}
		if me == 1 || bidi {
			reqs = append(reqs, r.Irecv(dst, 1, sh.dt, peer, 0))
		}
		r.Waitall(reqs...)
		if me == 1 || bidi {
			want := seed(peer)
			for _, s := range sh.dt.SegmentsOf(1) {
				b := dst.Add(s.Off).Bytes(s.Len)
				for i := range b {
					if b[i] != want(s.Off+i) {
						exact = false
					}
				}
			}
		}
		for _, p := range []mem.Ptr{src, dst} {
			if err := n.Ctx.Free(p); err != nil {
				t.Error(err)
			}
		}
	})
	if runErr != nil {
		t.Fatalf("%s: %v", sh.name, runErr)
	}
	leakFree := cl.CheckDeviceLeaks() == nil
	for _, n := range cl.Nodes {
		if n.Pool.Free() != n.Pool.Count() || n.RecvPool.Free() != n.RecvPool.Count() {
			leakFree = false
		}
	}
	var tr bytes.Buffer
	if _, err := chrome.WriteTo(&tr); err != nil {
		t.Fatal(err)
	}
	dir := "oneway"
	if bidi {
		dir = "bidi"
	}
	if busy {
		dir += "+busy"
	}
	return fmt.Sprintf("%s/%v-%v/r%d/%s/%s trace=%x table=%x end=%d exact=%v leakfree=%v",
		v.name, pm, um, rails, dir, sh.name,
		sha256.Sum256(tr.Bytes()), sha256.Sum256([]byte(table.String())),
		int64(cl.Engine.Now()), exact, leakFree)
}

// TestVariantFingerprints pins the rendezvous transport's observable
// behaviour — every stage task and timestamp, the per-chunk completion
// table, end time, delivery and cleanup — across variant × pack-mode
// pair × shape × direction (one-way and bidirectional). The rail count
// alternates across shapes and mode pairs, so every variant × mode pair
// and every variant × shape meets both rail counts. The pairs that
// contain auto run once more with application compute occupying both
// GPUs (the busy column), pinning auto's contention fallback. Run
// with -update to rewrite the digest file after an intended change.
func TestVariantFingerprints(t *testing.T) {
	shapes := fingerprintShapes(t)
	var got []string
	for _, v := range fpVariants {
		for pi, pair := range fpModePairs {
			for si, sh := range shapes {
				rails := 1 + (pi+si)%2
				for _, bidi := range []bool{false, true} {
					got = append(got, fingerprint(t, v, pair[0], pair[1], sh, rails, bidi, false))
				}
				if pair[0] == core.PackModeAuto || pair[1] == core.PackModeAuto {
					for _, bidi := range []bool{false, true} {
						got = append(got, fingerprint(t, v, pair[0], pair[1], sh, rails, bidi, true))
					}
				}
			}
		}
	}
	path := filepath.FromSlash(fingerprintFile)
	if *updateFingerprints {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d fingerprints, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fingerprint drifted:\n got  %s\n want %s", got[i], want[i])
		}
		if !strings.HasSuffix(got[i], "exact=true leakfree=true") {
			t.Errorf("transfer not clean: %s", got[i])
		}
	}
}
