package core

import (
	"testing"

	"mv2sim/internal/cuda"
	"mv2sim/internal/datatype"
	"mv2sim/internal/gpu"
	"mv2sim/internal/ib"
	"mv2sim/internal/sim"
)

// TestDeviceEngineCrossover: the pack kernel pays a bigger launch cost and
// a higher per-byte rate but no per-row charge, so among the device
// engines it wins exactly where rows are many and short. With the default
// calibration the 4-byte-row break-even is 101 rows: launch gap 1000ns /
// (DevRow + 4B rate gap) per row.
func TestDeviceEngineCrossover(t *testing.T) {
	m := gpu.DefaultModel()
	pick := func(rows, rowBytes, pitch int) PackMode {
		return CheapestEngine(&m, ib.Model{}, DeviceEngines, rows*rowBytes, rows, pitch)
	}
	if got := pick(100, 4, 16); got != PackModeMemcpy2D {
		t.Errorf("100 rows x 4B: %v, want memcpy2d", got)
	}
	if got := pick(101, 4, 16); got != PackModeKernel {
		t.Errorf("101 rows x 4B: %v, want kernel", got)
	}
	// Wide rows amortize DevRow to nothing; the kernel's per-byte premium
	// then dominates at every height.
	for _, rows := range []int{1, 64, 1 << 10, 1 << 20} {
		if got := pick(rows, 4096, 8192); got != PackModeMemcpy2D {
			t.Errorf("4KB rows x %d: %v, want memcpy2d", rows, got)
		}
	}
}

// irregularPlan is a 64 KiB indexed type of 4-byte blocks with
// alternating gaps: no 2D shape describes it, and its many segments make
// the kernel far cheaper than the NIC.
func irregularPlan(t *testing.T, blockSize int) plan {
	t.Helper()
	bl, displ := make([]int, 1<<14), make([]int, 1<<14)
	for i := range bl {
		bl[i], displ[i] = 1, 3*i+i%2
	}
	dt, err := datatype.Indexed(bl, displ, datatype.Float32)
	if err != nil {
		t.Fatal(err)
	}
	dt.MustCommit()
	if _, uniform := dt.Uniform2D(1); uniform {
		t.Fatal("irregular test type has a 2D shape")
	}
	return plan{size: dt.Size(), cp: dt.ChunkPlan(1, blockSize)}
}

// TestSideResolution pins every candidate rule of the per-side
// resolution: pinned modes, the copy engine only for 2D shapes, the NIC
// never as the device engine, and foreign compute striking the kernel
// only where the copy engine can take its place.
func TestSideResolution(t *testing.T) {
	m, ibm := gpu.DefaultModel(), ib.DefaultModel()
	const blockSize = 64 << 10
	vec := func(width, pitch, size int) plan {
		return plan{size: size, uniform: true, shape: datatype.Shape2D{Width: width, Pitch: pitch, Rows: size / width}}
	}
	short := vec(4, 16, 4*blockSize)     // 4 B rows: the kernel wins
	wide := vec(1024, 2048, 4*blockSize) // 1 KiB rows: the copy engine wins
	// 128 rows of 64 B per 8 KiB chunk: kernel < nic < copy, so with the
	// kernel struck the NIC beats the copy engine.
	mid := vec(64, 128, 4*(8<<10))
	contig := plan{size: blockSize, uniform: true, contig: true, shape: datatype.Shape2D{Width: blockSize, Pitch: blockSize, Rows: 1}}
	irr := irregularPlan(t, blockSize)
	for _, tc := range []struct {
		name      string
		pl        plan
		blockSize int
		mode      PackMode
		foreign   bool
		eng, dev  PackMode
	}{
		{"short/auto", short, blockSize, PackModeAuto, false, PackModeKernel, PackModeKernel},
		{"short/auto/busy", short, blockSize, PackModeAuto, true, PackModeMemcpy2D, PackModeMemcpy2D},
		{"short/nic", short, blockSize, PackModeNic, false, PackModeNic, PackModeKernel},
		{"short/nic/busy", short, blockSize, PackModeNic, true, PackModeNic, PackModeMemcpy2D},
		{"short/kernel/busy", short, blockSize, PackModeKernel, true, PackModeKernel, PackModeKernel},
		{"short/memcpy2d", short, blockSize, PackModeMemcpy2D, false, PackModeMemcpy2D, PackModeMemcpy2D},
		{"wide/auto", wide, blockSize, PackModeAuto, false, PackModeMemcpy2D, PackModeMemcpy2D},
		{"mid/auto", mid, 8 << 10, PackModeAuto, false, PackModeKernel, PackModeKernel},
		{"mid/auto/busy", mid, 8 << 10, PackModeAuto, true, PackModeNic, PackModeMemcpy2D},
		{"irregular/auto", irr, blockSize, PackModeAuto, false, PackModeKernel, PackModeKernel},
		{"irregular/auto/busy", irr, blockSize, PackModeAuto, true, PackModeKernel, PackModeKernel},
		{"irregular/memcpy2d", irr, blockSize, PackModeMemcpy2D, false, PackModeKernel, PackModeKernel},
		{"irregular/nic/busy", irr, blockSize, PackModeNic, true, PackModeNic, PackModeKernel},
		{"contig/auto", contig, blockSize, PackModeAuto, false, PackModeMemcpy2D, PackModeMemcpy2D},
		{"contig/kernel", contig, blockSize, PackModeKernel, false, PackModeMemcpy2D, PackModeMemcpy2D},
		{"contig/nic", contig, blockSize, PackModeNic, false, PackModeNic, PackModeMemcpy2D},
	} {
		sd := tc.pl.resolve(&m, ibm, tc.mode, tc.blockSize, tc.foreign)
		if sd.eng != tc.eng || sd.dev != tc.dev {
			t.Errorf("%s: eng %v dev %v, want %v %v", tc.name, sd.eng, sd.dev, tc.eng, tc.dev)
		}
	}
}

// measureTailEngines runs the tail chunk's geometry (tailRows rows of
// rowBytes read at pitch) once on each device engine — the same
// measurement cmd/packbench makes for full grid cells — and returns both
// durations. Virtual time is deterministic, so one run per engine is
// exact.
func measureTailEngines(t *testing.T, tailRows, rowBytes, pitch int) (cpy, kern sim.Time) {
	t.Helper()
	e := sim.New()
	dev := gpu.New(e, 0, gpu.Config{MemBytes: tailRows*pitch + tailRows*rowBytes + (1 << 20)})
	ctx := cuda.NewCtx(e, dev)
	src := ctx.MustMalloc(tailRows * pitch)
	dst := ctx.MustMalloc(tailRows * rowBytes)
	e.Spawn("tailbench", func(p *sim.Proc) {
		s := ctx.NewStream()
		t0 := p.Now()
		p.Wait(ctx.Memcpy2DAsync(p, dst, rowBytes, src, pitch, rowBytes, tailRows, s))
		cpy = p.Now() - t0
		t0 = p.Now()
		p.Wait(ctx.LaunchKernel(p, s, tailRows*rowBytes,
			dev.Model().PackKernelRate(tailRows*rowBytes, tailRows), nil))
		kern = p.Now() - t0
	})
	if err := e.Run(); err != nil {
		t.Fatalf("tail measurement run: %v", err)
	}
	e.Shutdown()
	return cpy, kern
}

// TestTailCutMatchesMeasuredBest pins a kernel side's tail fallback to
// measurement: for each candidate tail depth the tail goes to whichever
// engine a direct timing of that exact geometry shows to be faster (ties
// to the copy engine, as in CheapestEngine).
func TestTailCutMatchesMeasuredBest(t *testing.T) {
	m, ibm := gpu.DefaultModel(), ib.DefaultModel()
	const width, blockSize = 4, 64 << 10
	pitch := 4 * width
	for _, tailRows := range []int{1, 50, 100, 101, 500, blockSize / width / 2} {
		tail := tailRows * width
		size := 2*blockSize + tail
		pl := plan{size: size, uniform: true, shape: datatype.Shape2D{Width: width, Pitch: pitch, Rows: size / width}}
		cut := pl.resolve(&m, ibm, PackModeKernel, blockSize, false).tailCut
		cpy, kern := measureTailEngines(t, tailRows, width, pitch)
		wantCut := 0
		if cpy <= kern {
			wantCut = size - tail
		}
		if cut != wantCut {
			t.Errorf("tailRows=%d: tailCut = %d, want %d (measured memcpy2d %v vs kernel %v)",
				tailRows, cut, wantCut, cpy, kern)
		}
	}
}

// TestTailCutLegality: no cut without a tail or on a single chunk, and
// none when chunk boundaries are not row-aligned — the copy engine needs
// row-aligned ranges, so an unaligned geometry stays on the kernel
// throughout. A copy-engine side never gets a cut.
func TestTailCutLegality(t *testing.T) {
	m, ibm := gpu.DefaultModel(), ib.DefaultModel()
	const blockSize = 64 << 10
	vec := func(width, pitch, size int) plan {
		return plan{size: size, uniform: true, shape: datatype.Shape2D{Width: width, Pitch: pitch, Rows: size / width}}
	}
	for _, tc := range []struct {
		name string
		pl   plan
		mode PackMode
	}{
		{"exact multiple of blockSize", vec(4, 16, 2*blockSize), PackModeKernel},
		{"single chunk", vec(4, 16, blockSize/2), PackModeKernel},
		// Width 24 does not divide 64 KiB: chunk boundaries split rows.
		{"row-unaligned chunking", vec(24, 96, 2*blockSize+48), PackModeKernel},
		{"copy-engine side", vec(4, 16, 2*blockSize+4), PackModeMemcpy2D},
	} {
		if cut := tc.pl.resolve(&m, ibm, tc.mode, blockSize, false).tailCut; cut != 0 {
			t.Errorf("%s: tailCut = %d, want 0", tc.name, cut)
		}
	}
}
