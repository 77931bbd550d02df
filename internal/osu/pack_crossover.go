// Pack-engine crossover sweep. Three engines compete to pack one
// pipeline-chunk-shaped (rows × rowBytes) strided block: the copy engine
// charges DevRow per row on top of byte bandwidth; the gather kernel
// charges a higher per-byte rate and a larger launch cost but no row
// term; the HCA's SGE unit charges per gathered segment plus a
// WQE-posting term, with no device involvement at all. This sweep
// measures all of them per grid cell and locates the kernel-vs-copy
// break-even row count per row width — the experimental basis of core's
// PackModeAuto heuristic, whose three-way pick must match the measured
// best at every point.
package osu

import (
	"fmt"

	"mv2sim/internal/core"
	"mv2sim/internal/cuda"
	"mv2sim/internal/datatype"
	"mv2sim/internal/gpu"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/report"
	"mv2sim/internal/sim"
)

// CrossoverPoint is one (rows, rowBytes) cell of the sweep grid.
type CrossoverPoint struct {
	Rows       int     `json:"rows"`
	RowBytes   int     `json:"row_bytes"`
	Memcpy2DUs float64 `json:"memcpy2d_us"`
	KernelUs   float64 `json:"kernel_us"`
	NicUs      float64 `json:"nic_us"`
	Auto       string  `json:"auto"`    // engine PackModeAuto would pick
	AutoUs     float64 `json:"auto_us"` // its measured time
	Best       string  `json:"best"`    // fastest engine, measured
}

// engines returns the point's measured engine table in tie-break order:
// earlier entries win ties, so a NIC gather exactly matching the copy
// engine still stays on the device.
func (pt CrossoverPoint) engines() []struct {
	Name string
	Us   float64
} {
	return []struct {
		Name string
		Us   float64
	}{
		{"memcpy2d", pt.Memcpy2DUs},
		{"kernel", pt.KernelUs},
		{"nic", pt.NicUs},
	}
}

// CrossoverResult is the full sweep: the measured grid plus the break-even
// row count per row width (the smallest row count at which the kernel
// wins; -1 when the copy engine wins at every row count).
type CrossoverResult struct {
	PitchFactor   int              `json:"pitch_factor"`
	Grid          []CrossoverPoint `json:"grid"`
	BreakEvenRows map[int]int      `json:"break_even_rows"`
}

// packPoint measures one grid cell: the device-side D2D pack of a
// rows × rowBytes strided block, once on the copy engine and once on the
// compute engine. Virtual time is deterministic, so one run per engine is
// exact.
func packPoint(rows, rowBytes, pitch int, model gpu.CostModel) (cpy, kern sim.Time, err error) {
	e := sim.New()
	dev := gpu.New(e, 0, gpu.Config{MemBytes: rows*pitch + rows*rowBytes + (1 << 20), Model: model})
	ctx := cuda.NewCtx(e, dev)
	src, err := ctx.Malloc(rows * pitch)
	if err != nil {
		return 0, 0, fmt.Errorf("osu: crossover source alloc: %w", err)
	}
	tbuf, err := ctx.Malloc(rows * rowBytes)
	if err != nil {
		return 0, 0, fmt.Errorf("osu: crossover tbuf alloc: %w", err)
	}
	e.Spawn("bench", func(p *sim.Proc) {
		s := ctx.NewStream()
		t0 := p.Now()
		p.Wait(ctx.Memcpy2DAsync(p, tbuf, rowBytes, src, pitch, rowBytes, rows, s))
		cpy = p.Now() - t0
		t0 = p.Now()
		p.Wait(ctx.LaunchKernel(p, s, rows*rowBytes, dev.Model().PackKernelRate(rows*rowBytes, rows), nil))
		kern = p.Now() - t0
	})
	// Free both buffers before acting on the run error — and free src even
	// when freeing tbuf failed — so no early return strands an allocation.
	runErr := e.Run()
	e.Shutdown()
	freeErr := ctx.Free(tbuf)
	if err := ctx.Free(src); err != nil && freeErr == nil {
		freeErr = err
	}
	if runErr != nil {
		return 0, 0, fmt.Errorf("osu: pack crossover (%dx%d): %w", rows, rowBytes, runErr)
	}
	if freeErr != nil {
		return 0, 0, freeErr
	}
	if err := checkDeviceClean(dev); err != nil {
		return 0, 0, err
	}
	return cpy, kern, nil
}

// nicPoint measures the same grid cell on the HCA's SGE unit: a one-chunk
// gather of the rows × rowBytes strided block, executed by a single-HCA
// fabric. Virtual time is deterministic, so the measured duration is the
// exact serialized engine occupancy of ib.Model.GatherCost.
func nicPoint(rows, rowBytes, pitch int, model ib.Model) (sim.Time, error) {
	e := sim.New()
	f := ib.NewFabric(e, model)
	h := f.NewHCA(0)
	dt, err := datatype.Hvector(rows, rowBytes, pitch, datatype.Byte)
	if err != nil {
		return 0, fmt.Errorf("osu: crossover gather type (%dx%d): %w", rows, rowBytes, err)
	}
	dt.MustCommit()
	src := mem.NewDeviceSpace("crossover.src", 0, rows*pitch)
	dst := make([]byte, rows*rowBytes)
	sg := ib.SGDesc{Plan: dt.ChunkPlan(1, rows*rowBytes), Buf: src.Base(), N: rows * rowBytes}
	var dur sim.Time
	e.Spawn("bench", func(p *sim.Proc) {
		t0 := p.Now()
		p.Wait(h.ExecuteGather(sg, dst))
		dur = p.Now() - t0
	})
	runErr := e.Run()
	e.Shutdown()
	if runErr != nil {
		return 0, fmt.Errorf("osu: nic gather crossover (%dx%d): %w", rows, rowBytes, runErr)
	}
	return dur, nil
}

// CrossoverBreakEven returns the smallest row count at which the kernel
// pack is modeled faster than the copy engine for the given row width, or
// -1 if the copy engine wins at every row count up to 1M rows: core's
// engine comparison restricted to the two device engines.
func CrossoverBreakEven(rowBytes, pitch int, model *gpu.CostModel) int {
	const maxRows = 1 << 20
	kernelWins := func(rows int) bool {
		return core.CheapestEngine(model, ib.Model{}, core.DeviceEngines, rows*rowBytes, rows, pitch) == core.PackModeKernel
	}
	if !kernelWins(maxRows) {
		return -1
	}
	lo, hi := 1, maxRows
	for lo < hi {
		mid := (lo + hi) / 2
		if kernelWins(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// PackCrossover runs the sweep over the rows × rowBytes grid. Source rows
// are strided at pitchFactor × rowBytes, mirroring a vector type packed
// out of a wider matrix. The zero models mean the default calibrations.
func PackCrossover(rowsList, rowBytesList []int, pitchFactor int, model gpu.CostModel, ibModel ib.Model) (*CrossoverResult, error) {
	if pitchFactor < 2 {
		pitchFactor = 2
	}
	res := &CrossoverResult{PitchFactor: pitchFactor, BreakEvenRows: map[int]int{}}
	m := model
	if m.PCIeBandwidth == 0 {
		m = gpu.DefaultModel()
	}
	// Normalize the fabric model the same way ib.NewFabric will, so the
	// heuristic and the measurement see identical cost constants.
	ibm := ibModel
	if ibm.Bandwidth <= 0 {
		ibm = ib.DefaultModel()
	}
	for _, rowBytes := range rowBytesList {
		pitch := pitchFactor * rowBytes
		for _, rows := range rowsList {
			cpy, kern, err := packPoint(rows, rowBytes, pitch, model)
			if err != nil {
				return nil, err
			}
			nic, err := nicPoint(rows, rowBytes, pitch, ibModel)
			if err != nil {
				return nil, err
			}
			pt := CrossoverPoint{
				Rows:       rows,
				RowBytes:   rowBytes,
				Memcpy2DUs: cpy.Micros(),
				KernelUs:   kern.Micros(),
				NicUs:      nic.Micros(),
			}
			table := pt.engines()
			best := table[0]
			for _, e := range table[1:] {
				if e.Us < best.Us {
					best = e
				}
			}
			pt.Best = best.Name
			// The heuristic core's PackModeAuto applies on an idle engine.
			pt.Auto = core.ChoosePackEngine(&m, ibm, rows, rowBytes, pitch).String()
			for _, e := range table {
				if e.Name == pt.Auto {
					pt.AutoUs = e.Us
				}
			}
			res.Grid = append(res.Grid, pt)
		}
		res.BreakEvenRows[rowBytes] = CrossoverBreakEven(rowBytes, pitchFactor*rowBytes, &m)
	}
	return res, nil
}

// Table renders the sweep as rows×widths grids of per-engine times with
// the auto pick marked.
func (r *CrossoverResult) Table() *report.Table {
	t := report.NewTable("Pack crossover: memcpy2D vs kernel vs nic (us, * = auto pick)",
		"rows", "rowB", "memcpy2d", "kernel", "nic", "best", "break-even")
	for _, pt := range r.Grid {
		be := fmt.Sprint(r.BreakEvenRows[pt.RowBytes])
		if r.BreakEvenRows[pt.RowBytes] < 0 {
			be = "never"
		}
		row := []string{fmt.Sprint(pt.Rows), fmt.Sprint(pt.RowBytes)}
		for _, e := range pt.engines() {
			mark := " "
			if e.Name == pt.Auto {
				mark = "*"
			}
			row = append(row, fmt.Sprintf("%.3f%s", e.Us, mark))
		}
		t.Add(append(row, pt.Best, be)...)
	}
	return t
}
