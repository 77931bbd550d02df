package core

import (
	"fmt"

	"mv2sim/internal/gpu"
	"mv2sim/internal/ib"
	"mv2sim/internal/sim"
)

// PackMode selects the engine a transfer's stage-1 pack (or stage-5
// unpack) runs on. Three engines compete: the D2D copy engine via
// cudaMemcpy2DAsync (per-row charge, CostModel.DevRow), the GPU compute
// engine via a gather/scatter pack kernel (per-byte rate plus launch
// premium, no row charge), and the HCA's scatter/gather unit, which walks
// the datatype on the NIC itself — no device pack pass and no staging
// copy at all, at a per-segment walk cost (ib.Model, sg.go). Many short
// rows favor the kernel over the copy engine; few enough rows that kernel
// launch + staging overhead dominates favor the NIC. Irregular types
// never use the copy engine — it cannot express them.
//
// The sender's pack and the receiver's unpack are selected independently
// (Config.PackMode / Config.UnpackMode), so a transfer may pack with one
// engine and unpack with another.
type PackMode uint8

const (
	// PackModeAuto compares the three modeled costs for the transfer's
	// steady-state chunk shape and picks the cheapest engine, falling
	// back from the kernel when the compute engine is already occupied
	// by application kernels. The default.
	PackModeAuto PackMode = iota
	// PackModeMemcpy2D pins the copy-engine path (the paper's original
	// design; byte-identical to the pre-PackMode pipeline).
	PackModeMemcpy2D
	// PackModeKernel pins the gather/scatter pack kernel.
	PackModeKernel
	// PackModeNic pins the NIC-offloaded path: the HCA's SGE unit
	// gathers (sender) or scatters (receiver) the datatype directly,
	// skipping that side's pack stage and tbuf staging entirely. Paths
	// with no wire to offload to (eager sends, self-sends) degrade to
	// the modeled-cheaper device engine.
	PackModeNic
)

func (m PackMode) String() string {
	switch m {
	case PackModeAuto:
		return "auto"
	case PackModeMemcpy2D:
		return "memcpy2d"
	case PackModeKernel:
		return "kernel"
	case PackModeNic:
		return "nic"
	default:
		return fmt.Sprintf("packmode(%d)", uint8(m))
	}
}

// ParsePackMode parses a -packmode flag value.
func ParsePackMode(s string) (PackMode, error) {
	switch s {
	case "auto":
		return PackModeAuto, nil
	case "memcpy2d":
		return PackModeMemcpy2D, nil
	case "kernel":
		return PackModeKernel, nil
	case "nic":
		return PackModeNic, nil
	}
	return PackModeAuto, fmt.Errorf("core: unknown pack mode %q (want auto, memcpy2d, kernel or nic)", s)
}

// Engines is a candidate set for CheapestEngine: one bit per non-auto
// PackMode.
type Engines uint8

// DeviceEngines are the copy engine and the pack kernel: the engines that
// work without a wire to offload to.
const DeviceEngines Engines = 1<<PackModeMemcpy2D | 1<<PackModeKernel

func only(m PackMode) Engines { return 1 << m }

// CheapestEngine is the one pack-engine cost comparison. It returns the
// modeled-cheapest engine in cands for one chunk of `bytes` packed bytes
// in `segs` contiguous segments; when the copy engine is a candidate the
// segments are rows of bytes/segs bytes read at pitch. The costs mirror
// what packbench -crossover measures per point: issue + copy-engine time,
// issue + pack-kernel time, and the SGE engine's gather time (whose
// posting overhead lives inside GatherCost's WQE term, so no separate
// issue charge applies). Ties break toward the earlier engine in
// memcpy2d < kernel < nic order, matching the sweep's best-column
// computation.
func CheapestEngine(m *gpu.CostModel, ibm ib.Model, cands Engines, bytes, segs, pitch int) PackMode {
	best, bestCost := PackModeAuto, sim.Time(0)
	for e := PackModeMemcpy2D; e <= PackModeNic; e++ {
		if cands&only(e) == 0 {
			continue
		}
		var cost sim.Time
		switch e {
		case PackModeMemcpy2D:
			w := bytes / segs
			cost = m.AsyncIssue + m.CopyCost(gpu.D2D, gpu.CopyShape{Width: w, Height: segs, DPitch: w, SPitch: pitch})
		case PackModeKernel:
			cost = m.AsyncIssue + m.PackKernelCost(bytes, segs)
		default:
			cost = ibm.GatherCost(bytes, segs)
		}
		if best == PackModeAuto || cost < bestCost {
			best, bestCost = e, cost
		}
	}
	return best
}

// ChoosePackEngine returns the modeled-cheapest of all three engines for
// packing a steady-state chunk of `rows` rows of `rowBytes` bytes read at
// the given pitch: auto's pick on an idle compute engine, which agrees
// with the measured best at every crossover grid point by construction.
func ChoosePackEngine(m *gpu.CostModel, ibm ib.Model, rows, rowBytes, pitch int) PackMode {
	return CheapestEngine(m, ibm, DeviceEngines|only(PackModeNic), rows*rowBytes, rows, pitch)
}

// side is one side's engine choice, resolved once per transfer before any
// stage is issued, so the whole pipeline sees one consistent decision. The
// sender reads plan.pack, the receiver plan.unpack.
type side struct {
	// eng is the pipeline engine; PackModeNic skips the device stage.
	eng PackMode
	// dev is the device engine wherever there is no wire to offload to
	// (eager staging, self-sends): eng, unless eng is PackModeNic.
	dev PackMode
	// tailCut is the packed offset from which a kernel side's final
	// short chunk runs on the copy engine (0: never).
	tailCut int
	// st is the side's stage list (stagesFor).
	st stages
}

// resolve turns one side's PackMode into its side record. The candidates
// are the pinned engine, or under auto all three, narrowed by three rules:
//
//   - the copy engine only where the type has a 2D shape (a side pinned to
//     it on an irregular type packs by kernel);
//   - the NIC only where there is a wire, so never for dev;
//   - foreign compute on EngineKernel strikes the kernel only where the
//     copy engine can take its place, rather than serializing the pipeline
//     behind application kernels. Irregular types keep the kernel.
//
// CheapestEngine then picks on the steady-state chunk: its rows for a
// uniform type, its segments from the cached plan for an irregular one.
// A kernel side also gets a tailCut: steady-state chunks are deep enough
// past the crossover to amortize the launch premium, but the final chunk
// carries only size%blockSize bytes and may land below it. The cut needs
// row-aligned chunk boundaries, as the copy engine takes whole rows.
func (pl plan) resolve(m *gpu.CostModel, ibm ib.Model, mode PackMode, blockSize int, foreign bool) side {
	sd := side{eng: PackModeMemcpy2D, dev: PackModeMemcpy2D}
	if pl.size == 0 || pl.contig {
		// No pack stage: the engine matters only for an explicit nic pin,
		// which routes contiguous chunks through the SGE unit as one-entry
		// descriptors. Auto never picks the NIC here; there is nothing to
		// gather.
		if pl.size > 0 && mode == PackModeNic {
			sd.eng = PackModeNic
		}
		return sd
	}
	dev := DeviceEngines
	if mode == PackModeMemcpy2D || mode == PackModeKernel {
		dev = only(mode)
	}
	var bytes, segs int
	if pl.uniform {
		segs = max(1, min(blockSize, pl.size)/pl.shape.Width)
		bytes = segs * pl.shape.Width
		if foreign && dev == DeviceEngines {
			dev = only(PackModeMemcpy2D)
		}
	} else {
		bytes, segs = pl.cp.ChunkLen(0), pl.cp.SegmentCount(0)
		dev = only(PackModeKernel)
	}
	sd.dev = CheapestEngine(m, ibm, dev, bytes, segs, pl.shape.Pitch)
	switch mode {
	case PackModeAuto:
		sd.eng = CheapestEngine(m, ibm, dev|only(PackModeNic), bytes, segs, pl.shape.Pitch)
	case PackModeNic:
		sd.eng = PackModeNic
	default:
		sd.eng = sd.dev
	}
	if w := pl.shape.Width; pl.uniform && sd.dev == PackModeKernel && pl.size > blockSize && blockSize%w == 0 {
		tail := pl.size % blockSize
		if rows := tail / w; rows > 0 && CheapestEngine(m, ibm, DeviceEngines, rows*w, rows, pl.shape.Pitch) == PackModeMemcpy2D {
			sd.tailCut = pl.size - tail
		}
	}
	return sd
}
