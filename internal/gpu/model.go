// Package gpu simulates an NVIDIA Fermi-class GPU (the paper's Tesla C2050)
// at the fidelity the paper's experiments need: a real byte-addressable
// device memory, a first-fit allocator, independent DMA copy engines for
// each transfer direction, a kernel-execution engine, and an analytic cost
// model for contiguous and 2D-strided copies.
//
// The cost model is calibrated against the measurements the paper itself
// reports for a Tesla C2050 on PCIe 2.0 x16 (section I-A and Figure 2):
//
//	D2H nc2nc, 4 KB vector (1024 rows of 4 B): ~200 µs
//	D2H nc2c,  4 KB vector:                    ~281 µs
//	D2D2H nc2c2c, 4 KB vector:                 ~35 µs
//	D2D2H nc2c2c at 4 MB ≈ 4.8 % of D2H nc2nc
//
// The structure behind those numbers: a PCIe strided copy issues one DMA
// transaction per row, so its cost is dominated by a per-row overhead of
// hundreds of nanoseconds, while the on-device copy engine moves strided
// rows at tens of nanoseconds each and the packed result then crosses PCIe
// at full contiguous bandwidth. That per-row asymmetry is exactly what
// makes the paper's GPU-offloaded packing win, and it is preserved here.
package gpu

import (
	"mv2sim/internal/mem"
	"mv2sim/internal/sim"
)

// CopyDir identifies the direction of a copy relative to the device.
type CopyDir uint8

const (
	H2D CopyDir = iota // host to device
	D2H                // device to host
	D2D                // device to device
	H2H                // host to host (CPU memcpy, for completeness)
)

func (d CopyDir) String() string {
	switch d {
	case H2D:
		return "h2d"
	case D2H:
		return "d2h"
	case D2D:
		return "d2d"
	case H2H:
		return "h2h"
	default:
		return "dir?"
	}
}

// DirOf classifies a copy by its endpoint spaces, the way CUDA's
// cudaMemcpyDefault resolves directions under UVA.
func DirOf(dst, src mem.Ptr) CopyDir {
	switch {
	case src.IsDevice() && dst.IsDevice():
		return D2D
	case src.IsDevice():
		return D2H
	case dst.IsDevice():
		return H2D
	default:
		return H2H
	}
}

// CostModel holds every latency/bandwidth constant of the simulated GPU and
// its PCIe attachment. All bandwidths are bytes per second of virtual time.
type CostModel struct {
	// PCIeBandwidth is the effective contiguous DMA bandwidth between host
	// and device in one direction. PCIe 2.0 x16 is 8 GB/s raw; ~5.2 GB/s is
	// a typical effective pinned-memory figure on Westmere-era hosts.
	PCIeBandwidth float64

	// PCIeBase is the fixed setup cost of one host/device DMA transfer
	// (driver work, doorbell, DMA start).
	PCIeBase sim.Time

	// PCIeRowNC2NC and PCIeRowNC2C are the per-row costs of a 2D strided
	// copy crossing PCIe. A strided PCIe copy issues one transaction per
	// row. nc2nc leaves rows strided on both sides; nc2c gathers them into
	// a contiguous buffer on the far side, which the paper measured to be
	// *more* expensive per row (281 µs vs 200 µs at 1024 rows).
	PCIeRowNC2NC sim.Time
	PCIeRowNC2C  sim.Time

	// DevBandwidth is the device-internal copy-engine bandwidth (global
	// memory to global memory). C2050: ~100 GB/s effective for large
	// engine-driven copies.
	DevBandwidth float64

	// DevBase is the fixed cost of launching one device-internal copy.
	DevBase sim.Time

	// DevRow is the per-row cost of a 2D strided copy performed entirely
	// inside device memory. Tens of nanoseconds: this is the asymmetry
	// that makes GPU-offloaded packing fast.
	DevRow sim.Time

	// HostBandwidth and HostBase model plain CPU memcpy, used for host-side
	// datatype packing and pageable staging.
	HostBandwidth float64
	HostBase      sim.Time

	// SyncOverhead is the extra host-side cost of a *blocking* CUDA call
	// (stream synchronization, driver round trip) compared with an async
	// launch.
	SyncOverhead sim.Time

	// AsyncIssue is the host-side cost of issuing an asynchronous copy or
	// kernel (the caller is occupied this long before the call returns).
	AsyncIssue sim.Time

	// KernelLaunch is the fixed device-side cost of starting a kernel.
	KernelLaunch sim.Time

	// PackKernelNsPerByte is the per-byte streaming cost of the
	// gather/scatter pack kernel (one read plus one write through global
	// memory, ~50 GB/s asymptotic on Fermi). Unlike the copy engine's 2D
	// path the kernel carries no per-ROW charge — threads address cells,
	// not rows — which is exactly the asymmetry that makes it win for
	// many-short-row shapes (TEMPI, arXiv:2012.14363).
	PackKernelNsPerByte float64

	// PackKernelNsPerSegment is the per-segment (per contiguous block)
	// cost of the pack kernel: address generation and uncoalesced access
	// at each block boundary. TEMPI's kernel pack throughput is strongly
	// block-size sensitive — tiny blocks run an order of magnitude below
	// the asymptotic rate and wide blocks approach it — which a flat ns/B
	// rate cannot express. The calibration splits the old 0.025 ns/B flat
	// rate so that 4-byte segments (this repo's Figure 5 vector geometry)
	// cost exactly what they always did: 0.02 ns/B + 0.02 ns/segment / 4 B
	// = 0.025 ns/B, while wider blocks are cheaper per byte.
	PackKernelNsPerSegment float64
}

// DefaultModel returns the C2050/PCIe-2.0 calibration described in the
// package comment.
func DefaultModel() CostModel {
	return CostModel{
		PCIeBandwidth: 5.2e9,
		PCIeBase:      7 * sim.Microsecond,
		PCIeRowNC2NC:  185 * sim.Nanosecond,
		PCIeRowNC2C:   265 * sim.Nanosecond,
		DevBandwidth:  100e9,
		DevBase:       4 * sim.Microsecond,
		DevRow:        10 * sim.Nanosecond,
		HostBandwidth: 6e9,
		HostBase:      300 * sim.Nanosecond,
		SyncOverhead:  3 * sim.Microsecond,
		AsyncIssue:    1 * sim.Microsecond,
		KernelLaunch:  5 * sim.Microsecond,

		PackKernelNsPerByte:    0.02,
		PackKernelNsPerSegment: 0.02,
	}
}

// CopyShape describes the geometry of a (possibly 2D) copy for costing.
// A contiguous 1D copy of n bytes is {Width: n, Height: 1} with both
// pitches equal to n.
type CopyShape struct {
	Width  int // bytes per row
	Height int // number of rows
	DPitch int // destination pitch in bytes
	SPitch int // source pitch in bytes
}

// Shape1D returns the shape of a contiguous n-byte copy.
func Shape1D(n int) CopyShape {
	return CopyShape{Width: n, Height: 1, DPitch: n, SPitch: n}
}

// Bytes returns the payload size.
func (s CopyShape) Bytes() int { return s.Width * s.Height }

// SrcStrided reports whether the source rows are non-contiguous.
func (s CopyShape) SrcStrided() bool { return s.Height > 1 && s.SPitch != s.Width }

// DstStrided reports whether the destination rows are non-contiguous.
func (s CopyShape) DstStrided() bool { return s.Height > 1 && s.DPitch != s.Width }

// Contiguous reports whether the copy degenerates to a single linear move.
func (s CopyShape) Contiguous() bool { return !s.SrcStrided() && !s.DstStrided() }

// CopyCost returns the device/bus occupancy time of a copy of the given
// shape in the given direction. It does not include host-side call
// overheads (SyncOverhead / AsyncIssue), which the cuda layer accounts to
// the calling process.
func (m *CostModel) CopyCost(dir CopyDir, s CopyShape) sim.Time {
	bytes := s.Bytes()
	switch dir {
	case D2D:
		t := m.DevBase + sim.DurationOf(bytes, m.DevBandwidth)
		if !s.Contiguous() {
			t += sim.Time(int64(s.Height) * int64(m.DevRow))
		}
		return t
	case H2D, D2H:
		t := m.PCIeBase + sim.DurationOf(bytes, m.PCIeBandwidth)
		if !s.Contiguous() {
			// One DMA transaction per row. The per-row constant depends on
			// whether the copy also gathers into a contiguous layout.
			row := m.PCIeRowNC2NC
			if (dir == D2H && !s.DstStrided()) || (dir == H2D && !s.SrcStrided()) {
				row = m.PCIeRowNC2C
			}
			t += sim.Time(int64(s.Height) * int64(row))
		}
		return t
	case H2H:
		t := m.HostBase + sim.DurationOf(bytes, m.HostBandwidth)
		if !s.Contiguous() {
			t += sim.Time(int64(s.Height) * int64(m.HostBase) / 4)
		}
		return t
	default:
		panic("gpu: unknown copy direction")
	}
}

// KernelCost returns the execution time of a kernel processing `cells`
// elements at nsPerCell nanoseconds each, plus launch overhead.
func (m *CostModel) KernelCost(cells int, nsPerCell float64) sim.Time {
	return m.KernelLaunch + sim.Time(float64(cells)*nsPerCell)
}

// PackKernelNsPerCell returns the pack kernel's base per-byte cost with no
// segment charge, floored at the device copy engine's byte rate: the
// kernel streams through the same global memory, so no calibration may
// let it beat DevBandwidth. Segment-aware callers use PackKernelRate.
func (m *CostModel) PackKernelNsPerCell() float64 {
	floor := 1e9 / m.DevBandwidth
	if m.PackKernelNsPerByte > floor {
		return m.PackKernelNsPerByte
	}
	return floor
}

// PackKernelRate returns the kernel's effective per-byte cost for a pack
// of `bytes` total bytes spread over `segments` contiguous blocks: the
// streaming rate plus the per-segment charge amortized over the mean
// block width, floored at the copy engine's byte rate. segments <= 0
// (unknown geometry) degrades to the flat rate.
func (m *CostModel) PackKernelRate(bytes, segments int) float64 {
	r := m.PackKernelNsPerByte
	if segments > 0 && bytes > 0 && m.PackKernelNsPerSegment > 0 {
		// Per-byte share of the segment charge: nsPerSeg / meanWidth,
		// computed as a single division so the 4-byte-segment case lands
		// exactly on the historical 0.025 ns/B flat rate.
		r += m.PackKernelNsPerSegment * (float64(segments) / float64(bytes))
	}
	if floor := 1e9 / m.DevBandwidth; r < floor {
		r = floor
	}
	return r
}

// PackKernelCost returns the modeled duration of a gather/scatter pack
// kernel over `bytes` packed bytes in `segments` contiguous blocks:
// launch overhead plus the segment-amortized per-byte term, with no
// per-row DMA component.
func (m *CostModel) PackKernelCost(bytes, segments int) sim.Time {
	return m.KernelCost(bytes, m.PackKernelRate(bytes, segments))
}
