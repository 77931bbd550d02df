// Package core implements MV2-GPU-NC, the paper's contribution: transparent
// high-performance MPI communication of non-contiguous datatypes whose
// buffers live in GPU device memory.
//
// The design follows section IV of the paper:
//
//  1. Datatype processing is offloaded to the GPU. Non-contiguous data is
//     packed inside device memory into a contiguous temporary buffer
//     ("tbuf") using the device's copy engine — cudaMemcpy2DAsync for
//     vector-shaped types, a pack kernel for irregular ones — instead of
//     letting the host gather it row-by-row across PCIe.
//
//  2. The transfer is a five-stage pipeline chunked at a configurable
//     block size (64 KB optimal on the paper's cluster):
//     D2D nc2c pack → D2H stage into a registered host vbuf → RDMA write
//     into the receiver's vbuf → H2D stage into the receiver's tbuf →
//     D2D c2nc unpack into the user buffer. Chunks flow through all five
//     stages concurrently; the RTS is sent while packing is already in
//     progress, overlapping the rendezvous handshake with datatype
//     processing.
//
//  3. The programming model is unchanged: applications pass device
//     pointers and committed MPI datatypes straight to Send/Recv; the
//     library detects device memory (UVA classification on mem.Ptr) and
//     routes the transfer here.
//
// Fully contiguous device transfers skip the pack/unpack stages and
// pipeline directly between the user buffer and the staging vbufs — the
// behaviour of the earlier MVAPICH2-GPU design the paper extends. The
// GPUDirect and host-staged ablations and the NIC-offloaded engine are
// the same pipeline with stages removed; see stages.
package core

import (
	"fmt"

	"mv2sim/internal/cuda"
	"mv2sim/internal/datatype"
	"mv2sim/internal/gpu"
	"mv2sim/internal/hostmem"
	"mv2sim/internal/ib"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Config holds the transport tunables. GPUDirect RDMA is not one of them:
// it follows the fabric (ib.Model.AllowDeviceRegistration), which
// cluster.Config.GPUDirect switches on.
type Config struct {
	// PackMode selects the engine for the sender's stage-1 pack of
	// uniform 2D types; UnpackMode selects it for the receiver's stage-5
	// unpack. The two sides are independent — a transfer may pack with
	// the kernel and unpack with the copy engine. The zero value is
	// PackModeAuto; see packmode.go. The per-byte kernel rate lives in
	// gpu.CostModel.PackKernelNsPerByte.
	PackMode   PackMode
	UnpackMode PackMode

	// HostStagedPack disables the paper's GPU offload for rendezvous
	// transfers of uniform 2D types: data is gathered straight across
	// PCIe with strided D2H copies ("D2H nc2c", the scheme section IV-A
	// rejects) instead of being packed on the device first, and scattered
	// with strided H2D copies on the receiver. An ablation knob; see
	// stagesFor.
	HostStagedPack bool
}

// NodeGPU bundles one rank's GPU-side resources: its CUDA context, its
// registered staging pools, and the four streams the pipeline stages run
// on. Send and receive sides stage through SEPARATE vbuf pools: a sender's
// vbufs recycle on local RDMA completion (no remote dependency), so
// senders always make progress and the receiver-holds/sender-needs
// circular wait that a shared pool allows under heavy bidirectional load
// cannot form.
type NodeGPU struct {
	Ctx      *cuda.Ctx
	Pool     *hostmem.Pool // send-side staging
	RecvPool *hostmem.Pool // receive-side landing slots

	// rails is the stripe width: rendezvous chunk c runs its D2H/H2D on
	// stream pair c%rails and its RDMA+FIN on HCA rail c%rails.
	rails        int
	packStream   *cuda.Stream
	d2hStreams   []*cuda.Stream // one per rail
	h2dStreams   []*cuda.Stream // one per rail
	unpackStream *cuda.Stream

	// kernOps counts this transport's pack/unpack kernels in flight on
	// the device (issued, not yet complete). The auto heuristic uses it to
	// tell its own kernel traffic apart from application compute when it
	// samples EngineKernel occupancy: only foreign work forces the
	// copy-engine fallback. Updated in simulation order, so no locking.
	kernOps int

	tracks stageTracks
}

// stageTracks holds the precomputed per-rank tracing track names — one per
// pipeline stage, and one per rail for the striped middle stages — so the
// traced hot path never formats strings.
type stageTracks struct {
	pack, unpack   string
	d2h, rdma, h2d []string // indexed by rail
}

// railTracks expands a stage's track name per rail. Single-rail keeps the
// historical bare name; multi-rail suffixes every rail (including rail 0)
// so traces never mix a bare track with rail-indexed siblings.
func railTracks(base string, rails int) []string {
	if rails == 1 {
		return []string{base}
	}
	out := make([]string, rails)
	for i := range out {
		out[i] = fmt.Sprintf("%s.r%d", base, i)
	}
	return out
}

// Transport implements mpi.GPUTransport. Pipeline stages are traced on
// the world's hub (mpi.World.Hub): every stage of every chunk becomes a
// task on its rank's per-stage track ("rank0.pack", "rank0.d2h", ...,
// "rank1.unpack"), parented to the MPI request task.
type Transport struct {
	cfg   Config
	nodes map[*mpi.Rank]*NodeGPU
}

// New creates an empty transport; attach per-rank GPU resources with
// Attach, then install it with World.SetGPUTransport.
func New(cfg Config) *Transport {
	return &Transport{cfg: cfg, nodes: map[*mpi.Rank]*NodeGPU{}}
}

// Attach binds a rank's CUDA context and staging pools to the transport.
// The rail count comes from the world's MPI config; streams are created in
// pack, d2h(s), h2d(s), unpack order so single-rail clusters get exactly
// the historical stream IDs.
func (t *Transport) Attach(r *mpi.Rank, ctx *cuda.Ctx, sendPool, recvPool *hostmem.Pool) *NodeGPU {
	rails := r.World().Config().Rails
	if rails < 1 {
		rails = 1
	}
	n := &NodeGPU{
		Ctx:        ctx,
		Pool:       sendPool,
		RecvPool:   recvPool,
		rails:      rails,
		packStream: ctx.NewStream(),
		tracks: stageTracks{
			pack:   fmt.Sprintf("rank%d.pack", r.Rank()),
			d2h:    railTracks(fmt.Sprintf("rank%d.d2h", r.Rank()), rails),
			rdma:   railTracks(fmt.Sprintf("rank%d.rdma", r.Rank()), rails),
			h2d:    railTracks(fmt.Sprintf("rank%d.h2d", r.Rank()), rails),
			unpack: fmt.Sprintf("rank%d.unpack", r.Rank()),
		},
	}
	for i := 0; i < rails; i++ {
		n.d2hStreams = append(n.d2hStreams, ctx.NewStream())
	}
	for i := 0; i < rails; i++ {
		n.h2dStreams = append(n.h2dStreams, ctx.NewStream())
	}
	n.unpackStream = ctx.NewStream()
	t.nodes[r] = n
	return n
}

// Node returns the GPU state for a rank.
func (t *Transport) Node(r *mpi.Rank) *NodeGPU {
	n := t.nodes[r]
	if n == nil {
		panic(fmt.Sprintf("core: rank %d has a device buffer but no attached GPU", r.Rank()))
	}
	return n
}

// plan is the request's datatype analysed once per transfer: either a
// uniform 2D shape (answered analytically from the shape canonicalized at
// Commit) or the generic kernel path, which fetches the datatype's cached
// chunk-aligned plan so per-chunk packing re-derives nothing. Each side's
// PackMode is resolved into its side record here, before any stage is
// issued.
type plan struct {
	size         int
	shape        datatype.Shape2D
	uniform      bool
	contig       bool // single contiguous region: no pack/unpack stage at all
	pack, unpack side
	cp           *datatype.ChunkPlan // set whenever either side leaves the copy engine
}

// sgRange lowers the packed byte range [off, off+n) of the request's
// buffer to the NIC gather/scatter descriptor covering it.
func (pl plan) sgRange(req *mpi.Request, off, n int) ib.SGDesc {
	if pl.contig {
		return ib.SGDesc{Buf: req.Buf().Add(pl.shape.Off + off), N: n}
	}
	return ib.SGDesc{Plan: pl.cp, Buf: req.Buf(), Off: off, N: n}
}

func (t *Transport) planFor(req *mpi.Request) plan {
	dt, count := req.Datatype(), req.Count()
	shape, uniform := dt.Uniform2D(count)
	pl := plan{
		size:    req.Size(),
		shape:   shape,
		uniform: uniform,
		contig:  uniform && shape.Rows == 1,
	}
	r := req.Rank()
	blockSize := r.World().Config().BlockSize
	packs := pl.size > 0 && !pl.contig
	if packs && !uniform {
		pl.cp = dt.ChunkPlan(count, blockSize)
	}
	n1 := t.Node(r)
	m, ibm, foreign := n1.Ctx.Model(), r.HCA().Model(), n1.foreignCompute()
	pl.pack = pl.resolve(m, ibm, t.cfg.PackMode, blockSize, foreign)
	pl.unpack = pl.resolve(m, ibm, t.cfg.UnpackMode, blockSize, foreign)
	pl.pack.st = t.stagesFor(r, pl, pl.pack.eng)
	pl.unpack.st = t.stagesFor(r, pl, pl.unpack.eng)
	if packs && pl.cp == nil && (pl.pack.eng != PackModeMemcpy2D || pl.unpack.eng != PackModeMemcpy2D) {
		pl.cp = dt.ChunkPlan(count, blockSize)
	}
	return pl
}

// foreignCompute reports whether application compute holds or queues on
// EngineKernel. The transport's own pack kernels in flight (kernOps) mean
// the engine business is pipeline traffic, e.g. the reverse direction of
// a bidirectional exchange, which interleaves fine at microsecond
// granularity; application kernels hold the engine for whole compute
// phases.
func (n1 *NodeGPU) foreignCompute() bool {
	ke := n1.Ctx.Device().Engine(gpu.EngineKernel)
	return n1.kernOps == 0 && (ke.InUse() > 0 || ke.QueueLen() > 0)
}

// deviceChunk enqueues one side's device pass over packed range
// [off, off+n) and returns its completion event: the sender's pack from
// the user buffer into tbuf (contiguous device memory), or the receiver's
// unpack from tbuf into the user buffer. p may be nil in engine context.
// sp is the enclosing stage span and chunk the pipeline chunk index;
// kernel-path ops are traced under them.
func (pl plan) deviceChunk(p *sim.Proc, n1 *NodeGPU, pack bool, req *mpi.Request, sp obs.Span, chunk int, tbuf mem.Ptr, off, n int) *sim.Event {
	sd, s := pl.unpack, n1.unpackStream
	if pack {
		sd, s = pl.pack, n1.packStream
	}
	if sd.dev == PackModeMemcpy2D || (sd.tailCut > 0 && off >= sd.tailCut) {
		return pl.moveRows(p, n1.Ctx, pack, tbuf, req, off, n, s, sp, chunk)
	}
	// Kernel path: a gather/scatter kernel walks the cached chunk plan's
	// segments on the compute engine (callers keep off/n chunk-aligned).
	d := pl.cp.Kernel(off, n)
	return n1.launch(p, s, sp, chunk, d, func() {
		if pack {
			d.Pack(tbuf, req.Buf())
		} else {
			d.Unpack(req.Buf(), tbuf)
		}
	})
}

// launch enqueues a pack or unpack kernel for descriptor d, counted in
// kernOps while it is in flight.
func (n1 *NodeGPU) launch(p *sim.Proc, s *cuda.Stream, sp obs.Span, chunk int, d datatype.KernelDesc, body func()) *sim.Event {
	n1.kernOps++
	ev := n1.Ctx.LaunchKernelTask(p, s, sp, chunk, d.Bytes(), n1.Ctx.Model().PackKernelRate(d.Bytes(), d.Segments()), body)
	ev.OnTrigger(func() { n1.kernOps-- })
	return ev
}

// moveRows enqueues one 2D copy of the rows holding packed range
// [off, off+n) of a uniform request: gathered into contiguous tbuf when
// pack is set (the copy-engine pack, and the host-staged D2H hop), else
// scattered out of it. The range must be row-aligned.
func (pl plan) moveRows(p *sim.Proc, ctx *cuda.Ctx, pack bool, tbuf mem.Ptr, req *mpi.Request, off, n int, s *cuda.Stream, sp obs.Span, chunk int) *sim.Event {
	w := pl.rowWidth(off, n)
	user := req.Buf().Add(pl.shape.Off + off/w*pl.shape.Pitch)
	if pack {
		return ctx.Memcpy2DAsyncTask(p, tbuf, w, user, pl.shape.Pitch, w, n/w, s, sp, chunk)
	}
	return ctx.Memcpy2DAsyncTask(p, user, pl.shape.Pitch, tbuf, w, w, n/w, s, sp, chunk)
}

func (pl plan) rowWidth(off, n int) int {
	w := pl.shape.Width
	if off%w != 0 || n%w != 0 {
		panic(fmt.Sprintf("core: range [%d,%d) not row-aligned (width %d)", off, off+n, w))
	}
	return w
}

// ---------------------------------------------------------------------------
// Eager path (and self-sends of any size)

// StageToHost packs the device buffer and stages it into host bytes:
// D2D pack into tbuf, then chunk-sized D2H copies double-buffered through
// two vbufs, so the host memcpy draining chunk i overlaps chunk i+1's D2H.
// The second vbuf is best-effort (TryGet): a drained pool degrades to the
// serial single-vbuf path instead of risking deadlock. packed is a buffer
// from the fabric's recycler; deliver takes ownership of it.
func (t *Transport) StageToHost(req *mpi.Request, deliver func(packed []byte)) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	e := r.World().Engine()
	e.Spawn(fmt.Sprintf("rank%d.gpustage", r.Rank()), func(p *sim.Proc) {
		size := pl.size
		packed := r.HCA().Buffers().Get(size)
		var tbuf mem.Ptr
		if !pl.contig {
			tbuf = n1.Ctx.MustMalloc(size)
			p.Wait(pl.deviceChunk(p, n1, true, req, req.ObsSpan(), -1, tbuf, 0, size))
		} else {
			tbuf = req.Buf().Add(pl.shape.Off)
		}
		chunk := n1.Pool.ChunkSize()
		var bufs [2]*hostmem.Vbuf
		bufs[0] = n1.Pool.Get(p)
		nbuf := 1
		if size > chunk {
			if v, ok := n1.Pool.TryGet(); ok {
				bufs[1] = v
				nbuf = 2
			}
		}
		var evs [2]*sim.Event
		issue := func(b, off int) {
			n := min(chunk, size-off)
			evs[b] = n1.Ctx.MemcpyAsyncTask(p, bufs[b].Ptr, tbuf.Add(off), n, n1.d2hStreams[0], req.ObsSpan(), -1)
		}
		issue(0, 0)
		b := 0
		for off := 0; off < size; off += chunk {
			n := min(chunk, size-off)
			p.Wait(evs[b])
			next := off + chunk
			if next < size && nbuf == 2 {
				issue(1-b, next)
			}
			// The drain memcpy's bytes are due when the modeled host copy
			// ends; the vbuf is not re-filled before then and packed is only
			// read by deliver after the loop.
			hc := r.HostCopyCost(n)
			dst, src := packed[off:off+n], bufs[b].Ptr.Bytes(n)
			e.TaskAt(p.Now()+hc, func() { copy(dst, src) })
			p.Sleep(hc)
			if next < size && nbuf == 1 {
				issue(0, next)
			}
			if nbuf == 2 {
				b = 1 - b
			}
		}
		n1.Pool.Put(bufs[0])
		if bufs[1] != nil {
			n1.Pool.Put(bufs[1])
		}
		if !pl.contig {
			mustFree(n1.Ctx, tbuf)
		}
		deliver(packed)
	})
}

// DeliverFromHost unpacks eager payload bytes into the device buffer:
// host copy into a vbuf, H2D into tbuf, D2D unpack, complete. The host
// copies and H2D transfers are double-buffered across two vbufs (when the
// pool allows): the H2D of chunk i runs while the host fills chunk i+1.
// DeliverFromHost owns packed, a buffer from the fabric's recycler, and
// releases it once the last host copy has read it.
func (t *Transport) DeliverFromHost(req *mpi.Request, packed []byte) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	e := r.World().Engine()
	e.Spawn(fmt.Sprintf("rank%d.gpudeliver", r.Rank()), func(p *sim.Proc) {
		size := len(packed)
		var tbuf mem.Ptr
		if pl.contig {
			tbuf = req.Buf().Add(pl.shape.Off)
		} else {
			//lint:ignore allocfree freed below under the same !pl.contig guard that allocated it; the guard is immutable but the flow analysis is path-insensitive and cannot correlate the branches
			tbuf = n1.Ctx.MustMalloc(size)
		}
		chunk := n1.Pool.ChunkSize()
		var bufs [2]*hostmem.Vbuf
		bufs[0] = n1.RecvPool.Get(p)
		nbuf := 1
		if size > chunk {
			if v, ok := n1.RecvPool.TryGet(); ok {
				bufs[1] = v
				nbuf = 2
			}
		}
		var evs [2]*sim.Event
		b := 0
		for off := 0; off < size; off += chunk {
			n := min(chunk, size-off)
			if evs[b] != nil {
				p.Wait(evs[b]) // vbuf b's previous H2D must have drained it
			}
			// The fill memcpy's bytes are due when the modeled host copy
			// ends; the H2D that reads the vbuf is issued after the sleep,
			// i.e. after this task's slot commits.
			hc := r.HostCopyCost(n)
			dst, src := bufs[b].Ptr.Bytes(n), packed[off:off+n]
			e.TaskAt(p.Now()+hc, func() { copy(dst, src) })
			p.Sleep(hc)
			evs[b] = n1.Ctx.MemcpyAsyncTask(p, tbuf.Add(off), bufs[b].Ptr, n, n1.h2dStreams[0], req.ObsSpan(), -1)
			if nbuf == 2 {
				b = 1 - b
			}
		}
		// The last fill task's slot has passed: packed is no longer read.
		r.HCA().Buffers().Put(packed)
		for i := 0; i < nbuf; i++ {
			if evs[i] != nil {
				p.Wait(evs[i])
			}
		}
		n1.RecvPool.Put(bufs[0])
		if bufs[1] != nil {
			n1.RecvPool.Put(bufs[1])
		}
		if !pl.contig {
			p.Wait(pl.deviceChunk(p, n1, false, req, req.ObsSpan(), -1, tbuf, 0, size))
			mustFree(n1.Ctx, tbuf)
		}
		req.CompleteRecv()
	})
}

// ---------------------------------------------------------------------------
// Rendezvous: one chunk pipeline, configured per side by a stage list.

// stages is one side's stage list, resolved once per transfer. The sender
// runs pack → D2H hop → wire, the receiver landing → H2D hop → unpack:
//
//   - device: pack into (stage 1) or unpack from (stage 5) a device tbuf.
//   - hop: stage through vbufs across PCIe (stages 2 and 4). Without it
//     the wire reads device memory in place, and the receiver lands in one
//     registered region: the tbuf or user buffer (GPUDirect) or the SGE
//     scatter region.
//   - rows: the hop gathers or scatters user-buffer rows itself
//     (host-staged), in place of a device pack/unpack.
//   - sge: the HCA's SGE unit walks the buffer: a gather-write on the
//     sender (of the vbuf, with a hop), the scatter region on a receiver
//     without a hop.
type stages struct {
	device, hop, rows, sge bool
}

// stagesFor applies the dispatch precedence, shared by both sides, to one
// side's engine: GPUDirect unless the nic engine owns the side (the SGE
// unit already reads device memory in place), then host-staged (uniform
// rows that tile the block), then nic, then the paper's five stages.
func (t *Transport) stagesFor(r *mpi.Rank, pl plan, eng PackMode) stages {
	switch {
	case r.HCA().Model().AllowDeviceRegistration && eng != PackModeNic:
		return stages{device: !pl.contig}
	case t.cfg.HostStagedPack && pl.uniform && !pl.contig && r.World().Config().BlockSize%pl.shape.Width == 0:
		return stages{hop: true, rows: true, sge: eng == PackModeNic}
	case eng == PackModeNic:
		return stages{sge: true}
	}
	return stages{device: !pl.contig, hop: true}
}

// post writes one chunk into its announced slot: an SGE gather-write of
// src when sge is set, else a plain RDMA write of its contiguous bytes.
func post(r *mpi.Rank, req *mpi.Request, slot mpi.Slot, sge bool, src ib.SGDesc, rail int, sp obs.Span) *sim.Event {
	if sge {
		return r.RDMANicChunk(req, slot, src, rail, sp)
	}
	return r.RDMAChunk(req, slot, src.Buf, src.N, rail, sp)
}

// packStep is one issued stage-1 pack: its completion covers packed bytes
// below cut.
type packStep struct {
	done *sim.Event
	cut  int
	sp   obs.Span
}

// StartRendezvousSend sends the RTS immediately and runs the sender's
// stages. Packing starts before the CTS arrives, overlapping the handshake
// with datatype processing.
func (t *Transport) StartRendezvousSend(req *mpi.Request) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	st := pl.pack.st
	r.SendRTS(req)
	e := r.World().Engine()
	e.Spawn(fmt.Sprintf("rank%d.gpusend", r.Rank()), func(p *sim.Proc) {
		h := r.World().Hub()
		parent := req.ObsSpan()
		size := pl.size
		blockSize := r.World().Config().BlockSize

		// Stage 1: issue all device-side packs up front (row-aligned groups
		// close to the block size for the copy engine, chunk-aligned blocks
		// for the pack kernel), building a contiguous packed tbuf. Without
		// it, a contiguous buffer is staged straight out of the user buffer.
		src := req.Buf().Add(pl.shape.Off)
		var packs []packStep
		if st.device {
			//lint:ignore allocfree freed at the end of this function under the same st.device guard that allocated it; the flow analysis is path-insensitive and cannot correlate the branches
			src = n1.Ctx.MustMalloc(size)
			step := size
			if pl.pack.dev == PackModeMemcpy2D {
				step = max(1, blockSize/pl.shape.Width) * pl.shape.Width
			} else if size > blockSize {
				step = blockSize
			}
			packs = make([]packStep, 0, (size+step-1)/step)
			for off := 0; off < size; off += step {
				n := min(step, size-off)
				sp := h.StartChild(parent, obs.KindPack, n1.tracks.pack, len(packs), n)
				ev := pl.deviceChunk(p, n1, true, req, sp, len(packs), src.Add(off), off, n)
				packs = append(packs, packStep{ev, off + n, sp})
				if sp.Active() {
					ev.OnTrigger(sp.End)
				}
			}
		}

		// Rendezvous handshake: by now the RTS is long gone; wait for the
		// receiver's chunk geometry.
		total, chunkBytes := req.AwaitCTS(p)
		if chunkBytes != blockSize {
			panic(fmt.Sprintf("core: receiver chunk size %d != configured block size %d", chunkBytes, blockSize))
		}
		if want := (size + chunkBytes - 1) / chunkBytes; total != want {
			panic(fmt.Sprintf("core: receiver announced %d chunks, want %d", total, want))
		}

		// Per chunk: wait for the pack covering it, then hop and wire,
		// chained via completion callbacks so chunk i's RDMA overlaps chunk
		// i+1's D2H and later packs; the vbuf recycles at local completion.
		// Chunk c stages on D2H stream c%rails and flies on HCA rail
		// c%rails, so with R rails up to R chunks are in flight at once.
		chunkSent := make([]*sim.Event, total)
		for c := 0; c < total; c++ {
			rail := c % n1.rails
			off := c * chunkBytes
			n := min(chunkBytes, size-off)
			slot := req.AwaitSlot(p, c)
			var pack obs.Span
			if len(packs) > 0 {
				i := 0
				for i < len(packs)-1 && packs[i].cut < off+n {
					i++
				}
				p.Wait(packs[i].done)
				pack = packs[i].sp
			}
			sent := e.NewEvent(fmt.Sprintf("rank%d.chunk%d.sent", r.Rank(), c))
			chunkSent[c] = sent
			if !st.hop {
				sp := h.StartChild(parent, obs.KindRDMA, n1.tracks.rdma[rail], c, n)
				sp.DependsOn(pack, obs.DepPack)
				wire := pl.sgRange(req, off, n)
				if !st.sge {
					wire = ib.SGDesc{Buf: src.Add(off), N: n}
				}
				rdma := post(r, req, slot, st.sge, wire, rail, sp)
				if sp.Active() {
					rdma.OnTrigger(sp.End)
				}
				rdma.OnTrigger(sent.Trigger)
				continue
			}
			vbuf := n1.Pool.GetRail(p, rail)
			d2hSp := h.StartChild(parent, obs.KindD2H, n1.tracks.d2h[rail], c, n)
			d2hSp.DependsOn(pack, obs.DepPack)
			var d2h *sim.Event
			if st.rows {
				d2h = pl.moveRows(p, n1.Ctx, true, vbuf.Ptr, req, off, n, n1.d2hStreams[rail], d2hSp, c)
			} else {
				d2h = n1.Ctx.MemcpyAsyncTask(p, vbuf.Ptr, src.Add(off), n, n1.d2hStreams[rail], d2hSp, c)
			}
			d2h.OnTrigger(func() {
				d2hSp.End()
				rdmaSp := h.StartChild(parent, obs.KindRDMA, n1.tracks.rdma[rail], c, n)
				rdmaSp.DependsOn(d2hSp, obs.DepStage)
				rdma := post(r, req, slot, st.sge, ib.SGDesc{Buf: vbuf.Ptr, N: n}, rail, rdmaSp)
				rdma.OnTrigger(func() {
					rdmaSp.End()
					n1.Pool.Put(vbuf)
					sent.Trigger()
				})
			})
		}
		p.WaitAll(chunkSent...)
		if st.device {
			mustFree(n1.Ctx, src)
		}
		req.CompleteSend()
	})
}

// StartRendezvousRecv runs the receiver's stages. With a hop it announces
// vbuf landing slots in batches bounded by pool availability and stages
// each arriving chunk across PCIe; otherwise it announces one registered
// region up front. A device unpack follows the landed bytes.
func (t *Transport) StartRendezvousRecv(req *mpi.Request) {
	r := req.Rank()
	n1 := t.Node(r)
	pl := t.planFor(req)
	st := pl.unpack.st
	e := r.World().Engine()
	e.Spawn(fmt.Sprintf("rank%d.gpurecv", r.Rank()), func(p *sim.Proc) {
		h := r.World().Hub()
		parent := req.ObsSpan()
		size := req.Size()
		total, chunkBytes := r.World().ChunkGeometry(size)
		chunkLen := func(c int) int { return min(chunkBytes, size-c*chunkBytes) }

		dst, land, finish := t.unpackStage(p, n1, pl, req, st.device, total, chunkBytes)

		// done[c] fires once chunk c's bytes are in place: its H2D, or its
		// SGE scatter. GPUDirect lands with the FIN and has none.
		var done []*sim.Event
		if st.hop || st.sge {
			done = make([]*sim.Event, total)
		}
		var slotVbuf []*hostmem.Vbuf
		var region ib.Region
		announced := 0
		announce := func() {
			// Grab every immediately free receive vbuf (at least one,
			// blocking) and announce the batch in one CTS. Receive vbufs
			// recycle as soon as their chunk's H2D completes, and those
			// H2Ds depend only on remote senders — which stage through
			// their own pool — so this blocking Get always unblocks.
			var slots []mpi.Slot
			v := n1.RecvPool.Get(p)
			for {
				c := announced
				slotVbuf[c] = v
				slots = append(slots, mpi.Slot{Chunk: c, Rkey: v.Region.Rkey, Off: 0, Len: chunkLen(c)})
				announced++
				if announced == total {
					break
				}
				var ok bool
				v, ok = n1.RecvPool.TryGet()
				if !ok {
					break
				}
			}
			r.SendCTS(req, total, chunkBytes, slots)
		}
		if st.hop {
			if chunkBytes != n1.RecvPool.ChunkSize() {
				panic(fmt.Sprintf("core: block size %d != vbuf size %d", chunkBytes, n1.RecvPool.ChunkSize()))
			}
			slotVbuf = make([]*hostmem.Vbuf, total)
		} else {
			if st.sge {
				for c := range done {
					done[c] = e.NewEvent(fmt.Sprintf("rank%d.nicscatter%d", r.Rank(), c))
				}
				region = r.HCA().RegisterScatterRegion(pl.sgRange(req, 0, size), chunkBytes, func(c int) {
					done[c].Trigger()
				})
			} else {
				region = r.HCA().Register(dst, size)
			}
			slots := make([]mpi.Slot, total)
			for c := range slots {
				slots[c] = mpi.Slot{Chunk: c, Rkey: region.Rkey, Off: c * chunkBytes, Len: chunkLen(c)}
			}
			r.SendCTS(req, total, chunkBytes, slots)
		}

		// A FIN is bogus when out of range or repeated: with a hop, done[c]
		// records chunk c's FIN; without one, fin[c] does.
		var fin []bool
		if !st.hop {
			fin = make([]bool, total)
		}
		for i := 0; i < total; i++ {
			for st.hop && announced <= i {
				announce()
			}
			c := req.AwaitFin(p)
			if c < 0 || c >= total || (st.hop && done[c] != nil) || (!st.hop && fin[c]) {
				panic(fmt.Sprintf("core: bogus FIN for chunk %d", c))
			}
			if !st.hop {
				fin[c] = true
				if land != nil {
					land(c, obs.Span{}) // GPUDirect: the bytes are already in place
				}
				continue
			}
			vbuf := slotVbuf[c]
			n := chunkLen(c)
			off := c * chunkBytes
			rail := c % n1.rails
			h2dSp := h.StartChild(parent, obs.KindH2D, n1.tracks.h2d[rail], c, n)
			var ev *sim.Event
			if st.rows {
				ev = pl.moveRows(p, n1.Ctx, false, vbuf.Ptr, req, off, n, n1.h2dStreams[rail], h2dSp, c)
			} else {
				ev = n1.Ctx.MemcpyAsyncTask(p, dst.Add(off), vbuf.Ptr, n, n1.h2dStreams[rail], h2dSp, c)
			}
			done[c] = ev
			ev.OnTrigger(func() {
				h2dSp.End()
				n1.RecvPool.Put(vbuf)
				if land != nil {
					land(c, h2dSp)
				}
			})
		}
		p.WaitAll(done...)
		if !st.hop {
			r.HCA().Deregister(region)
		}
		if finish != nil {
			finish()
		}
		req.CompleteRecv()
	})
}

// unpackStage returns where the receiver's bytes land. With a device unpack
// (stage 5) that is a tbuf, and two hooks come back: land marks chunk c on
// the device and unpacks what that completes, finish flushes the tail,
// waits and frees the tbuf. FINs from different rails may overtake each
// other, so the unpack follows the contiguous prefix of landed chunks: in
// whole rows on the copy engine, in whole chunks on the kernel path. With
// no device unpack the bytes land in the contiguous user buffer and both
// hooks are nil.
func (t *Transport) unpackStage(p *sim.Proc, n1 *NodeGPU, pl plan, req *mpi.Request, device bool, total, chunkBytes int) (dst mem.Ptr, land func(c int, trigger obs.Span), finish func()) {
	if !device {
		return req.Buf().Add(pl.shape.Off), nil, nil
	}
	h, parent, size := req.Rank().World().Hub(), req.ObsSpan(), pl.size
	tbuf := n1.Ctx.MustMalloc(size)
	through := 0
	var evs []*sim.Event
	unpack := func(p *sim.Proc, trigger obs.Span, cut int) {
		sp := h.StartChild(parent, obs.KindUnpack, n1.tracks.unpack, len(evs), cut-through)
		sp.DependsOn(trigger, obs.DepStage)
		ev := pl.deviceChunk(p, n1, false, req, sp, len(evs), tbuf.Add(through), through, cut-through)
		evs = append(evs, ev)
		if sp.Active() {
			ev.OnTrigger(sp.End)
		}
		through = cut
	}
	landed := make([]bool, total)
	prefix := 0
	land = func(c int, trigger obs.Span) {
		landed[c] = true
		for prefix < total && landed[prefix] {
			prefix++
		}
		cut := min(prefix*chunkBytes, size)
		if pl.unpack.dev == PackModeMemcpy2D {
			cut = cut / pl.shape.Width * pl.shape.Width
		}
		if cut > through {
			unpack(nil, trigger, cut)
		}
	}
	finish = func() {
		if through < size {
			unpack(p, obs.Span{}, size)
		}
		p.WaitAll(evs...)
		mustFree(n1.Ctx, tbuf)
	}
	return tbuf, land, finish
}

func mustFree(ctx *cuda.Ctx, p mem.Ptr) {
	if err := ctx.Free(p); err != nil {
		panic(err)
	}
}
