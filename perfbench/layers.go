package main

import (
	"bytes"
	"fmt"
	"time"

	"mv2sim/internal/cluster"
	"mv2sim/internal/gpu"
	"mv2sim/internal/hostmem"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/sim"
)

// procCounter is the sim.Hook that counts simulation processes.
type procCounter struct{ procs int }

func (h *procCounter) ProcStart(sim.Time, string)  { h.procs++ }
func (h *procCounter) ProcEnd(sim.Time, string)    {}
func (h *procCounter) EventFired(sim.Time, string) {}

// perLayer produces the per-layer metrics of one workload from three
// repetitions on the same inputs and from probes timed outside the
// simulator:
//   - plain: untraced, for runtime counters and the tracing baseline;
//   - profiled: untraced under a CPU profile, for host.cpu_frac.*;
//   - traced: critpath collector, busy-time tracer and process hook.
//
// The traced and profiled repetitions must reproduce the plain one's
// virtual metrics exactly, and every critpath attribution must be exact.
func perLayer(in *inputs) (result, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// An untimed set-up takes the heap through its first use, as in
	// endToEnd.
	releaseMemory()
	if _, err := in.runOnce(runOpts{setupOnly: true}); err != nil {
		return result{}, err
	}
	releaseMemory()
	plain, err := in.runOnce(runOpts{})
	if err != nil {
		return result{}, err
	}
	want, err := virtualOf(plain)
	if err != nil {
		return result{}, err
	}
	msgs := float64(want.attempted)
	put("mem.setup_rss_mb", "MB", plain.setupRSS)
	put("sim.host_ns_per_event", "ns", float64(plain.run.Nanoseconds())/float64(plain.events))
	put("runtime.allocs_per_msg", "count", float64(plain.allocs)/msgs)
	put("runtime.alloc_bytes_per_msg", "B", float64(plain.allocBytes)/msgs)
	put("runtime.gc_cycles", "count", float64(plain.gcs))
	put("bench.samples", "count", float64(want.samples))
	var lags []float64
	for _, d := range plain.deliveries {
		lags = append(lags, (d.posted - d.at).Micros())
	}
	lag, err := percentile(sortedCopy(lags), 0.99)
	if err != nil {
		return result{}, err
	}
	put("load.issue_lag_us", "us", lag)
	plainRun := plain.run
	releaseMemory()

	var prof bytes.Buffer
	profiled, err := in.runOnce(runOpts{profile: &prof})
	if err != nil {
		return result{}, err
	}
	pv, err := virtualOf(profiled)
	if err != nil {
		return result{}, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for _, g := range cpuGroups {
		put("host.cpu_frac."+g, "ratio", shares[g])
	}
	releaseMemory()

	coll, busy, hook := critpath.NewCollector(), obs.NewBusyTimeTracer(), &procCounter{}
	traced, err := in.runOnce(runOpts{tracers: []obs.Tracer{coll, busy}, hook: hook})
	if err != nil {
		return result{}, err
	}
	tv, err := virtualOf(traced)
	if err != nil {
		return result{}, err
	}
	consistent := pv == want && tv == want
	if !consistent {
		fmt.Printf("%s: virtual metrics differ: plain %+v, profiled %+v, traced %+v\n", in.w.name, want, pv, tv)
	}
	put("obs.tasks", "count", float64(len(coll.Tasks())))
	put("obs.trace_overhead_frac", "ratio", traced.run.Seconds()/plainRun.Seconds()-1)
	put("sim.events_per_msg", "count", float64(traced.events)/msgs)
	put("sim.procs", "count", float64(hook.procs))
	counters(traced.cl, busy, traced.makespan, traced.payload, put)
	exact, err := critpathMetrics(coll, traced.deliveries, put)
	if err != nil {
		return result{}, err
	}
	releaseMemory()

	if err := probes(in, msgs, put); err != nil {
		return result{}, err
	}
	return result{
		Correct:   consistent && exact && want.failed == 0,
		Attempted: want.attempted,
		Failed:    want.failed,
		Metrics:   m,
	}, nil
}

// counters reads the layers' public statistics after a traced run.
func counters(cl *cluster.Cluster, busy *obs.BusyTimeTracer, end sim.Time, payload int64,
	put func(string, string, float64)) {
	var (
		gs                      gpu.Stats
		copyUtil, kernUtil      float64
		railUtil                float64
		gets, waits             uint64
		maxHeld                 int
		txBytes                 int64
		writes, sends           int
		eager, rndv, unexpected int
	)
	gs.Bytes = map[gpu.CopyDir]int64{}
	for i, n := range cl.Nodes {
		s := n.Dev.Stats()
		for dir, b := range s.Bytes {
			gs.Bytes[dir] += b
		}
		gs.Kernels += s.Kernels
		gs.KernelTime += s.KernelTime
		for _, e := range []string{"h2dEngine", "d2hEngine", "d2dEngine"} {
			copyUtil += busy.Utilization(fmt.Sprintf("gpu%d.%s", i, e), 0, end) / 3
		}
		kernUtil += busy.Utilization(fmt.Sprintf("gpu%d.kernelEngine", i), 0, end)
		railUtil += busy.Utilization(fmt.Sprintf("hca%d.tx", i), 0, end)
		for _, p := range []*hostmem.Pool{n.Pool, n.RecvPool} {
			for r := 0; r < p.Rails(); r++ {
				gets += p.RailGets(r)
			}
			waits += p.Waits()
			maxHeld = max(maxHeld, p.MaxHeld())
		}
		hs := n.Rank.HCA().Stats()
		txBytes += hs.BytesTx
		writes += hs.RDMAWrites
		sends += hs.SendsPosted
		rs := n.Rank.Stats()
		eager += rs.EagerSent
		rndv += rs.RndvSent
		unexpected += rs.Unexpected
	}
	nodes := float64(len(cl.Nodes))
	put("gpu.d2d_bytes", "B", float64(gs.Bytes[gpu.D2D]))
	put("gpu.d2h_bytes", "B", float64(gs.Bytes[gpu.D2H]))
	put("gpu.h2d_bytes", "B", float64(gs.Bytes[gpu.H2D]))
	put("gpu.kernels", "count", float64(gs.Kernels))
	put("gpu.kernel_time_us", "us", gs.KernelTime.Micros())
	put("gpu.copy_util", "ratio", copyUtil/nodes)
	put("gpu.kernel_util", "ratio", kernUtil/nodes)
	put("hostmem.vbuf_gets", "count", float64(gets))
	put("hostmem.vbuf_waits", "count", float64(waits))
	put("hostmem.vbuf_max_held", "count", float64(maxHeld))
	put("ib.bytes_tx", "B", float64(txBytes))
	put("ib.rdma_writes", "count", float64(writes))
	put("ib.sends_posted", "count", float64(sends))
	put("ib.rail_util", "ratio", railUtil/nodes)
	put("ib.wire_bytes_per_payload_byte", "ratio", float64(txBytes)/float64(payload))
	put("mpi.eager_msgs", "count", float64(eager))
	put("mpi.rndv_msgs", "count", float64(rndv))
	put("mpi.unexpected", "count", float64(unexpected))
}

// backlogBucket is the time between a message's scheduled arrival and the
// start of its transfer; critpath's buckets cover the transfer itself.
const backlogBucket = "backlog"

// critpathMetrics attributes every delivery's sojourn: backlog (arrival →
// send post) plus the critpath buckets of the transfer (send post →
// delivery). It reports each bucket's mean over all deliveries and over
// the p99 cohort, and whether every attribution was exact.
func critpathMetrics(coll *critpath.Collector, ds []delivery, put func(string, string, float64)) (bool, error) {
	exact := true
	var sojourns []float64
	var rows []map[string]sim.Time
	for i, d := range ds {
		send, ok1 := coll.Task(d.sendID)
		recv, ok2 := coll.Task(d.recvID)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("delivery %d: send or receive task not traced", i)
		}
		// A receive posted ahead of the message waits for the sender,
		// not for the transport: the transfer starts at the send post.
		recv.Start = max(recv.Start, send.Start)
		a := coll.AnalyzeTransfer(critpath.Transfer{Send: send, Recv: recv})
		b := map[string]sim.Time{backlogBucket: a.Start - d.at}
		for k, v := range a.Buckets {
			b[k] = v
		}
		sojourn := d.done - d.at
		if !a.Exact() || b[backlogBucket]+a.Wall() != sojourn {
			if exact {
				fmt.Printf("delivery %d: attribution not exact: backlog %v + wall %v (sum %v) vs sojourn %v\n",
					i, b[backlogBucket], a.Wall(), a.Sum(), sojourn)
			}
			exact = false
		}
		sojourns = append(sojourns, sojourn.Micros())
		rows = append(rows, b)
	}
	// The cohort cut is internal, so a thin tail is not refused here.
	cut := sortedCopy(sojourns)[nearestRank(len(sojourns), 0.99)-1]
	for _, bucket := range append(append([]string(nil), critpath.BucketOrder...), backlogBucket) {
		var all, tail []float64
		for i, b := range rows {
			all = append(all, b[bucket].Micros())
			if sojourns[i] >= cut {
				tail = append(tail, b[bucket].Micros())
			}
		}
		put("critpath."+bucket+".mean_us", "us", mean(all))
		put("critpath."+bucket+".tail_us", "us", mean(tail))
	}
	return exact, nil
}

// probes time layer functions outside the simulator, on the workload's
// own datatypes and cluster configuration, after a warm-up pass.
func probes(in *inputs, msgs float64, put func(string, string, float64)) error {
	shapes, err := in.w.shapes()
	if err != nil {
		return err
	}

	var news []time.Duration
	var arena int
	for i := 0; i < 3; i++ {
		releaseMemory()
		t := cpuTime()
		cl := cluster.New(in.clusterConfig(shapes, runOpts{}))
		news = append(news, cpuTime()-t)
		cl.Engine.Shutdown()
		if arena, err = arenaBytes(cl); err != nil {
			return err
		}
	}
	put("cluster.new_s", "s", medianDuration(news))
	put("mem.arena_mb", "MB", float64(arena)/(1<<20))

	// Segments per message, weighted by the schedule's size mix.
	segsOf := make([]int, len(shapes))
	for i, s := range shapes {
		plan := s.dt.ChunkPlan(1, mpi.DefaultBlockSize)
		for c := 0; c < plan.Chunks(); c++ {
			segsOf[i] += plan.SegmentCount(c)
		}
	}
	var segs int
	if in.w.ring {
		for _, steps := range in.steps {
			for _, st := range steps {
				segs += segsOf[st.right] + segsOf[st.left]
			}
		}
	} else {
		for _, sched := range in.schedules {
			for _, it := range sched {
				segs += segsOf[it.SizeIdx]
			}
		}
	}
	put("datatype.segments_per_msg", "count", float64(segs)/msgs)

	// Pack then unpack every shape once per pass.
	maxSpan, passSegs, passBytes := 0, 0, 0
	for i, s := range shapes {
		maxSpan = max(maxSpan, s.span)
		passSegs += 2 * segsOf[i]
		passBytes += 2 * s.bytes
	}
	typed := mem.NewHostSpace("probe.typed", maxSpan).Base()
	packed := mem.NewHostSpace("probe.packed", maxSpan).Base()
	mem.Fill(typed, maxSpan, func(i int) byte { return byte(i) })
	pass := func() {
		for _, s := range shapes {
			plan := s.dt.ChunkPlan(1, mpi.DefaultBlockSize)
			plan.PackRange(packed, typed, 0, plan.Total())
			plan.UnpackRange(typed, packed, 0, plan.Total())
		}
	}
	packSecs := timePasses(pass)
	put("datatype.pack_ns_per_seg", "ns", packSecs*1e9/float64(passSegs))
	put("datatype.pack_gbs", "GB/s", float64(passBytes)/packSecs/1e9)

	// mem.Copy2D gathering the largest shape's rows.
	big := shapes[len(shapes)-1]
	rows := big.bytes / in.w.elem
	copySecs := timePasses(func() { mem.Copy2D(packed, in.w.elem, typed, in.w.pitch, in.w.elem, rows) })
	put("mem.copy_gbs", "GB/s", float64(big.bytes)/copySecs/1e9)
	return nil
}

// timePasses warms fn up, then returns the median CPU seconds per call
// over batches of calls lasting about 50 ms each.
func timePasses(fn func()) float64 {
	fn()
	calls := 1
	for {
		t := cpuTime()
		for i := 0; i < calls; i++ {
			fn()
		}
		if cpuTime()-t > 50*time.Millisecond {
			break
		}
		calls *= 2
	}
	var per []float64
	for b := 0; b < 5; b++ {
		t := cpuTime()
		for i := 0; i < calls; i++ {
			fn()
		}
		per = append(per, (cpuTime()-t).Seconds()/float64(calls))
	}
	return median(per)
}

// arenaBytes sums the sizes of the address spaces a cluster reserves:
// each node's device memory, host heap and pinned vbuf region.
func arenaBytes(cl *cluster.Cluster) (int, error) {
	seen := map[*mem.Space]bool{}
	total := 0
	add := func(p mem.Ptr) {
		if s := p.Space(); !seen[s] {
			seen[s] = true
			total += s.Size()
		}
	}
	for _, n := range cl.Nodes {
		dev := n.Ctx.MustMalloc(1)
		add(dev)
		if err := n.Ctx.Free(dev); err != nil {
			return 0, err
		}
		host := n.Rank.AllocHost(1)
		add(host)
		n.Rank.FreeHost(host)
		if v, ok := n.Pool.TryGet(); ok {
			add(v.Ptr)
			n.Pool.Put(v)
		}
	}
	return total, nil
}
