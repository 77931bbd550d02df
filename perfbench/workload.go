package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"mv2sim/internal/cluster"
	"mv2sim/internal/datatype"
	"mv2sim/internal/load"
	"mv2sim/internal/mem"
	"mv2sim/internal/mpi"
	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// workload is one benchmark traffic mix. Each is built so that a different
// layer does most of the host and virtual work; README.md gives the map.
type workload struct {
	name string
	// Message shape: every message of s packed bytes is an MPI vector of
	// s/elem rows of elem bytes, pitch bytes apart. Each size class comes
	// in variants sizes, trimmed by 0..variants-1 rows (see sizeList).
	sizes       []int
	elem, pitch int
	variants    int

	// Open loop (ring == false): pairs sender→receiver pairs replay
	// load.Schedule arrivals at offeredMBs aggregate over horizon.
	process    load.Process
	offeredMBs float64
	horizon    sim.Time
	pairs      int
	maxPosted  int

	// Closed loop (ring == true): ranks exchange with both ring
	// neighbours for iters iterations, each after a seeded think time.
	ring      bool
	ranks     int
	iters     int
	thinkMean sim.Time
}

var workloads = []workload{
	// Open-loop Poisson at 70% of the knee with 8 B rows: pack walks and
	// copies dominate host time; the pack engine sets p50.
	{
		name:  "fine-vector",
		sizes: []int{4 << 10, 32 << 10, 64 << 10, 256 << 10}, elem: 8, pitch: 32, variants: 8,
		process: load.Poisson, offeredMBs: 5000, horizon: 120 * sim.Millisecond, pairs: 4, maxPosted: 16,
	},
	// Open-loop bursty arrivals 25% past capacity with 1 KiB rows: queueing
	// and the senders' backlog set p99 and goodput; plan walks are near
	// zero, so a pack-walk change should leave it flat.
	{
		name:  "coarse-burst",
		sizes: []int{64 << 10, 256 << 10}, elem: 1 << 10, pitch: 2 << 10, variants: 1,
		process: load.Bursty, offeredMBs: 15300, horizon: 20 * sim.Millisecond, pairs: 4, maxPosted: 16,
	},
	// Closed-loop bidirectional ring of eager-size messages: event
	// dispatch, process switches and MPI matching dominate host time.
	{
		name:  "eager-ring",
		sizes: []int{2 << 10, 8 << 10}, elem: 64, pitch: 128, variants: 1,
		ring: true, ranks: 8, iters: 2000, thinkMean: 4 * sim.Microsecond,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ringStep is one rank's part of one ring iteration.
type ringStep struct {
	think       sim.Time
	right, left int // size index sent to the right / left neighbour
}

// inputs is everything generated from the seed. The program under test
// sees only these schedules.
type inputs struct {
	w         workload
	seed      int64
	schedules [][]load.Item // open loop, per pair
	steps     [][]ringStep  // closed loop, per rank per iteration
}

// sizeList is the message-size menu schedules draw from uniformly: each
// size class followed by its trimmed variants. Below the knee most
// messages see no queueing and take their size's fixed service time, so
// with a few sizes the median lands on the same value for most seeds.
func (w workload) sizeList() []int {
	var out []int
	for _, s := range w.sizes {
		for k := 0; k < w.variants; k++ {
			out = append(out, s-k*w.elem)
		}
	}
	return out
}

// class maps a sizeList index to its size class.
func (w workload) class(sizeIdx int) int { return sizeIdx / w.variants }

func (w workload) loadConfig(seed int64) load.Config {
	return load.Config{
		Seed: seed, Process: w.process, Pairs: w.pairs, OfferedMBs: w.offeredMBs,
		Horizon: w.horizon, Sizes: w.sizeList(),
	}
}

// loadWindows is how many equal windows each pair's horizon is cut into;
// see pairSchedule.
const loadWindows = 32

// pairSchedule draws one pair's arrivals with load.Schedule and fixes the
// load each window offers: consecutive runs of arrivals worth share/
// loadWindows bytes are rescaled in time to fill one window each. The seed
// still shapes the gaps, bursts and size mix inside every window, but not
// how the total load drifts across the horizon. Without this, a bursty
// pair's offered load varies by about 10% between seeds, and queueing
// amplifies that several-fold in p50 and p99.
func pairSchedule(w workload, seed int64, pair int, share int64) []load.Item {
	cfg := w.loadConfig(seed)
	items := load.Schedule(cfg, pair)
	for load.ScheduledBytes(items) <= share {
		cfg.Horizon *= 2 // a longer horizon extends the same arrival sequence
		items = load.Schedule(cfg, pair)
	}
	span := float64(w.horizon) / loadWindows
	var out []load.Item
	i, from := 0, sim.Time(0)
	var sum int64
	for win := int64(1); win <= loadWindows; win++ {
		first := i
		for sum+int64(items[i].Bytes) <= share*win/loadWindows {
			sum += int64(items[i].Bytes)
			i++
		}
		if i == first {
			continue // the next message spills into a later window
		}
		// items[first:i] arrived over [from, items[i].At); map that onto
		// the window.
		scale := span / float64(items[i].At-from)
		for _, it := range items[first:i] {
			it.At = sim.Time(float64(win-1)*span + float64(it.At-from)*scale)
			out = append(out, it)
		}
		from = items[i].At
	}
	return out
}

func newInputs(w workload, seed int64) *inputs {
	in := &inputs{w: w, seed: seed}
	if !w.ring {
		share := int64(w.offeredMBs / float64(w.pairs) * 1e6 * w.horizon.Seconds()) // bytes per pair
		for p := 0; p < w.pairs; p++ {
			in.schedules = append(in.schedules, pairSchedule(w, seed, p, share))
		}
		return in
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < w.ranks; r++ {
		steps := make([]ringStep, w.iters)
		for k := range steps {
			steps[k] = ringStep{
				think: sim.Time(rng.ExpFloat64() * float64(w.thinkMean)),
				right: rng.Intn(len(w.sizes) * w.variants),
				left:  rng.Intn(len(w.sizes) * w.variants),
			}
		}
		in.steps = append(in.steps, steps)
	}
	return in
}

// messages is the number of messages the inputs schedule.
func (in *inputs) messages() int {
	if in.w.ring {
		return 2 * in.w.ranks * in.w.iters
	}
	n := 0
	for _, s := range in.schedules {
		n += len(s)
	}
	return n
}

// shape is one committed message datatype.
type shape struct {
	dt    *datatype.Datatype
	bytes int // packed size
	span  int // typed-buffer footprint
}

// shapes commits one datatype per sizeList entry.
func (w workload) shapes() ([]shape, error) {
	sizes := w.sizeList()
	out := make([]shape, len(sizes))
	for i, s := range sizes {
		dt, err := datatype.Vector(s/w.elem, w.elem, w.pitch, datatype.Byte)
		if err != nil {
			return nil, fmt.Errorf("datatype for %d bytes: %w", s, err)
		}
		if err := dt.Commit(); err != nil {
			return nil, fmt.Errorf("commit datatype for %d bytes: %w", s, err)
		}
		out[i] = shape{dt: dt, bytes: dt.Size(), span: dt.Span(1)}
	}
	return out, nil
}

// runOpts selects how one repetition runs; the zero value is the
// end-to-end configuration (serial engine, tracing off).
type runOpts struct {
	engine  string
	tracers []obs.Tracer
	hook    sim.Hook
	// profile, when set, receives a CPU profile of the run phase, with
	// the benchmark's own work inside the simulation labelled so the
	// profile reader can leave it out.
	profile io.Writer
	// setupOnly stops after set-up and discards the cluster.
	setupOnly bool
}

// delivery is one message's record.
type delivery struct {
	at     sim.Time // scheduled (open loop) or posted (ring) time
	posted sim.Time // Isend call
	done   sim.Time // receive completion; 0 if never delivered
	bytes  int
	ok     bool // delivered byte-exact
	sendID uint64
	recvID uint64
}

// rep is one repetition: set-up, run and verification on a fresh cluster.
type rep struct {
	// Host CPU times (see cpuTime).
	setup    time.Duration
	run      time.Duration // cl.Run minus the benchmark's own work
	setupRSS float64       // MB of resident set added by set-up
	cl       *cluster.Cluster
	// Run-phase runtime counters.
	allocs, allocBytes uint64
	gcs                uint32

	deliveries []delivery
	// samples are the latency samples in µs: sojourn per message (open
	// loop) or exchange time per rank-iteration (ring).
	samples  []float64
	payload  int64    // byte-exact packed bytes delivered
	makespan sim.Time // virtual time of the last delivery
	events   uint64
}

// failed counts messages not delivered byte-exact.
func (r *rep) failed() int {
	n := 0
	for _, d := range r.deliveries {
		if !d.ok {
			n++
		}
	}
	return n
}

// sentinel fills receive buffers before posting, so bytes the datatype
// must not touch are checked too.
const sentinel = 0xA5

// benchWork times the benchmark's own work that runs inside the
// simulation (fills and verification) so it can be subtracted from the
// simulator's host CPU time. Atomic because the parallel engine may run
// processes on several goroutines.
type benchWork struct {
	ns    atomic.Int64
	label bool
}

func (b *benchWork) do(fn func()) {
	t := cpuTime()
	if b.label {
		pprof.Do(context.Background(), pprof.Labels(excludeLabel, "1"), func(context.Context) { fn() })
	} else {
		fn()
	}
	b.ns.Add(int64(cpuTime() - t))
}

// pattern returns n seeded bytes, distinct per (seed, who, size index).
func pattern(seed int64, who, sizeIdx, n int) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(seed*1000003 + int64(who)*7919 + int64(sizeIdx)))
	rng.Read(b)
	return b
}

// image is what a receive buffer must hold after delivering src through
// one of w's vector types: src's rows in the footprint, sentinel in the
// gaps.
func image(src []byte, w workload) []byte {
	out := bytes.Repeat([]byte{sentinel}, len(src))
	for off := 0; off+w.elem <= len(src); off += w.pitch {
		copy(out[off:off+w.elem], src[off:off+w.elem])
	}
	return out
}

// source allocates a device buffer holding the given bytes.
func source(n *cluster.Node, data []byte) mem.Ptr {
	p := n.Ctx.MustMalloc(len(data))
	copy(p.Bytes(len(data)), data)
	return p
}

func freeAll(n *cluster.Node, ps []mem.Ptr) error {
	for _, p := range ps {
		if err := n.Ctx.Free(p); err != nil {
			return err
		}
	}
	return nil
}

// runOnce performs one repetition.
func (in *inputs) runOnce(o runOpts) (*rep, error) {
	if in.w.ring {
		return in.runRing(o)
	}
	return in.runOpen(o)
}

// setupBegin/setupEnd bracket the set-up phase.
func setupBegin() (time.Duration, float64) { return cpuTime(), rssMB() }

// setupEnd closes the set-up phase; it reports whether the repetition
// should go on to run.
func (r *rep) setupEnd(t0 time.Duration, rss0 float64, o runOpts) bool {
	r.setup = cpuTime() - t0
	r.setupRSS = rssMB() - rss0
	if o.setupOnly {
		r.cl.Engine.Shutdown()
	}
	return !o.setupOnly
}

// execute runs the simulation and records the run phase's host CPU time
// (less the benchmark's own work), allocations, GC cycles and events.
func (r *rep) execute(o runOpts, bw *benchWork, fn func(n *cluster.Node)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if o.profile != nil {
		if err := pprof.StartCPUProfile(o.profile); err != nil {
			return err
		}
	}
	start := cpuTime()
	err := r.cl.Run(fn)
	r.run = cpuTime() - start - time.Duration(bw.ns.Load())
	if o.profile != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	r.allocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcs = m1.NumGC - m0.NumGC
	r.events = r.cl.Engine.Events()
	return err
}

// clusterConfig sizes the cluster for the inputs. Open loop: a sender has
// up to maxInFlight sends outstanding, a receiver maxPosted receives.
// Ring: a few eager-size buffers per rank.
func (in *inputs) clusterConfig(shapes []shape, o runOpts) cluster.Config {
	w := in.w
	cfg := cluster.Config{Engine: o.engine, Tracers: o.tracers, HostHeapBytes: 4 << 20}
	if w.ring {
		cfg.Nodes, cfg.GPUMemBytes = w.ranks, 4<<20
		return cfg
	}
	maxSpan, maxBytes, srcBytes := 0, 0, 0
	for i, s := range shapes {
		maxSpan = max(maxSpan, s.span)
		maxBytes = max(maxBytes, s.bytes)
		if i%w.variants == 0 { // one source buffer per size class
			srcBytes += s.span
		}
	}
	// Each in-flight send or posted receive may hold a packed device
	// buffer (tbuf) of its message; 4 MiB covers allocator alignment.
	cfg.Nodes = 2 * w.pairs
	cfg.GPUMemBytes = srcBytes + w.maxPosted*maxSpan + (maxInFlight+w.maxPosted)*maxBytes + 4<<20
	return cfg
}

// newCluster builds the cluster for one repetition.
func (in *inputs) newCluster(shapes []shape, o runOpts) *cluster.Cluster {
	cl := cluster.New(in.clusterConfig(shapes, o))
	if o.hook != nil {
		cl.Engine.SetHook(o.hook)
	}
	return cl
}

// maxInFlight bounds each open-loop sender's outstanding sends, as an
// application's request pool would. Below the knee it never binds; past
// it, later messages wait for a slot, and that wait is part of their
// sojourn (critpath's backlog bucket) and of load.issue_lag_us.
const maxInFlight = 32

// runOpen replays the pair schedules open loop: each sender posts every
// Isend at its scheduled time, or as soon as one of its maxInFlight slots
// frees if that is later; each receiver keeps maxPosted receives posted in
// rotating buffers.
func (in *inputs) runOpen(o runOpts) (*rep, error) {
	w := in.w
	r := &rep{}
	t0, rss0 := setupBegin()
	shapes, err := w.shapes()
	if err != nil {
		return nil, err
	}
	maxSpan := 0
	for _, s := range shapes {
		maxSpan = max(maxSpan, s.span)
	}
	cl := in.newCluster(shapes, o)
	r.cl = cl
	// Per pair and size class: the source buffer and the expected receive
	// image. A trimmed variant uses a prefix of its class's buffer.
	srcs := make([][]mem.Ptr, w.pairs)
	want := make([][][]byte, w.pairs)
	bufs := make([][]mem.Ptr, w.pairs) // per pair, the receive window
	offsets := make([]int, w.pairs)    // first delivery index of each pair
	for p := range srcs {
		for c := range w.sizes {
			pat := pattern(in.seed, p, c, shapes[c*w.variants].span)
			srcs[p] = append(srcs[p], source(cl.Nodes[2*p], pat))
			want[p] = append(want[p], image(pat, w))
		}
		for i := min(w.maxPosted, len(in.schedules[p])); i > 0; i-- {
			bufs[p] = append(bufs[p], cl.Nodes[2*p+1].Ctx.MustMalloc(maxSpan))
		}
		if p > 0 {
			offsets[p] = offsets[p-1] + len(in.schedules[p-1])
		}
	}
	fill := bytes.Repeat([]byte{sentinel}, maxSpan)
	r.deliveries = make([]delivery, in.messages())
	if !r.setupEnd(t0, rss0, o) {
		return r, nil
	}

	bw := &benchWork{label: o.profile != nil}
	err = r.execute(o, bw, func(n *cluster.Node) {
		rank := n.Rank
		pair := rank.Rank() / 2
		ds := r.deliveries[offsets[pair] : offsets[pair]+len(in.schedules[pair])]
		items := in.schedules[pair]
		if rank.Rank()%2 == 0 {
			reqs := make([]*mpi.Request, len(ds))
			for i, it := range items {
				if i >= maxInFlight {
					rank.Wait(reqs[i-maxInFlight])
				}
				if now := rank.Now(); now < it.At {
					rank.Proc().Sleep(it.At - now)
				}
				ds[i].at, ds[i].posted, ds[i].bytes = it.At, rank.Now(), it.Bytes
				reqs[i] = rank.Isend(srcs[pair][w.class(it.SizeIdx)], 1, shapes[it.SizeIdx].dt, rank.Rank()+1, i)
				ds[i].sendID = reqs[i].ObsSpan().Task().ID
			}
			rank.Waitall(reqs...)
			return
		}
		nb := len(bufs[pair])
		reqs := make([]*mpi.Request, len(ds))
		for i, it := range items {
			if i >= nb {
				rank.Wait(reqs[i-nb])
			}
			buf, sh, d := bufs[pair][i%nb], shapes[it.SizeIdx], &ds[i]
			bw.do(func() { copy(buf.Bytes(sh.span), fill) })
			q := rank.Irecv(buf, 1, sh.dt, rank.Rank()-1, i)
			d.recvID = q.ObsSpan().Task().ID
			exp := want[pair][w.class(it.SizeIdx)][:sh.span]
			q.OnComplete(func() {
				d.done = rank.Now()
				bw.do(func() { d.ok = bytes.Equal(buf.Bytes(sh.span), exp) })
			})
			reqs[i] = q
		}
		rank.Waitall(reqs[max(0, len(reqs)-nb):]...)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.name, err)
	}
	for p := range srcs {
		if err := freeAll(cl.Nodes[2*p], srcs[p]); err != nil {
			return nil, err
		}
		if err := freeAll(cl.Nodes[2*p+1], bufs[p]); err != nil {
			return nil, err
		}
	}
	if err := cl.CheckDeviceLeaks(); err != nil {
		return nil, err
	}
	for _, d := range r.deliveries {
		if d.ok {
			r.payload += int64(d.bytes)
			r.samples = append(r.samples, (d.done - d.at).Micros())
		}
		r.makespan = max(r.makespan, d.done)
	}
	return r, nil
}

// runRing runs the closed-loop ring: every iteration each rank thinks for
// its seeded time, posts Irecv from both neighbours and Isend to both,
// then Waitall. The latency sample is the exchange time, post to Waitall.
func (in *inputs) runRing(o runOpts) (*rep, error) {
	w := in.w
	r := &rep{}
	t0, rss0 := setupBegin()
	shapes, err := w.shapes()
	if err != nil {
		return nil, err
	}
	cl := in.newCluster(shapes, o)
	r.cl = cl
	maxSpan := shapes[len(shapes)-1].span
	// Direction 0 travels to the right neighbour, 1 to the left; the
	// source pattern is distinct per (sender, direction, size).
	type node struct {
		srcs [2][]mem.Ptr
		want [2][][]byte // expected image of a message from the left (0) / right (1) neighbour
		bufs [2]mem.Ptr
	}
	nodes := make([]node, w.ranks)
	fill := bytes.Repeat([]byte{sentinel}, maxSpan)
	for k := range nodes {
		for dir := 0; dir < 2; dir++ {
			for c := range w.sizes {
				nodes[k].srcs[dir] = append(nodes[k].srcs[dir],
					source(cl.Nodes[k], pattern(in.seed, 2*k+dir, c, shapes[c*w.variants].span)))
			}
			nodes[k].bufs[dir] = cl.Nodes[k].Ctx.MustMalloc(maxSpan)
		}
	}
	for k := range nodes {
		left, right := (k+w.ranks-1)%w.ranks, (k+1)%w.ranks
		for c := range w.sizes {
			span := shapes[c*w.variants].span
			nodes[k].want[0] = append(nodes[k].want[0], image(pattern(in.seed, 2*left, c, span), w))
			nodes[k].want[1] = append(nodes[k].want[1], image(pattern(in.seed, 2*right+1, c, span), w))
		}
	}
	// deliveries[(k*iters+it)*2+dir] is rank k's message in direction dir.
	r.deliveries = make([]delivery, in.messages())
	lat := make([][]float64, w.ranks)
	if !r.setupEnd(t0, rss0, o) {
		return r, nil
	}

	bw := &benchWork{label: o.profile != nil}
	err = r.execute(o, bw, func(n *cluster.Node) {
		rank := n.Rank
		k := rank.Rank()
		left, right := (k+w.ranks-1)%w.ranks, (k+1)%w.ranks
		nd := &nodes[k]
		for dir := 0; dir < 2; dir++ {
			buf := nd.bufs[dir]
			bw.do(func() { copy(buf.Bytes(maxSpan), fill) })
		}
		for it, st := range in.steps[k] {
			rank.Proc().Sleep(st.think)
			t := rank.Now()
			// The message from the left travelled rightward (dir 0).
			fromL := &r.deliveries[(left*w.iters+it)*2]
			fromR := &r.deliveries[(right*w.iters+it)*2+1]
			szL, szR := in.steps[left][it].right, in.steps[right][it].left
			qL := rank.Irecv(nd.bufs[0], 1, shapes[szL].dt, left, 2*it)
			qR := rank.Irecv(nd.bufs[1], 1, shapes[szR].dt, right, 2*it+1)
			fromL.recvID, fromR.recvID = qL.ObsSpan().Task().ID, qR.ObsSpan().Task().ID
			qL.OnComplete(func() { fromL.done = rank.Now() })
			qR.OnComplete(func() { fromR.done = rank.Now() })
			toR := &r.deliveries[(k*w.iters+it)*2]
			toL := &r.deliveries[(k*w.iters+it)*2+1]
			toR.at, toR.posted, toR.bytes = t, rank.Now(), shapes[st.right].bytes
			sR := rank.Isend(nd.srcs[0][w.class(st.right)], 1, shapes[st.right].dt, right, 2*it)
			toL.at, toL.posted, toL.bytes = t, rank.Now(), shapes[st.left].bytes
			sL := rank.Isend(nd.srcs[1][w.class(st.left)], 1, shapes[st.left].dt, left, 2*it+1)
			toR.sendID, toL.sendID = sR.ObsSpan().Task().ID, sL.ObsSpan().Task().ID
			rank.Waitall(qL, qR, sR, sL)
			lat[k] = append(lat[k], (rank.Now() - t).Micros())
			bw.do(func() {
				fromL.ok = bytes.Equal(nd.bufs[0].Bytes(shapes[szL].span), nd.want[0][w.class(szL)][:shapes[szL].span])
				fromR.ok = bytes.Equal(nd.bufs[1].Bytes(shapes[szR].span), nd.want[1][w.class(szR)][:shapes[szR].span])
				copy(nd.bufs[0].Bytes(maxSpan), fill)
				copy(nd.bufs[1].Bytes(maxSpan), fill)
			})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.name, err)
	}
	for k := range nodes {
		bufs := append(append([]mem.Ptr{nodes[k].bufs[0], nodes[k].bufs[1]}, nodes[k].srcs[0]...), nodes[k].srcs[1]...)
		if err := freeAll(cl.Nodes[k], bufs); err != nil {
			return nil, err
		}
	}
	if err := cl.CheckDeviceLeaks(); err != nil {
		return nil, err
	}
	for _, l := range lat {
		r.samples = append(r.samples, l...)
	}
	for _, d := range r.deliveries {
		if d.ok {
			r.payload += int64(d.bytes)
		}
		r.makespan = max(r.makespan, d.done)
	}
	return r, nil
}
