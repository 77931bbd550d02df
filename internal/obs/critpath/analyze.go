package critpath

import (
	"sort"
	"strings"

	"mv2sim/internal/obs"
	"mv2sim/internal/sim"
)

// Attribution buckets. Every nanosecond of a transfer's wall clock lands
// in exactly one of these.
const (
	// Stage work: the bytes are actually moving (or being gathered).
	BucketPack   = "pack"
	BucketD2H    = "d2h"
	BucketWire   = "wire"
	BucketH2D    = "h2d"
	BucketUnpack = "unpack"

	// Resource queueing: a stage was issued but waited for hardware.
	BucketCopyQueue   = "copy-engine-queue"
	BucketKernelQueue = "kernel-engine-queue"
	BucketRailQueue   = "rail-queue"
	BucketNicQueue    = "nic-queueing"
	BucketVbufWait    = "vbuf-wait"

	// Protocol control: nothing was issued yet.
	BucketHandshake = "handshake"
	BucketFIN       = "fin"

	// Whole-transfer fallback for paths without a traced pipeline
	// (eager-size, self-sends, host-memory rendezvous).
	BucketEager = "eager-path"
)

// BucketOrder is the canonical reporting order.
var BucketOrder = []string{
	BucketPack, BucketD2H, BucketWire, BucketH2D, BucketUnpack,
	BucketCopyQueue, BucketKernelQueue, BucketRailQueue, BucketNicQueue, BucketVbufWait,
	BucketHandshake, BucketFIN, BucketEager,
}

// PathStep is one node of the critical path in time order: the binding
// stage task, plus the gap between the previous step's end and this
// task's start, classified into GapBuckets (summing exactly to Gap).
type PathStep struct {
	Task       obs.Task
	Gap        sim.Time
	GapBuckets map[string]sim.Time
	// EdgeLabel is how this step was bound to its predecessor: an obs.Dep*
	// label, "chunk" for the cross-rank rx→H2D chunk match, or "head" for
	// the first step.
	EdgeLabel string
}

// Analysis is the attribution of one transfer.
type Analysis struct {
	Transfer Transfer
	Start    sim.Time
	End      sim.Time
	// Buckets is the wall-clock attribution; Sum() equals Wall() exactly.
	Buckets map[string]sim.Time
	// Path is the critical path in time order.
	Path []PathStep
	// Chunks is the pipeline depth (number of RDMA stage tasks); zero for
	// fallback-attributed transfers.
	Chunks int
	// Rails is the number of distinct rails the RDMA stages used.
	Rails int
	// StageTotals sums stage-task durations per work bucket (all chunks,
	// not just critical-path ones) — the input to the analytic model.
	StageTotals map[string]sim.Time
}

// Wall returns the transfer's wall-clock duration.
func (a *Analysis) Wall() sim.Time { return a.End - a.Start }

// Sum returns the total attributed time across all buckets.
func (a *Analysis) Sum() sim.Time {
	var s sim.Time
	for _, v := range a.Buckets {
		s += v
	}
	return s
}

// Exact reports whether the attribution sums to the wall clock exactly —
// the invariant the engine guarantees and check.sh gates on.
func (a *Analysis) Exact() bool { return a.Sum() == a.Wall() }

// Analyze attributes every paired transfer in the collected stream.
func (c *Collector) Analyze() []*Analysis {
	var out []*Analysis
	for _, tr := range c.Transfers() {
		out = append(out, c.AnalyzeTransfer(tr))
	}
	return out
}

// AnalyzeTransfer runs the critical-path walk for one transfer.
func (c *Collector) AnalyzeTransfer(tr Transfer) *Analysis {
	a := &Analysis{
		Transfer:    tr,
		Start:       minTime(tr.Send.Start, tr.Recv.Start),
		End:         maxTime(tr.Send.End, tr.Recv.End),
		Buckets:     map[string]sim.Time{},
		StageTotals: map[string]sim.Time{},
	}
	nodes := c.stageNodes(tr)
	for _, n := range nodes {
		if rxWireTask(n) {
			continue // wire occupancy is counted from the rdma stage spans
		}
		if b, ok := workBucket(n); ok {
			// Use the engine/wire occupancy inside the span, not the span
			// itself: a stage span issued early also covers time queued
			// behind its siblings, which would inflate the model's T(N/n).
			d := n.End - n.Start
			if inner, found := c.innerWork(n); found {
				d = inner.End - inner.Start
			}
			a.StageTotals[b] += d
		}
		if n.Kind == obs.KindRDMA {
			a.Chunks++
			// A NIC-offloaded chunk does its pack work inside the rdma
			// stage span: the SGE gather child is that chunk's datatype
			// processing, so the model sees it as the pack stage.
			for _, ch := range c.childTasks(n.ID) {
				if ch.Kind == obs.KindNicGather {
					a.StageTotals[BucketPack] += ch.End - ch.Start
				}
			}
		}
	}
	a.Rails = countRails(nodes)
	if len(nodes) == 0 {
		// No traced pipeline: the whole wall clock is one bucket, so the
		// sum stays exact.
		a.Buckets[BucketEager] = a.Wall()
		return a
	}
	c.walk(a, nodes)
	return a
}

// stageNodes collects the transfer's stage-level tasks: the sender's
// pack/D2H/RDMA spans, the receiver's H2D/unpack spans, and the rx wire
// tasks reached through explicit wire edges from the sender's transmit
// tasks. Sorted by (End, ID) so "latest-ending" is well defined.
func (c *Collector) stageNodes(tr Transfer) []obs.Task {
	var nodes []obs.Task
	add := func(t obs.Task) {
		if !t.Instant() {
			nodes = append(nodes, t)
		}
	}
	for _, t := range c.childTasks(tr.Send.ID) {
		switch t.Kind {
		case obs.KindPack, obs.KindD2H, obs.KindRDMA:
			add(t)
			if t.Kind != obs.KindRDMA {
				continue
			}
			// The rdma stage span's transmit child links to the remote rx
			// wire task through the recorded wire edge.
			for _, tx := range c.childTasks(t.ID) {
				for _, depID := range c.rdeps[tx.ID] {
					rx, ok := c.byID[depID]
					if !ok || !rxWireTask(rx) {
						continue
					}
					add(rx)
					// A nic-unpack receiver has no H2D/unpack spans under
					// its recv request; its stage work is the SGE scatter
					// task hanging off the rx wire task's stage edge.
					for _, scID := range c.rdeps[rx.ID] {
						if sc, ok := c.byID[scID]; ok && sc.Kind == obs.KindNicScatter {
							add(sc)
						}
					}
				}
			}
		}
	}
	for _, t := range c.childTasks(tr.Recv.ID) {
		switch t.Kind {
		case obs.KindH2D, obs.KindUnpack:
			add(t)
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].End != nodes[j].End {
			return nodes[i].End < nodes[j].End
		}
		return nodes[i].ID < nodes[j].ID
	})
	return nodes
}

// walk performs the backward critical-path traversal and fills the
// attribution. The traversal starts at the latest-ending stage node and
// repeatedly binds to the predecessor with the latest end time among the
// node's dependencies; every interval between a.Start and a.End is
// assigned to exactly one bucket along the way.
func (c *Collector) walk(a *Analysis, nodes []obs.Task) {
	byID := map[uint64]obs.Task{}
	for _, n := range nodes {
		byID[n.ID] = n
	}
	waits := c.vbufWaits()

	cur := nodes[len(nodes)-1]
	// Tail: from the last stage task to request completion (FIN drain,
	// completion callbacks).
	a.Buckets[BucketFIN] += a.End - cur.End

	var rev []PathStep
	visited := map[uint64]bool{}
	for {
		if visited[cur.ID] {
			break
		}
		visited[cur.ID] = true
		c.decompose(a, cur)

		pred, label, ok := c.bindingPred(cur, nodes, byID, visited)
		gapStart := a.Start
		if ok {
			gapStart = pred.End
		}
		step := PathStep{Task: cur, Gap: cur.Start - gapStart, EdgeLabel: "head"}
		if ok {
			step.EdgeLabel = label
		}
		step.GapBuckets = classifyGap(cur, step.EdgeLabel, gapStart, cur.Start, waits)
		for b, v := range step.GapBuckets {
			a.Buckets[b] += v
		}
		rev = append(rev, step)
		if !ok {
			break
		}
		cur = pred
	}
	for i := len(rev) - 1; i >= 0; i-- {
		a.Path = append(a.Path, rev[i])
	}
}

// bindingPred finds the predecessor whose completion released cur: the
// latest-ending candidate among explicit dependency edges, the cross-rank
// chunk match (rx wire → H2D) and same-track serialization. Candidates
// ending after cur started cannot have been binding and are skipped.
// Candidate scans iterate the sorted nodes slice, never the byID map:
// map order is randomized per run and the first-seen candidate wins End
// ties, so iterating byID would make the attributed path (and the report)
// differ between runs on the same trace.
func (c *Collector) bindingPred(cur obs.Task, nodes []obs.Task, byID map[uint64]obs.Task, visited map[uint64]bool) (obs.Task, string, bool) {
	type cand struct {
		t     obs.Task
		label string
	}
	var cands []cand
	consider := func(t obs.Task, label string) {
		if t.ID == cur.ID || visited[t.ID] || t.End > cur.Start {
			return
		}
		cands = append(cands, cand{t, label})
	}
	for _, e := range c.deps[cur.ID] {
		t, ok := c.byID[e.On]
		if !ok {
			continue
		}
		if _, isNode := byID[t.ID]; !isNode {
			// The edge targets a task below stage level (e.g. the rx wire
			// task depends on the transmit task inside the rdma span);
			// lift it to its enclosing stage node.
			if p, ok := byID[t.ParentID]; ok {
				t = p
			} else {
				continue
			}
		}
		consider(t, e.Label)
	}
	if cur.Kind == obs.KindH2D && cur.Chunk >= 0 {
		// Cross-rank data dependency: the H2D of chunk c could not start
		// before chunk c's bytes finished streaming in.
		for _, n := range nodes {
			if rxWireTask(n) && n.Chunk == cur.Chunk {
				consider(n, "chunk")
			}
		}
	}
	if cur.Kind == obs.KindUnpack && len(c.deps[cur.ID]) == 0 && !hasKind(nodes, obs.KindH2D) {
		// A receiver without a staging hop (GPUDirect) unpacks straight
		// out of the landed bytes: the unpack waited on the latest chunk
		// to finish streaming in before it.
		for _, n := range nodes {
			if rxWireTask(n) {
				consider(n, "chunk")
			}
		}
	}
	// Same-track serialization: the latest earlier stage task on the same
	// resource track.
	var serial obs.Task
	for _, n := range nodes {
		if n.ID == cur.ID || n.Where != cur.Where || n.End > cur.Start {
			continue
		}
		if n.End > serial.End || (n.End == serial.End && n.ID > serial.ID) {
			serial = n
		}
	}
	if serial.ID != 0 {
		consider(serial, obs.DepSerial)
	}
	if len(cands) == 0 {
		return obs.Task{}, "", false
	}
	best := cands[0]
	for _, cd := range cands[1:] {
		switch {
		case cd.t.End > best.t.End:
			best = cd
		case cd.t.End == best.t.End && best.label == obs.DepSerial && cd.label != obs.DepSerial:
			// Prefer an explicit edge over implicit serialization at ties.
			best = cd
		case cd.t.End == best.t.End && cd.label == best.label && cd.t.ID < best.t.ID:
			best = cd
		}
	}
	return best.t, best.label, true
}

// decompose splits a critical-path node's own interval into resource
// queueing (before its engine/wire task started) and stage work.
func (c *Collector) decompose(a *Analysis, n obs.Task) {
	if rxWireTask(n) {
		a.Buckets[BucketWire] += n.End - n.Start
		return
	}
	work, _ := workBucket(n)
	inner, ok := c.innerWork(n)
	if !ok {
		a.Buckets[work] += n.End - n.Start
		return
	}
	if n.Kind == obs.KindRDMA {
		if g, ok := c.nicGatherChild(n); ok {
			// NIC-offloaded chunk: the span telescopes into SGE-engine
			// queueing, the gather itself (that chunk's pack work), rail
			// arbitration, and the wire.
			a.Buckets[BucketNicQueue] += clampTime(g.Start - n.Start)
			a.Buckets[BucketPack] += g.End - g.Start
			a.Buckets[BucketRailQueue] += clampTime(inner.Start - g.End)
			a.Buckets[BucketWire] += n.End - maxTime(inner.Start, g.End)
			return
		}
	}
	queue := BucketCopyQueue
	switch {
	case n.Kind == obs.KindRDMA:
		queue = BucketRailQueue
	case inner.Kind == obs.KindKernel:
		queue = BucketKernelQueue
	}
	qt := inner.Start - n.Start
	if qt < 0 {
		qt = 0
	}
	a.Buckets[queue] += qt
	a.Buckets[work] += (n.End - n.Start) - qt
}

// nicGatherChild finds the SGE gather task inside a NIC-offloaded rdma
// stage span, if any.
func (c *Collector) nicGatherChild(n obs.Task) (obs.Task, bool) {
	for _, ch := range c.childTasks(n.ID) {
		if ch.Kind == obs.KindNicGather {
			return ch, true
		}
	}
	return obs.Task{}, false
}

func clampTime(t sim.Time) sim.Time {
	if t < 0 {
		return 0
	}
	return t
}

// innerWork finds the task inside a stage span that did the actual moving:
// the engine-occupancy task under the stream op for GPU stages, the
// transmit wire task for RDMA stages.
func (c *Collector) innerWork(n obs.Task) (obs.Task, bool) {
	for _, ch := range c.childTasks(n.ID) {
		if ch.Instant() {
			continue
		}
		if n.Kind == obs.KindRDMA {
			base, _, _ := obs.SplitRail(ch.Where)
			if strings.HasSuffix(base, ".tx") {
				return ch, true
			}
			continue
		}
		// GPU stage: the stream op; prefer its engine-task child, which
		// excludes stream-FIFO and engine-arbitration waits.
		for _, g := range c.childTasks(ch.ID) {
			if !g.Instant() {
				return g, true
			}
		}
		return ch, true
	}
	return obs.Task{}, false
}

// classifyGap assigns the idle interval before a node. Wire edges are
// propagation latency (work); FIN-labelled gaps are control; everything
// else is split into vbuf-pool back-pressure (overlap with vbuf_wait
// tasks on the node's side of the transfer) and protocol control.
func classifyGap(cur obs.Task, label string, from, to sim.Time, waits []obs.Task) map[string]sim.Time {
	out := map[string]sim.Time{}
	gap := to - from
	if gap <= 0 {
		return out
	}
	switch label {
	case obs.DepWire:
		out[BucketWire] = gap
		return out
	case "chunk":
		out[BucketFIN] = gap
		return out
	}
	if cur.Kind == obs.KindNicScatter {
		// Idle time before a scatter is the serialized SGE engine working
		// through earlier chunks (or waiting for this chunk's bytes).
		out[BucketNicQueue] = gap
		return out
	}
	side := ".rxvbufs"
	ctrl := BucketFIN
	if senderStage(cur.Kind) {
		side = ".txvbufs"
		ctrl = BucketHandshake
	}
	var overlap sim.Time
	for _, w := range waits {
		if !strings.Contains(w.Where, side) {
			continue
		}
		lo, hi := maxTime(w.Start, from), minTime(w.End, to)
		if hi > lo {
			overlap += hi - lo
		}
	}
	if overlap > gap {
		overlap = gap
	}
	if overlap > 0 {
		out[BucketVbufWait] = overlap
	}
	if gap > overlap {
		out[ctrl] = gap - overlap
	}
	return out
}

// vbufWaits returns all pool-exhaustion wait tasks in the run.
func (c *Collector) vbufWaits() []obs.Task {
	var out []obs.Task
	for _, t := range c.tasks {
		if t.Kind == obs.KindVbufWait {
			out = append(out, t)
		}
	}
	return out
}

// workBucket maps a stage task to its work bucket.
func workBucket(t obs.Task) (string, bool) {
	switch t.Kind {
	case obs.KindPack:
		return BucketPack, true
	case obs.KindD2H:
		return BucketD2H, true
	case obs.KindRDMA:
		return BucketWire, true
	case obs.KindH2D:
		return BucketH2D, true
	case obs.KindUnpack:
		return BucketUnpack, true
	case obs.KindNicScatter:
		// The SGE scatter is the receive side's datatype processing.
		return BucketUnpack, true
	}
	return "", false
}

// countRails counts the distinct rails the sender's RDMA stages used.
func countRails(nodes []obs.Task) int {
	rails := map[int]bool{}
	for _, n := range nodes {
		if n.Kind != obs.KindRDMA || rxWireTask(n) {
			continue
		}
		_, r, _ := obs.SplitRail(n.Where)
		rails[r] = true
	}
	if len(rails) == 0 {
		return 1
	}
	return len(rails)
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func hasKind(nodes []obs.Task, kind string) bool {
	for _, n := range nodes {
		if n.Kind == kind {
			return true
		}
	}
	return false
}
