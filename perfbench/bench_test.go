package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mv2sim/internal/obs"
	"mv2sim/internal/obs/critpath"
	"mv2sim/internal/sim"
)

// shortened is a copy of a workload small enough for a unit test.
func shortened(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.ring {
		w.iters = 100
	} else {
		w.horizon = 3 * sim.Millisecond
	}
	return w
}

// outcome is everything virtual a repetition produced: per-message
// timestamps and verdicts, latency samples, payload and makespan. Span
// IDs are left out; they exist only when tracing is on.
type outcome struct {
	times    [][3]sim.Time
	ok       []bool
	samples  []float64
	payload  int64
	makespan sim.Time
}

func outcomeOf(t *testing.T, in *inputs, o runOpts) (outcome, *rep) {
	t.Helper()
	r, err := in.runOnce(o)
	if err != nil {
		t.Fatal(err)
	}
	out := outcome{samples: r.samples, payload: r.payload, makespan: r.makespan}
	for _, d := range r.deliveries {
		out.times = append(out.times, [3]sim.Time{d.at, d.posted, d.done})
		out.ok = append(out.ok, d.ok)
	}
	if f := r.failed(); f != 0 {
		t.Fatalf("%s: %d of %d messages not delivered byte-exact", in.w.name, f, len(r.deliveries))
	}
	return out, r
}

func TestTracedRunMatchesUntracedAndAttributesExactly(t *testing.T) {
	for _, w := range workloads {
		in := newInputs(shortened(t, w.name), 1)
		plain, _ := outcomeOf(t, in, runOpts{})
		coll := critpath.NewCollector()
		traced, r := outcomeOf(t, in, runOpts{tracers: []obs.Tracer{coll, obs.NewBusyTimeTracer()}, hook: &procCounter{}})
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced run's virtual outcome differs from the untraced run's", w.name)
		}
		exact, err := critpathMetrics(coll, r.deliveries, func(string, string, float64) {})
		if err != nil {
			t.Fatal(err)
		}
		if !exact {
			t.Errorf("%s: critpath attribution is not exact for every delivery", w.name)
		}
	}
}

func TestParallelEngineMatchesSerial(t *testing.T) {
	for _, w := range workloads {
		in := newInputs(shortened(t, w.name), 1)
		serial, _ := outcomeOf(t, in, runOpts{engine: "serial"})
		parallel, _ := outcomeOf(t, in, runOpts{engine: "parallel"})
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: parallel engine's virtual outcome differs from the serial engine's", w.name)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		w := shortened(t, w.name)
		a, b, c := newInputs(w, 1), newInputs(w, 1), newInputs(w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if reflect.DeepEqual(a.schedules, c.schedules) && reflect.DeepEqual(a.steps, c.steps) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
		first, _ := outcomeOf(t, a, runOpts{})
		again, _ := outcomeOf(t, b, runOpts{})
		if !reflect.DeepEqual(first, again) {
			t.Errorf("%s: the same seed gave different virtual outcomes", w.name)
		}
	}
}

func TestOpenLoopSchedulesOfferTheTargetLoad(t *testing.T) {
	for _, w := range workloads {
		if w.ring {
			continue
		}
		in := newInputs(w, 3)
		share := w.offeredMBs / float64(w.pairs) * 1e6 * w.horizon.Seconds()
		for p, items := range in.schedules {
			var bytes float64
			for i, it := range items {
				bytes += float64(it.Bytes)
				if it.At < 0 || it.At >= w.horizon || (i > 0 && it.At < items[i-1].At) {
					t.Fatalf("%s pair %d: arrival %d at %v is out of order or outside the horizon", w.name, p, i, it.At)
				}
			}
			// The windows stop short of the share by less than one message.
			if short := share - bytes; short < 0 || short >= float64(w.sizes[len(w.sizes)-1]) {
				t.Errorf("%s pair %d: offers %.0f bytes, want %.0f", w.name, p, bytes, share)
			}
		}
	}
}

func TestPercentileIsNearestRankAndRefusesThinTails(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if p, err := percentile(xs, 0.5); err != nil || p != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", p, err)
	}
	if p, err := percentile(xs, 0.99); err != nil || p != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", p, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
}

func TestImageKeepsRowsAndSentinelGaps(t *testing.T) {
	w := workload{elem: 2, pitch: 4}
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	want := []byte{1, 2, sentinel, sentinel, 5, 6, sentinel, sentinel, 9, 10}
	if got := image(src, w); !bytes.Equal(got, want) {
		t.Errorf("image = %v, want %v", got, want)
	}
}

func TestCPUSharesCoverTheProfile(t *testing.T) {
	w := shortened(t, "fine-vector")
	w.horizon = 15 * sim.Millisecond // long enough for a few dozen profile samples
	in := newInputs(w, 1)
	var prof bytes.Buffer
	if _, err := in.runOnce(runOpts{profile: &prof}); err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, g := range cpuGroups {
		sum += shares[g]
	}
	if len(shares) != len(cpuGroups) || sum < 0.999 || sum > 1.001 {
		t.Errorf("shares %v sum to %v over %d groups, want 1 over %d", shares, sum, len(shares), len(cpuGroups))
	}
}

func TestCPUGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"mv2sim/internal/datatype.(*ChunkPlan).copyRange":   "datatype",
		"mv2sim/internal/obs/critpath.(*Collector).AddTask": "obs",
		"mv2sim/internal/cluster.New":                       "other",
		"runtime.memclrNoHeapPointers":                      "memclr",
		"runtime.memmove":                                   "memmove",
		"runtime.chanrecv":                                  "sched",
		"runtime.mallocgc":                                  "other",
		"bytes.Equal":                                       "other",
	} {
		if got := cpuGroup(fn); got != want {
			t.Errorf("cpuGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := findWorkload("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("findWorkload(nope) = %v", err)
	}
}
