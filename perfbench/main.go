// Command perfbench is the repository's benchmark of the simulated
// MV2-GPU-NC transport. It runs one workload (or all three) on seeded
// inputs, checks that every delivery is byte-exact, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced run (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, via perfbench/run.sh, which builds it):
//
//	perfbench --workload fine-vector --seed 1 --seconds 25 --trace 0
//	perfbench --workload all --seed 1
//
// See README.md for every metric and why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minReps is the fewest repetitions a --trace 0 run makes, so host-time
// medians are over at least three measurements.
const minReps = 3

func main() {
	name := flag.String("workload", "all", "workload: fine-vector, coarse-burst, eager-ring or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "host seconds to keep repeating the workload (--trace 0)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		ws = []workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		in := newInputs(w, *seed)
		var res result
		var err error
		if *trace == 1 {
			res, err = perLayer(in)
		} else {
			res, err = endToEnd(in, time.Duration(*seconds*float64(time.Second)))
		}
		if err != nil {
			fatal(err)
		}
		printTable(w.name, *trace, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// virtual is a repetition's modelled-time outcome. It depends only on the
// inputs, so every repetition, engine and tracer set must reproduce it.
type virtual struct {
	samples      int
	p50, p99     float64 // µs
	goodput      float64 // MB/s
	attempted    int
	failed       int
	makespanNs   int64
	payloadBytes int64
}

func virtualOf(r *rep) (virtual, error) {
	s := sortedCopy(r.samples)
	v := virtual{
		samples: len(s), attempted: len(r.deliveries), failed: r.failed(),
		makespanNs: int64(r.makespan), payloadBytes: r.payload,
	}
	var err error
	if v.p50, err = percentile(s, 0.50); err != nil {
		return v, err
	}
	if v.p99, err = percentile(s, 0.99); err != nil {
		return v, err
	}
	if r.makespan <= 0 {
		return v, errors.New("nothing delivered")
	}
	v.goodput = float64(r.payload) / r.makespan.Seconds() / 1e6
	return v, nil
}

// setupsPerRep is how many extra set-up-only repetitions accompany each
// full one: set-up is short and noisy, so its median needs more samples.
const setupsPerRep = 2

// endToEnd repeats set-up and run on fresh clusters until the time budget
// is spent (at least minReps times) and reports virtual metrics, which
// must agree across repetitions, and medians of the host metrics. Every
// set-up starts from a collected heap returned to the OS, after one
// untimed set-up has taken the heap through its first use.
func endToEnd(in *inputs, budget time.Duration) (result, error) {
	start := time.Now()
	var (
		first      virtual
		setups     []time.Duration
		rates      []float64
		consistent = true
		last       time.Duration // the previous repetition's wall time
	)
	setupOnly := func() error {
		releaseMemory()
		r, err := in.runOnce(runOpts{setupOnly: true})
		if err == nil {
			setups = append(setups, r.setup)
		}
		return err
	}
	if err := setupOnly(); err != nil {
		return result{}, err
	}
	setups = setups[:0]
	for len(rates) < minReps || time.Since(start)+last < budget {
		repStart := time.Now()
		for i := 0; i < setupsPerRep; i++ {
			if err := setupOnly(); err != nil {
				return result{}, err
			}
		}
		releaseMemory()
		r, err := in.runOnce(runOpts{})
		if err != nil {
			return result{}, err
		}
		v, err := virtualOf(r)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", in.w.name, err)
		}
		if len(rates) == 0 {
			first = v
		} else if v != first {
			consistent = false
		}
		setups = append(setups, r.setup)
		rates = append(rates, float64(r.payload)/r.run.Seconds()/1e6)
		last = time.Since(repStart)
	}
	fmt.Printf("%s: seed %d, %d runs, %d set-ups, %d latency samples (p50 and p99 are over these), %d messages\n",
		in.w.name, in.seed, len(rates), len(setups), first.samples, first.attempted)
	return result{
		Correct:   consistent && first.failed == 0,
		Attempted: first.attempted,
		Failed:    first.failed,
		Metrics: map[string]metric{
			"p50_us":      {first.p50, "us"},
			"p99_us":      {first.p99, "us"},
			"goodput_mbs": {first.goodput, "MB/s"},
			"sim_mbs":     {median(rates), "MB/s"},
			"setup_s":     {medianDuration(setups), "s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
	}, nil
}

// releaseMemory returns a finished repetition's arenas to the OS, so each
// repetition's set-up starts from the same heap state.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func printTable(name string, trace int, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kind := "end-to-end"
	if trace == 1 {
		kind = "per-layer"
	}
	fmt.Printf("%s %s metrics (correct=%v, %d attempted, %d failed):\n", name, kind, res.Correct, res.Attempted, res.Failed)
	row := func(k string, v float64, unit string) { fmt.Printf("  %-40s %14.6g %s\n", k, v, unit) }
	for _, k := range keys {
		row(k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	// failed_frac is printed but not in the JSON metrics: it is 0 on a
	// correct run, and the JSON carries attempted and failed instead.
	row("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
}

// procStatus reads one kB field of /proc/self/status, in MB.
func procStatus(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func rssMB() float64     { return procStatus("VmRSS") }
func peakRSSMB() float64 { return procStatus("VmHWM") }

// cpuTime is the process's CPU time so far, user plus system, over all
// threads. Host metrics use it rather than the wall clock: on a shared
// virtual machine the wall clock also counts time the CPU spends on other
// guests, which moved wall-clock figures by ±20% between runs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
