package main

// A minimal reader for the gzipped protobuf profiles runtime/pprof writes,
// enough to attribute flat CPU samples to the simulator's layers without a
// dependency on the pprof tool. Only the fields below are decoded; see
// github.com/google/pprof/proto/profile.proto for the schema.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2
	fSampleLabel    = 3

	fLabelKey = 1

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// layerGroups are the simulator's packages that are reported as layers.
var layerGroups = []string{"datatype", "mem", "sim", "core", "mpi", "ib", "gpu", "cuda", "hostmem", "obs"}

// cpuGroups are the profile groups reported as host.cpu_frac.<group>: the
// layers, the two runtime primitives that dominate payload movement and
// arena set-up, the goroutine scheduler, and the rest.
var cpuGroups = append(append([]string(nil), layerGroups...), "memclr", "memmove", "sched", "other")

// excludeLabel marks benchmark work (payload verification, sentinel fills)
// that runs inside the simulation but is not the simulator's cost.
const excludeLabel = "perfbench"

// cpuShares decodes a CPU profile and returns each group's share of the
// flat samples, leaving out samples carrying the excludeLabel key.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	// Label keys are string-table indices; the table follows the samples,
	// so they are resolved after the walk.
	type sample struct {
		leaf  uint64
		count int64
		keys  []int64
	}
	var (
		samples []sample
		strs    []string
		locFn   = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int64{}  // function id → string index
	)
	err = walkFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case fProfileSample:
			var s sample
			first := true
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fSampleLocation:
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case fSampleValue:
					n := 0
					return eachVarint(v, b, func(x uint64) {
						if n == 0 {
							s.count = int64(x)
						}
						n++
					})
				case fSampleLabel:
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == fLabelKey {
							s.keys = append(s.keys, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id, fn uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					// Lines run innermost first: the first is the inlined leaf.
					if fn != 0 {
						return nil
					}
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	shares := map[string]float64{}
	for _, g := range cpuGroups {
		shares[g] = 0
	}
	var total int64
next:
	for _, s := range samples {
		for _, k := range s.keys {
			if str(k) == excludeLabel {
				continue next
			}
		}
		shares[cpuGroup(str(fnName[locFn[s.leaf]]))] += float64(s.count)
		total += s.count
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	for g := range shares {
		shares[g] /= float64(total)
	}
	return shares, nil
}

// schedFuncs are the runtime's goroutine-switching and channel functions:
// the host cost of the simulator's process switches.
var schedFuncs = map[string]bool{
	"gopark": true, "goready": true, "ready": true, "park_m": true, "schedule": true,
	"findRunnable": true, "execute": true, "gogo": true, "mcall": true, "runqget": true,
	"runqput": true, "runqgrab": true, "runqsteal": true, "stealWork": true, "wakep": true,
	"startm": true, "stopm": true, "mPark": true, "notesleep": true, "notewakeup": true,
	"futex": true, "futexsleep": true, "futexwakeup": true, "lock2": true, "unlock2": true,
	"casgstatus": true, "acquirep": true, "releasep": true, "handoffp": true, "osyield": true,
	"usleep": true, "procyield": true, "resetspinning": true, "checkTimers": true,
	"netpoll": true, "goexit0": true, "gfget": true, "gfput": true, "newproc1": true,
	"send": true, "recv": true, "selectgo": true, "sellock": true, "selunlock": true,
	"gosched_m": true, "goschedImpl": true, "nanotime1": true, "runqempty": true,
}

// cpuGroup maps a profiled function name to its report group.
func cpuGroup(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "mv2sim/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, g := range layerGroups {
			if pkg == g {
				return g
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "sync.") {
		return "sched"
	}
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return "other"
	}
	switch {
	case strings.HasPrefix(name, "memclr"):
		return "memclr"
	case name == "memmove":
		return "memmove"
	case schedFuncs[name], strings.HasPrefix(name, "chan"), strings.HasPrefix(name, "sem"):
		return "sched"
	}
	return "other"
}

// walkFields calls fn for each field of one protobuf message: v carries
// varint and fixed values, b the bytes of length-delimited ones.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			n = 8
		case 2:
			l, m := uvarint(msg)
			if m <= 0 || uint64(len(msg)-m) < l {
				return errors.New("bad length")
			}
			b, n = msg[m:m+int(l)], m+int(l)
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			n = 4
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		msg = msg[n:]
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint visits a repeated varint field stored either unpacked (one
// value in v, b nil) or packed (all values in b).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
