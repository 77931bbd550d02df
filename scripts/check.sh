#!/bin/sh
# check.sh is the tier-1 verify gate: formatting, build, vet, the custom
# mv2lint analyzers, and the test suite under the race detector. CI runs
# exactly this script; run it locally before pushing.
set -eu
cd "$(dirname "$0")/.."

# stage prints the elapsed seconds of the stage before it (informational
# stage timing; nothing gates on it) and the header of the next one.
stage_name=""
stage_start=$(date +%s)
stage() {
    now=$(date +%s)
    if [ -n "$stage_name" ]; then
        echo "   ($stage_name: $((now - stage_start)) s)"
    fi
    stage_name=$1
    stage_start=$now
    [ "$1" = "done" ] || echo "== $1"
}

stage "gofmt"
# Analyzer testdata is excluded: those trees are fixtures, not sources.
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:"
    echo "$unformatted"
    exit 1
fi

stage "go build"
go build ./...

stage "go vet"
go vet ./...

stage "mv2lint"
# The JSON report is written even on a clean run so CI always has an
# artifact; set MV2LINT_JSON/MV2LINT_SARIF to keep the reports, and under
# GitHub Actions findings double as inline annotations.
lint_json="${MV2LINT_JSON:-$(mktemp /tmp/mv2sim-lint.XXXXXX.json)}"
lint_flags="-json $lint_json"
if [ -n "${MV2LINT_SARIF:-}" ]; then
    lint_flags="$lint_flags -sarif $MV2LINT_SARIF"
fi
if [ -n "${GITHUB_ACTIONS:-}" ]; then
    lint_flags="$lint_flags -github"
fi
go run ./cmd/mv2lint $lint_flags ./...
if [ -z "${MV2LINT_JSON:-}" ]; then
    rm -f "$lint_json"
fi

stage "go test -race"
go test -race ./...

stage "fuzz"
# A short native fuzz pass: every payload walker (chunk-plan ranges, the
# byte-slice and kernel-descriptor walks, whole-message pack/unpack)
# against the naive one-copy-per-segment reference walker. A failing
# input is written under internal/datatype/testdata/fuzz for replay.
out=$(go test -run '^$' -fuzz FuzzChunkPlan -fuzztime 10s ./internal/datatype 2>&1) || {
    echo "$out"; echo "FuzzChunkPlan found a walker that disagrees with the reference"; exit 1; }

stage "race-mode benchmark smoke"
# Each benchmark body runs once under the race detector: catches data
# races in pipeline setup paths that the unit tests' smaller
# configurations miss. -benchtime 1x keeps it a smoke test, not a timing.
go test -race -short -run '^$' -bench . -benchtime 1x . > /dev/null

stage "build trace tools"
# The pipetrace, pack-mode, nic and pipedoctor gates below run these three
# commands about thirty times; build each once.
bin=$(mktemp -d /tmp/mv2sim-bin.XXXXXX)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/pipetrace" ./cmd/pipetrace
go build -o "$bin/tracecheck" ./cmd/tracecheck
go build -o "$bin/pipedoctor" ./cmd/pipedoctor
pt="$bin/pipetrace"
tc="$bin/tracecheck"
doctor="$bin/pipedoctor"

stage "pipetrace gate"
# One traced pipeline run per pack mode and rail count, on each engine:
#   - the parallel engine's Chrome trace must be byte-identical to the
#     serial one, event for event and timestamp for timestamp (the
#     contract that lets -engine parallel be a pure wall-clock knob, and
#     the proof that every configuration is deterministic);
#   - the serial trace must be valid and well-ordered, with dense
#     per-rail tracks (tracecheck's containment and monotonicity checks);
#   - the nic trace must carry the SGE gathers on the nicEngine track.
# The auto rails=1 serial trace is kept at $TRACE_OUT when that is set.
for mode in memcpy2d auto kernel nic; do
    for rails in 1 2 4; do
        es=$(mktemp /tmp/mv2sim-engser.XXXXXX.json)
        ep=$(mktemp /tmp/mv2sim-engpar.XXXXXX.json)
        "$pt" -packmode "$mode" -rails "$rails" -engine serial -chrome "$es" > /dev/null
        "$pt" -packmode "$mode" -rails "$rails" -engine parallel -chrome "$ep" > /dev/null
        cmp "$es" "$ep" || {
            echo "parallel engine trace diverged from serial (packmode=$mode rails=$rails)"; exit 1; }
        "$tc" "$es"
        if [ "$mode" = nic ]; then
            grep -q 'nicEngine' "$es" || {
                echo "-packmode nic trace has no nicEngine track (rails=$rails)"; exit 1; }
        fi
        if [ "$mode.$rails" = auto.1 ] && [ -n "${TRACE_OUT:-}" ]; then
            cp "$es" "$TRACE_OUT"
        fi
        rm -f "$es" "$ep"
    done
done

stage "parallel-engine race tests"
# The cluster-heavy packages again, now with every task body dispatched
# on the worker pool and the race detector watching the joins.
MV2SIM_ENGINE=parallel go test -race -count=1 \
    ./internal/core ./internal/halo3d ./internal/transpose ./internal/shoc

stage "pack-mode gate"
# -packmode memcpy2d must reproduce the pre-PackMode pipeline byte for
# byte (the committed golden).
pm=$(mktemp /tmp/mv2sim-packmode.XXXXXX.txt)
"$pt" -packmode memcpy2d > "$pm"
cmp "$pm" scripts/testdata/pipetrace_memcpy2d.golden || {
    echo "-packmode memcpy2d drifted from the golden pipeline output"; exit 1;
}
rm -f "$pm"

stage "nic pack-mode gate"
# The NIC-offloaded engine's shortened gather→wire→scatter pipeline must
# still satisfy the critical-path doctor's exact-attribution invariant
# (Sum()==Wall()). No -strict: pinning nic on a shape it loses is allowed
# to diverge from the model's happy path, exactness is not.
"$doctor" -msg $((4<<20)) -packmode nic > /dev/null

stage "pipedoctor gate"
# The critical-path doctor on the Figure 5(b) 4 MB point (the pinned
# memcpy2d pipeline): the stall attribution must sum exactly to the wall
# clock, the flag state must be consistent with the measured divergence,
# and -strict fails the gate if the (n+2)*T(N/n) model diverges >10%.
pd="${PIPEDOCTOR_OUT:-$(mktemp /tmp/mv2sim-critpath.XXXXXX.json)}"
"$doctor" -msg $((4<<20)) -packmode memcpy2d -strict -bench "$pd" > /dev/null

stage "load harness gate"
# The open-loop load sweep must be byte-reproducible: regenerating
# BENCH_load.json with the committed default configuration (same seed →
# same arrival schedules → same virtual timeline) must match the
# committed file exactly. The file's knee/goodput/tail metrics are then
# gated against the recorded trajectory below.
lb=$(mktemp /tmp/mv2sim-load.XXXXXX.json)
go run ./cmd/loadgen -bench "$lb" > /dev/null
cmp "$lb" BENCH_load.json || {
    echo "BENCH_load.json drifted: loadgen defaults no longer reproduce the committed sweep"; exit 1; }

# The knee gate must actually bite: a synthetic saturation regression
# (knee collapsing to 1 MB/s) appended to a copy of the store must fail
# the self-gate, or the gate is dead code.
ls=$(mktemp /tmp/mv2sim-loadstore.XXXXXX.jsonl)
cp perf/store.jsonl "$ls"
printf '{"schema":1,"seq":99999,"commit":"synthetic","source":"load","metric":"load.poisson.knee_offered_mbs","unit":"MB/s","better":"higher","value":1}\n' >> "$ls"
if go run ./cmd/perfstore gate -store "$ls" -self -tol 5 > /dev/null 2>&1; then
    echo "synthetic knee regression passed the self-gate; the load gate is dead"; exit 1
fi
rm -f "$ls"

stage "dashboard endpoint gate"
# Every dashboard JSON endpoint must stay byte-deterministic: snapshot
# the committed fixture trace + fixture store + committed load sweep (no
# HTTP involved) and diff each endpoint document against its committed
# golden. The fixture trace is a mixed-engine run (nic pack, auto unpack)
# so the goldens cover the nicEngine utilization row and the nic-queueing
# stall strip alongside the GPU stages; the load sweep exercises
# /api/load with a populated document. Regenerate after an intentional
# change with:
#   go run ./cmd/pipetrace -packmode nic -unpackmode auto \
#     -chrome scripts/testdata/dashboard_trace.json
#   go run ./cmd/dashboard -trace scripts/testdata/dashboard_trace.json \
#     -store scripts/testdata/dashboard_store.jsonl -load BENCH_load.json \
#     -snapshot scripts/testdata/dashboard_golden
dd=$(mktemp -d /tmp/mv2sim-dash.XXXXXX)
go run ./cmd/dashboard -trace scripts/testdata/dashboard_trace.json \
    -store scripts/testdata/dashboard_store.jsonl -load BENCH_load.json -snapshot "$dd" > /dev/null
for g in scripts/testdata/dashboard_golden/*.json; do
    cmp "$dd/$(basename "$g")" "$g" || {
        echo "dashboard endpoint $(basename "$g") drifted from its golden"; exit 1; }
done
rm -rf "$dd"

stage "perf trajectory gate"
# The trajectory gates replace hand-pinned regression constants: virtual
# wall-clock, pack and critpath metrics are held to within 5% of the
# best value ever recorded in the append-only store.
#   self: the committed store's own tail — fails exactly when a
#         regression record has been appended to the trajectory.
#   candidate: the pipedoctor bench file from the gate above plus a
#         fresh pack-crossover sweep, gated against the recorded best.
out=$(go run ./cmd/perfstore gate -store perf/store.jsonl -self -tol 5) || {
    echo "$out" | grep '^FAIL' || true
    echo "stored trajectory tail regressed >5% against its own best"; exit 1; }
pc=$(mktemp /tmp/mv2sim-packcand.XXXXXX.json)
go run ./cmd/packbench -crossover -bench "$pc" > /dev/null
out=$(go run ./cmd/perfstore gate -store perf/store.jsonl -tol 5 "$pd" "$pc" "$lb") || {
    echo "$out" | grep '^FAIL' || true
    echo "candidate bench metrics regressed >5% against the recorded trajectory"; exit 1; }
rm -f "$pc" "$lb"
if [ -z "${PIPEDOCTOR_OUT:-}" ]; then
    rm -f "$pd"
fi

stage done
echo "OK"
