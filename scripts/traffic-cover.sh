#!/bin/sh
# traffic-cover.sh measures which non-test functions the module's own
# traffic never runs. It builds every main package, the examples and the
# benchmark with coverage instrumentation for all of simmr/..., drives
# them through the traffic users and the benchmark generate, and prints
# every function at 0 % (then the total).
#
#   scripts/traffic-cover.sh            # work in a fresh temporary directory
#   TRAFFIC_DIR=/some/dir scripts/traffic-cover.sh
#
# Run it from anywhere inside the repository; it takes about 12 minutes
# on two cores, most of them in cmd/experiments. `make verify` does not
# run it.
#
# The traffic:
#   - the five examples;
#   - cmd/experiments -reps 10 with a -cache-dir, cold and then warm;
#   - cmd/tracegen (-kind, and -spec on a two-class description), and
#     cmd/testbed's history log read by cmd/mrprofiler;
#   - a trace database: tracegen and mrprofiler store into it, and
#     simmr replays from it and `trace pack`s from it;
#   - simmr on a 20 000-job multi-tenant .strc under all five policies,
#     plus -v, -info, -sweep, -shard, `trace whatif -explain`,
#     `trace explain` (TSV, and -json with -out), `trace run`,
#     `trace pack|unpack|info` and `cache info|clear`; -timeline and
#     -engine mumak on the small spec trace;
#   - one -debug-addr replay under MinEDF on 8x8 slots, where some
#     deadlines are missed, that lingers 3 s after it ends, read by
#     `simmr ops list`, `simmr ops watch` and curl of /metrics,
#     /buildinfo and its deadline-miss dump at /runs/latest/flight (JSON
#     and ?format=chrome); it then exits normally and writes its
#     counters;
#   - `benchmark --smoke` at --trace 0 and 1.
#
# One gap: the benchmark's bigtrace-cold workload builds the simmr it
# execs from source, without instrumentation, so that child's traffic is
# not counted (the benchmark's directory is frozen).
set -eu

root=$(git rev-parse --show-toplevel)
work=${TRAFFIC_DIR:-$(mktemp -d)}
bin=$work/bin
cov=$work/cov
mkdir -p "$bin" "$cov"
cd "$root"

echo "traffic-cover: building into $bin" >&2
for m in simmr tracegen experiments mrprofiler testbed; do
	go build -cover -coverpkg=simmr/... -o "$bin/$m" "./cmd/$m"
done
for e in quickstart deadline facebook whatif multitenant; do
	go build -cover -coverpkg=simmr/... -o "$bin/example-$e" "./examples/$e"
done
go build -cover -coverpkg=simmr/... -o "$bin/benchmark" ./benchmark

export GOCOVERDIR=$cov
quiet() { "$@" >/dev/null 2>&1; }

echo "traffic-cover: examples" >&2
for e in quickstart deadline facebook whatif multitenant; do
	quiet "$bin/example-$e"
done

echo "traffic-cover: experiments, cold then warm" >&2
quiet "$bin/experiments" -reps 10 -cache-dir "$work/exp-cache" -outdir "$work/exp-1"
quiet "$bin/experiments" -reps 10 -cache-dir "$work/exp-cache" -outdir "$work/exp-2"

echo "traffic-cover: tracegen, testbed, mrprofiler" >&2
T=$work/mt.strc
quiet "$bin/tracegen" -kind multitenant -n 20000 -format bin -stream -pool 256 -deadline-frac 0.5 -out "$T"
quiet "$bin/testbed" -app WordCount -log "$work/history.log"
quiet "$bin/mrprofiler" -logs "$work/history.log" -out "$work/profiled.json"
cat >"$work/spec.json" <<'SPEC'
{
  "name": "two-class",
  "jobs": 200,
  "mean_interarrival": 30,
  "classes": [
    {
      "name": "etl", "weight": 3,
      "num_maps": "uniform(10,60)",
      "num_reduces": "constant(8)",
      "map": "lognormal(2.3,0.6)",
      "first_shuffle": "exponential(2)",
      "typical_shuffle": "exponential(5)",
      "reduce": "normal(4,1)"
    },
    {"name": "scan", "weight": 1, "num_maps": "constant(30)", "map": "normal(12,2)"}
  ]
}
SPEC
quiet "$bin/tracegen" -spec "$work/spec.json" -out "$work/spec-trace.json"

echo "traffic-cover: the trace database" >&2
S=$bin/simmr
D=$work/db
quiet "$bin/tracegen" -kind facebook -n 200 -db "$D" -name fb
quiet "$bin/mrprofiler" -logs "$work/history.log" -db "$D" -name profiled
quiet "$S" -db "$D" -name fb
quiet "$S" -db "$D" -name profiled
quiet "$S" trace pack -db "$D" -name fb -out "$work/fb.strc"

echo "traffic-cover: simmr" >&2
for p in fifo maxedf minedf fair capacity; do
	quiet "$S" -trace "$T" -policy "$p"
done
quiet "$S" -trace "$T" -policy minedf -v
quiet "$S" -trace "$T" -info
quiet "$S" -trace "$work/spec-trace.json" -timeline "$work/timeline.tsv"
quiet "$S" -trace "$work/spec-trace.json" -engine mumak
quiet "$S" -trace "$T" -sweep 16,32,64
quiet "$S" -trace "$T" -sweep 16,32,64 -shard 0/2
quiet "$S" trace whatif -trace "$T" -at 0.5 -policies minedf,maxedf -deadline-scale 2 -explain
quiet "$S" trace explain -trace "$T" -policy maxedf
quiet "$S" trace explain -trace "$T" -policy maxedf -json -out "$work/explain.json"
quiet "$S" trace run -trace "$T" -out "$work/events.json" -slot-timeline "$work/slots.tsv"
quiet "$S" trace unpack -trace "$T" -out "$work/mt.json"
quiet "$S" trace pack -trace "$work/mt.json" -out "$work/again.strc"
quiet "$S" trace info -trace "$work/again.strc"
quiet "$S" -trace "$T" -sweep 16,32 -cache-dir "$work/cache"
quiet "$S" cache info -cache-dir "$work/cache"
quiet "$S" cache clear -cache-dir "$work/cache"

echo "traffic-cover: the ops plane, read while the replay lingers" >&2
"$S" -trace "$T" -policy minedf -map-slots 8 -reduce-slots 8 -debug-addr 127.0.0.1:0 -linger 3s >/dev/null 2>"$work/debug.err" &
pid=$!
addr=
while [ -z "$addr" ] && kill -0 "$pid" 2>/dev/null; do
	sleep 0.1
	addr=$(sed -n 's|.*debug endpoint at http://\([^/]*\)/metrics.*|\1|p' "$work/debug.err")
done
if [ -n "$addr" ]; then
	quiet "$S" ops list -addr "$addr"
	quiet "$S" ops watch -addr "$addr"
	for path in metrics buildinfo runs/latest/flight 'runs/latest/flight?format=chrome'; do
		quiet curl -s "http://$addr/$path"
	done
fi
wait "$pid"

echo "traffic-cover: benchmark --smoke" >&2
for t in 0 1; do
	quiet "$bin/benchmark" --smoke --trace "$t" --out "$work/bench-$t"
done

echo "traffic-cover: non-test functions at 0 % (counters in $cov)" >&2
go tool covdata func -i "$cov" | awk '$NF == "0.0%" { print } $1 == "total" { total = $0 } END { print total }'
