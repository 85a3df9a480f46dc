#!/bin/sh
# Add a measurement to BENCH_serving.json, the serving benchmark's record.
#
#   bench/bench_serving.sh [build-dir]
#
# Run from the repository root. It runs the end-to-end benchmark
# (bench/e2e/run.py, --trace 0) for seeds 1-5, seed-major, over every
# workload of BENCHMARK.json at its run_seconds, and appends one entry to
# the "e2e" list: for each workload, the first quartile, median and third
# quartile over the seeds of every gated and reported number, with the
# commit the runs measured. Earlier entries are kept as they are. If any
# run exits non-zero, is incorrect or failed a request, the file is left
# untouched.
#
# It also rewrites the "representative_store" block from bench_micro's
# store rows in [build-dir] (default build): URPZ vs quantized URP1 bytes
# per engine (BM_PackStoreEncode), store open (BM_StoreWarmup), and map-
# vs view-backed estimation (BM_Estimator{Batch,View}Sweep).
set -e

BUILD=${1:-build}
OUT=BENCH_serving.json
SEEDS="1 2 3 4 5"
TMP=$(mktemp -d /tmp/bench_serving.XXXXXX)
trap 'rm -rf "$TMP"' EXIT

"$BUILD"/bench/bench_micro \
  --benchmark_filter='BM_PackStoreEncode|BM_StoreWarmup|BM_EstimatorViewSweep|BM_EstimatorBatchSweep' \
  --benchmark_out="$TMP/micro.json" --benchmark_out_format=json >/dev/null

RUN_SECONDS=$(python3 -c 'import json
print(json.load(open("BENCHMARK.json"))["run_seconds"])')
WORKLOADS=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for seed in $SEEDS; do
  for w in $WORKLOADS; do
    echo "bench_serving: $w seed $seed" >&2
    python3 bench/e2e/run.py --workload "$w" --seed "$seed" \
      --seconds "$RUN_SECONDS" --trace 0 --out "$TMP/e2e" > "$TMP/run.out" \
      || { cat "$TMP/run.out"; echo "bench_serving: $w seed $seed failed;" \
             "$OUT left untouched" >&2; exit 1; }
  done
done

python3 - "$TMP/micro.json" "$TMP/e2e" "$OUT" "$RUN_SECONDS" $SEEDS <<'EOF'
import datetime, json, os, subprocess, sys

sys.dont_write_bytecode = True  # leave bench/e2e as checked out
sys.path.insert(0, "bench/e2e")
from compare import load_runs, quartiles

micro_path, e2e_dir, out_path, seconds = sys.argv[1:5]
seeds = [int(s) for s in sys.argv[5:]]
with open("BENCHMARK.json") as f:
    spec = json.load(f)


def sig(x):
    return float(f"{x:.4g}")


runs = load_runs(e2e_dir, 0)
workloads = {}
for name in (w["name"] for w in spec["workloads"]):
    by_seed = runs.get(name, {})
    bad = [s for s in seeds if s not in by_seed
           or not by_seed[s]["correct"] or by_seed[s]["failed"]]
    if bad:
        sys.exit(f"bench_serving: {name} seeds {bad} missing, incorrect or "
                 f"failed; {out_path} left untouched")
    numbers = {}
    for key in ("metrics", "info"):
        for metric, m in by_seed[seeds[0]][key].items():
            q1, median, q3 = quartiles(
                [by_seed[s][key][metric]["value"] for s in seeds])
            numbers[metric] = {"q1": sig(q1), "median": sig(median),
                               "q3": sig(q3), "unit": m["unit"]}
    workloads[name] = numbers


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


entry = {
    "commit": git("rev-parse", "HEAD"),
    "dirty": git("status", "--porcelain", "--", ".",
                 f":(exclude){out_path}") != "",
    "date": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%MZ"),
    "cpus": os.cpu_count(),
    "seeds": seeds,
    "seconds": int(seconds),
    "workloads": workloads,
}

with open(micro_path) as f:
    raw = json.load(f)
to_ns = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
rows = {}
for b in raw["benchmarks"]:
    if b.get("run_type") != "iteration":
        continue
    row = {"real_time_ns": round(b["real_time"] * to_ns[b["time_unit"]])}
    for k in ("urpz_bytes_per_engine", "urp1_quantized_bytes_per_engine"):
        if k in b:
            row[k] = round(b[k])
    rows[b["name"]] = row
store = {"date": raw["context"]["date"][:10], "rows": rows}
enc = rows.get("BM_PackStoreEncode", {})
if "urpz_bytes_per_engine" in enc:
    store["urpz_size_ratio_vs_urp1"] = round(
        enc["urp1_quantized_bytes_per_engine"]
        / enc["urpz_bytes_per_engine"], 2)

try:
    with open(out_path) as f:
        history = json.load(f).get("e2e", [])
except FileNotFoundError:
    history = []
doc = {
    "comment": "Serving benchmark record, appended to by "
               "bench/bench_serving.sh. Each e2e entry gives, per workload "
               "of BENCHMARK.json, the first quartile, median and third "
               "quartile over seeds of every number bench/e2e/run.py "
               "reports at --trace 0 (wall-clock latency and capacity, "
               "server CPU, setup_s, rss_mb). representative_store holds "
               "bench_micro's store rows from the latest run.",
    "e2e": history + [entry],
    "representative_store": store,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"bench_serving: appended e2e entry {len(doc['e2e'])} "
      f"({entry['commit'][:12]}{' dirty' if entry['dirty'] else ''}) "
      f"to {out_path}")
EOF
