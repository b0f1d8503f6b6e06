#!/usr/bin/env bash
# Checks that bench_coradd repeats within its own bounds. For each workload
# it makes two sets of runs of the same code, alternating A and B, where
# run i of either set uses seed SEED0 + i (or SEED0 throughout with
# SAME_SEED=1). It prints, per set and end-to-end metric, the median, the
# quartiles and the spread (quartile distance over the median), and fails
# when
#   - a run fails or reports correct = false,
#   - the two sets' medians differ by more than the metric's bound in
#     BENCHMARK.json,
#   - a spread other than setup_s's exceeds the bound,
#   - a deterministic metric differs between the two runs of one seed.
#
#   bench/coradd/repeat_check.sh                 # 5 + 5 runs per workload
#   RUNS=10 WORKLOADS=apb_mined_open bench/coradd/repeat_check.sh
#   SEED0=7 SAME_SEED=1 bench/coradd/repeat_check.sh
#
# Results are kept in .bench_build/repeat/. Run from anywhere in the
# checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
runs="${RUNS:-5}"
seed0="${SEED0:-1}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="${WORKLOADS:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}"
out=".bench_build/repeat"
mkdir -p "$out"
rm -f "$out"/*.json

status=0
for w in $workloads; do
  for ((i = 0; i < runs; i++)); do
    seed=$((seed0 + i))
    [[ "${SAME_SEED:-0}" == 1 ]] && seed="$seed0"
    for set in A B; do
      file="$out/$w-$set-$i.json"
      echo "== $w set $set run $i seed $seed" >&2
      if ! python3 bench/coradd/run.py --workload "$w" --seed "$seed" \
          --seconds "$seconds" --trace 0 2>"$out/$w-$set-$i.log" | tail -n 1 >"$file"; then
        echo "run failed: see $out/$w-$set-$i.log" >&2
        status=1
      fi
    done
  done
done

python3 - "$out" "$runs" $workloads <<'EOF' || status=1
import json, statistics, sys
out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
# Metrics fixed by the seed: the simulated cost of the designs.
deterministic = {"design_sim_s"}
bad = 0
for w in workloads:
    sets = {}
    for s in "AB":
        sets[s] = []
        for i in range(runs):
            try:
                r = json.load(open(f"{out}/{w}-{s}-{i}.json"))
            except (OSError, ValueError):
                print(f"{w} set {s} run {i}: no result"); bad += 1; continue
            if not r["correct"] or r["failed"]:
                print(f"{w} set {s} run {i}: {r['failed']} of {r['attempted']} checks failed"); bad += 1
            sets[s].append(r["metrics"])
    print(f"\n{w}: {runs} + {runs} runs")
    print(f"{'metric':15s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = {}
        for s in "AB":
            v = [x[name]["value"] for x in sets[s] if name in x]
            if len(v) < 2:
                print(f"{name:15s} {s:3s} too few runs"); bad += 1; continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            medians[s] = med
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict = "SPREAD ABOVE BOUND"; bad += 1
            elif name != "setup_s" and spread > bound / 3:
                verdict = "spread above a third of the bound"
            print(f"{name:15s} {s:3s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.3f}  {verdict}")
        if len(medians) == 2 and medians["A"]:
            diff = (medians["B"] - medians["A"]) / medians["A"]
            verdict = "ok" if abs(diff) <= bound else "MEDIANS DIFFER BEYOND BOUND"
            bad += verdict != "ok"
            print(f"{name:15s} B/A {diff:+12.4f}{'':36s}  {verdict}")
        if name in deterministic:
            pairs = zip(sets["A"], sets["B"])
            same = all(a[name]["value"] == b[name]["value"] for a, b in pairs)
            bad += not same
            print(f"{name:15s} deterministic: {'identical per seed' if same else 'DIFFERS'}")
print(f"\n{'FAIL' if bad else 'PASS'}: {bad} problem(s)")
sys.exit(1 if bad else 0)
EOF
exit "$status"
