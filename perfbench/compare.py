"""Steadiness and tracing-overhead check of the benchmark.

    python3 perfbench/compare.py

Runs the command of BENCHMARK.json once per seed, one run at a time:
for every workload, two sets of RUNS runs (set k uses seeds
100k+1 ... 100k+RUNS).  For each end-to-end metric it prints the median
and the spread of each set, the distance between the first and third
quartile as a share of the median; a spread must stay under a third of
the metric's bound.  It prints the shift of the median from the first
set to the second, which must stay within the bound either way, and
compares the shares of failed operations.  Last, it makes two traced
runs per workload at seed 1, checks that every count repeats, and
prints the tracing overhead: the traced wall_s against the untraced
wall_s of seed 1, the same statistic of the same inputs.  Exits 1 when
a check fails.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
SETS = 2


def run_once(workload, seed, trace):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.monotonic() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, elapsed


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ok = True
    for workload in (w["name"] for w in BENCH["workloads"]):
        sets = []
        for k in range(SETS):
            results = []
            for seed in range(100 * k + 1, 100 * k + 1 + RUNS):
                result, elapsed = run_once(workload, seed, 0)
                results.append(result)
                print(f"{workload} seed {seed}: {elapsed:.1f} s, "
                      + ", ".join(f"{n}={m['value']:.4f}" for n, m in result["metrics"].items()),
                      flush=True)
            sets.append(results)
        medians = []
        for k, results in enumerate(sets):
            medians.append({})
            for metric in BENCH["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                med, spr = spread([r["metrics"][name]["value"] for r in results])
                medians[-1][name] = med
                steady = spr < bound / 3
                ok &= steady
                print(f"  set {k + 1} {name}: median {med:.4f}, spread {spr:.4f} "
                      f"(bound {bound}) {'ok' if steady else 'TOO WIDE'}")
        fractions = [{r["failed"] / r["attempted"] for r in results} for results in sets]
        same = len(fractions[0]) == 1 and fractions[0] == fractions[1]
        ok &= same
        print(f"  failed shares {fractions[0]} / {fractions[1]}: {'ok' if same else 'DIFFER'}")
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            shift = medians[1][name] / medians[0][name] - 1
            agree = abs(shift) <= bound
            ok &= agree
            print(f"  {name}: median shift {shift:+.4f} (bound {bound}) "
                  f"{'ok' if agree else 'DIFFER'}")
        traced = [run_once(workload, 1, 1)[0]["metrics"] for _ in range(2)]
        counts = [n for n, m in traced[0].items() if m["unit"] in ("count", "bytes")]
        repeat = all(traced[0][n]["value"] == traced[1][n]["value"] for n in counts)
        ok &= repeat
        overhead = traced[0]["trace.wall_s"]["value"] / sets[0][0]["metrics"]["wall_s"]["value"] - 1
        print(f"  traced: counts {'repeat' if repeat else 'DIFFER'}, "
              f"overhead {overhead:+.4f} of the untraced wall_s at seed 1")
        for name, m in traced[0].items():
            print(f"    {name} = {m['value']} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
