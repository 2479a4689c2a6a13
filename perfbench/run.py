"""Benchmark of the ryser package: plane -> construct -> certify -> analyse.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload in-process until S seconds have
passed, checks every output, and prints as the last line of standard
output one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are wall_s (one round's time
inside the package), setup_s (process start to the first timed call)
and peak_rss_mb; with --trace 1 they are the per-layer metrics that
BENCHMARK.json names, and the spans are written to perfbench/out/.

The host slows running code by up to 1.7x, for seconds to minutes at a
time, so raw times do not repeat: the fastest round of deep-cover-q5
spread 15% between the quartiles of five runs.  Every time is therefore
brought to a reference speed.  A fixed loop, which runs no package
code, is timed between calls at least every REF_EVERY seconds of calls;
each call's time is divided by the mean of the loop times around it and
multiplied by REF_SECONDS.  wall_s sums, over the calls of a round, the
median of these scaled times over the rounds.  setup_s is the median of
SETUP_SAMPLES fresh set-ups, spread over the run between rounds (the
host's speed drifts within seconds), each scaled by the loop timed just
before and just after it.  A change to the package moves the scaled
figures in full.

The package is imported from the src/ directory beside this one and
from nowhere else; without it the run fails.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("deep-cover-q5", "pipeline-all-checks", "profile-family")
SETUP_SAMPLES = 15
REF_SECONDS = 0.0090   # fastest reference_seconds() seen on the host of the README figures


def reference_loop():
    """Fixed interpreter work: arithmetic, bitmasks and a dict."""
    acc, table = 0, {}
    for i in range(40_000):
        acc = (acc + i * i) & 0xFFFFFFFF
        table[i & 1023] = acc ^ (acc >> 7)
    return acc


def reference_seconds(samples=3):
    """Mean time of the reference loop over a few runs."""
    t0 = time.perf_counter()
    for _ in range(samples):
        reference_loop()
    return (time.perf_counter() - t0) / samples


def load_package():
    init = SRC / "ryser" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import ryser
    if Path(ryser.__file__).resolve() != init.resolve():
        raise SystemExit(f"ryser was imported from {ryser.__file__}, not {init}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up and print the monotonic clock; used to time set-up in a
    # fresh interpreter.
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def scaled_wall(rounds):
    """One round's package time at the reference speed: per call, the
    median over rounds of its time over the reference time around it."""
    per_round = [rnd.scaled_calls() for rnd in rounds]
    if len({len(calls) for calls in per_round}) != 1:
        raise RuntimeError("rounds made different numbers of calls")
    return REF_SECONDS * sum(statistics.median(col) for col in zip(*per_round))


def setup_seconds(args):
    """Process start to first timed call, in a fresh interpreter, at the
    reference speed of the loop timed around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    ref = reference_seconds()
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    elapsed = float(done.stdout.split()[-1]) - t0
    ref = (ref + reference_seconds()) / 2
    return elapsed * REF_SECONDS / ref


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = []
    setups = []          # untraced: set-up probes, spread over the run between rounds
    probe_every = args.seconds / SETUP_SAMPLES
    try:
        start = time.monotonic()
        deadline = start + args.seconds
        while not rounds or time.monotonic() < deadline:
            if (not tracer and len(setups) < SETUP_SAMPLES
                    and time.monotonic() >= start + len(setups) * probe_every):
                t0 = time.monotonic()
                setups.append(setup_seconds(args))
                deadline += time.monotonic() - t0
            rnd = workloads.Round(reference_seconds)
            workloads.WORKLOADS[args.workload](rnd, inputs, str(workdir))
            rnd.finish()
            layers = None
            if tracer:
                scales = [REF_SECONDS / ref for ref in rnd.local_refs()]
                layers = spans.layer_metrics(tracer.end_round(), scales)
            rounds.append((rnd, layers))
        while not tracer and len(setups) < SETUP_SAMPLES:
            setups.append(setup_seconds(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(rnd.attempted for rnd, _ in rounds)
    failed = sum(rnd.failed for rnd, _ in rounds)
    wall_s = scaled_wall(rnd for rnd, _ in rounds)
    if tracer:
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        # Counts repeat in every round; times and rates take the median.
        # trace.wall_s is wall_s of the traced rounds, for the overhead.
        metrics = {}
        for name, unit in spans.METRICS.items():
            if name == "trace.wall_s":
                value = wall_s
            else:
                median = statistics.median if unit in ("s", "1/s") else statistics.median_low
                value = median([layers[name] for _, layers in rounds])
            metrics[name] = {"value": value, "unit": unit}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
