#!/usr/bin/env python3
"""Host wall-clock benchmark of PASTA.

Run one workload (from the root of the repository):

    python3 hostbench/run.py --workload moe-ep256 --seed 1 --seconds 20 --trace 0

builds the `pasta-hostbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`) and prints as its last line one
JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics of BENCHMARK.json with `--trace 0`, the per-layer ones
with `--trace 1`).

An untraced run splits its `--seconds` over CHUNKS measuring processes
and runs set-up-only processes before each of them, so set-up samples and
timed iterations are spread over the same stretch of time. A traced run
is one measuring process; it also writes its spans to
`$CARGO_TARGET_DIR/hostbench/`.

Times are host-normalized. The binary runs a fixed calibration kernel
(src/calibration.rs) after set-up and after every timed iteration, on as
many threads as the workload keeps busy; each time is scaled by
CAL_REF_MS / (the calibration time beside it). The shared host this was
written on runs the same code up to 1.6x slower for stretches of seconds
to minutes, and the kernel slows with it, so the scaled times track the
program's own cost. The raw median and the calibration median appear
among the per-layer metrics.

Self-check: run every workload twice, as two sets of RUNS runs each (same
seeds in both sets), and report per workload and end-to-end metric whether
each set's spread and the gap between the two medians are within the
bounds of BENCHMARK.json:

    python3 hostbench/run.py --self-check
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Measuring processes per untraced run.
CHUNKS = 5
# Fresh-process set-ups before each measuring process: as many as fit in
# GAP_SETUP_S, at least one and at most GAP_SETUP_MAX.
GAP_SETUP_S = 0.6
GAP_SETUP_MAX = 8
# Calibration time that normalized times are scaled to, ms: about what the
# kernel takes on the 2.1 GHz Xeon this was written on in a calm phase.
CAL_REF_MS = 1.4
# Runs per set of the self-check.
RUNS = 10
# A hung process must not hold a run past its 180 s limit.
RUN_TIMEOUT_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Builds the benchmark binary and returns its path (None on failure)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"hostbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log("hostbench: build failed")
        return None
    return os.path.join(target_dir(), "release", "pasta-hostbench")


def run_bin(binary, args):
    """Runs the binary; returns its JSON result or raises RuntimeError."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise RuntimeError(f"{args}: timed out") from e
    if done.returncode != 0:
        raise RuntimeError(f"{args}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{args}: no output")
    return json.loads(lines[-1])


def norm_setup_s(res):
    """A process's set-up time, scaled to the reference host speed."""
    return res["setup_s"] * CAL_REF_MS / res["setup_cal_ms"]


def setup_samples(binary, base):
    """Normalized set-up times of fresh set-up-only processes."""
    samples = []
    start = time.monotonic()
    while not samples or (len(samples) < GAP_SETUP_MAX
                          and time.monotonic() - start < GAP_SETUP_S):
        samples.append(norm_setup_s(run_bin(binary, base + ["--setup-only"])))
    return samples


def measure(binary, bench, baseline, workload, seed, seconds, trace):
    """One benchmark run: the result object the last output line carries."""
    base = ["--workload", workload, "--seed", str(seed)]
    chunks = 1 if trace else CHUNKS
    args = base + ["--seconds", str(seconds / chunks), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(target_dir(), "hostbench")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans", os.path.join(spans_dir, f"spans-{workload}-{seed}.jsonl")]
    recorded = baseline["workloads"][workload]["deterministic"]
    expected = recorded.get(str(seed), recorded.get("any"))
    if expected is None:
        log(f"hostbench: {workload}: no counts recorded for seed {seed}; "
            "checking only that its processes repeat each other's counts")

    attempted = failed = 0
    iter_events = 0.0
    setups, medians, rss = [], [], []
    timed = 0
    for _ in range(chunks):
        if not trace:
            setups += setup_samples(binary, base)
        res = run_bin(binary, args)
        setups.append(norm_setup_s(res))
        attempted += res["attempted"]
        failed += res["failed"]
        # Events per passing iteration: a deterministic count, the same
        # in every process of the run.
        iter_events = res["iter_events"]
        norm_ms = [w * CAL_REF_MS / c for w, c in zip(res["wall_ms"], res["cal_ms"])]
        timed += len(norm_ms)
        if norm_ms:
            medians.append(statistics.median(norm_ms))
        rss.append(res["peak_rss_mb"])
        for e in res["errors"]:
            log(f"hostbench: {workload}: {e}")
        # The counts of every process must repeat the recorded ones (or,
        # for a seed without any, those of the first process); a process
        # whose counts differ failed in every iteration.
        if expected is None:
            expected = res["counts"]
        elif res["counts"] != expected:
            log(f"hostbench: {workload}: counts {res['counts']} differ from {expected}")
            failed += res["attempted"]
    log(f"hostbench: {workload} seed {seed}: {timed} timed iterations in "
        f"{chunks} processes, {len(setups)} set-ups, counts {expected}; per process: "
        f"median ms {[round(m, 3) for m in medians]}, peak RSS MiB {rss}")

    if trace:
        # A layer the workload does not exercise reads 0.
        measured = {m["name"]: res["layers"].get(m["name"], 0) for m in bench["per_layer"]}
        section = bench["per_layer"]
    else:
        # A process runs in one of a few speed modes (on moe-ep256 about
        # 8% apart, with its allocator's arenas), so the mean of the
        # processes' medians moves smoothly with the share of each mode
        # where the pooled median would jump between them.
        wall_ms_p50 = statistics.mean(medians)
        measured = {
            "norm_wall_ms_p50": wall_ms_p50,
            "norm_events_per_s": iter_events / (wall_ms_p50 / 1e3),
            "setup_s": statistics.median(setups),
            # Per process, VmHWM varies by about 10% with how the
            # allocator's per-thread arenas fill; the mean over the
            # processes is steadier than their largest or median.
            "peak_rss_mb": statistics.mean(rss),
        }
        section = bench["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"]), "unit": m["unit"]} for m in section}
    correct = failed == 0 and all(v["value"] is not None for v in metrics.values())
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def self_check(binary, bench, baseline, seconds):
    """Two sets of runs of the same build; True when they agree."""
    ok = True
    report = {}
    for w in (w["name"] for w in bench["workloads"]):
        sets = []
        for label in ("A", "B"):
            results = []
            for seed in range(1, RUNS + 1):
                r = measure(binary, bench, baseline, w, seed, seconds, False)
                log(f"self-check {w} set {label} seed {seed}: "
                    + ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()))
                ok &= r["correct"]
                results.append(r)
            sets.append(results)
        report[w] = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = ([r["metrics"][name]["value"] for r in s] for s in sets)
            ma, mb = statistics.median(a), statistics.median(b)
            gap = (mb - ma) / ma
            sa, sb = quartile_spread(a), quartile_spread(b)
            passed = sa <= bound and sb <= bound and abs(gap) <= bound
            ok &= passed
            report[w][name] = {
                "median_a": ma, "median_b": mb, "spread_a": sa, "spread_b": sb,
                "bound": bound, "b_minus_a": gap,
                "steady": max(sa, sb) < bound / 3, "pass": passed,
            }
            print(f"{w:16} {name:13} med {ma:12.5g} {mb:12.5g}  spread {sa:6.3f} {sb:6.3f}"
                  f"  B-A {gap:+.3f}  bound {bound}  {'ok' if passed else 'FAIL'}"
                  f"{'' if max(sa, sb) < bound / 3 else ' (spread above bound/3)'}")
    print(json.dumps({"self_check_pass": ok, "runs": RUNS, "seconds": seconds,
                      "nproc": os.cpu_count(), "workloads": report}))
    return ok


def main():
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0x5EED_CAFE)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()

    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        baseline = load_json(os.path.join(HERE, "baseline.json"))
    except (OSError, ValueError) as e:
        log(f"hostbench: {e}")
        return 2
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    binary = build()
    if binary is None:
        return 2
    try:
        if args.self_check:
            return 0 if self_check(binary, bench, baseline, seconds) else 1
        if args.workload not in names:
            log(f"hostbench: --workload must be one of {names}")
            return 2
        seed = args.seed % (1 << 64)
        print(json.dumps(measure(binary, bench, baseline, args.workload, seed, seconds,
                                 args.trace == 1)))
    except (RuntimeError, KeyError, ValueError) as e:
        log(f"hostbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
