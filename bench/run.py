"""sigmaforge benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload exhaustive-main --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh single-threaded process (`worker.py`) that
imports sigmaforge from `src/` of this checkout.  With `--trace 0` the
command reports the end-to-end metrics of BENCHMARK.json: it sets up
several fresh processes, then repeats the workload in fresh processes
until `--seconds` have passed, and reports medians.  With `--trace 1` it
runs the workload once untraced and once traced, whatever `--seconds`
says, and reports the per-layer metrics of BENCHMARK.json; the spans go to
`bench/traces/`.  Times are in reference seconds while the program runs on
one CPU, and in plain seconds otherwise (see sampler.py).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every output
was correct, 1 when one was not, and 2 when nothing could be measured.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUPS = 5  # set-up-only processes per run, besides one per repetition
TIME_LIMIT_S = 170  # stop waiting for workers before a run reaches 180 s


class BenchError(Exception):
    """The benchmark could not run at all."""


def spawn(args, deadline, *extra):
    """Start a worker, wait for it, return (spawn time, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), *(["--small"] if args.small else []), *extra]
    t = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(extra)} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return t, json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def environment(args):
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload}


def setup_seconds(spawned, res):
    """Spawn to end of set-up, in reference seconds."""
    return (res["ready"] - spawned - res["setup_handler"]) * res["setup_speed"]


def end_to_end(args, deadline, start):
    spawn(args, deadline, "--setup-only")  # warm the bytecode and file caches
    setups = [setup_seconds(*spawn(args, deadline, "--setup-only")) for _ in range(SETUPS)]
    reps = []
    while True:
        t, res = spawn(args, deadline)
        setups.append(setup_seconds(t, res))
        reps.append(res)
        now = time.monotonic()
        if now - start >= args.seconds or now + (now - t) > deadline:
            break
    latencies_ms = [x * 1000 for r in reps for x in r["latencies"]]
    raw_ms = [x * 1000 for r in reps for x in r["raw_latencies"]]
    plain = sum(not r["rescaled"] for r in reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "instances_per_s": statistics.median(r["instances"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "query_p50_ms": percentile(latencies_ms, 50),
        "query_p99_ms": percentile(latencies_ms, 99),
    }
    unit = (f"plain seconds in {plain} repetitions, where the program used more "
            "than one CPU" if plain else "reference seconds")
    diagnostic = {"wall_s": statistics.median(r["raw_wall_s"] for r in reps),
                  "query_p50_ms": percentile(raw_ms, 50),
                  "query_p99_ms": percentile(raw_ms, 99)}
    notes = [f"{len(reps)} repetitions, {len(setups)} set-ups, "
             f"{len(latencies_ms)} calls timed; times in {unit}",
             "plain seconds, not rescaled: " + json.dumps(diagnostic)]
    return reps, metrics, notes


def traced(args, deadline):
    _, plain = spawn(args, deadline)
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}.csv.gz"
    _, res = spawn(args, deadline, "--trace-out", str(path))
    metrics = dict(res["layers"])
    metrics["trace.overhead_ratio"] = res["wall_s"] / plain["wall_s"]
    return [plain, res], metrics, [f"spans written to {path.relative_to(ROOT)}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs, for the self-test; no digest check")
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S

    try:
        if not (ROOT / "src" / "sigmaforge" / "__init__.py").is_file():
            raise BenchError(f"no sigmaforge sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            reps, values, notes = traced(args, deadline)
        else:
            reps, values, notes = end_to_end(args, deadline, start)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    committed = json.loads((HERE / "digests.json").read_text()).get(args.workload)
    for r in reps:
        if r["canonical"] and r["digest"] != committed:
            problems.append(f"output digest {r['digest']} != committed {committed}")
            failed += 1

    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for p in problems[:20]:
        print(f"FAILED: {p}")
    print(f"{'failed_ratio':<36} {failed / attempted:>14.6g} ratio ({failed} of {attempted} calls)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
