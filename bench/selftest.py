"""Self-test of the benchmark: every workload at reduced size.

    python3 bench/selftest.py

For each workload of BENCHMARK.json it runs `run.py --small` with tracing
off and on.  It checks that the result line has exactly the keys correct,
attempted, failed and metrics, that its metric names and units are exactly
those of BENCHMARK.json, that every end-to-end value is a positive number,
and that the outputs were correct.
It also checks two facts the per-layer metrics must show, that the speed
sampler notices a second thread (so such runs are not rescaled), and that
the command fails without printing a result when the sigmaforge sources are
absent.  Exits 0 when all checks pass.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root, workload, trace):
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def check_result(proc, wanted, positive):
    """Problems with one run's exit code and last stdout line."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"outputs not correct: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        problems.append(f"metrics {got} != BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r} is not a finite number")
        elif positive and value <= 0:
            problems.append(f"{name} = {value!r} is not positive")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    layers = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, name, trace)
            problems = check_result(proc, wanted, positive=trace == 0)
            print(f"{name} --trace {trace}: {'ok' if not problems else 'FAILED'}")
            failures += [f"{name} --trace {trace}: {p}" for p in problems]
            if trace and not problems:
                metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
                layers[name] = {k: m["value"] for k, m in metrics.items()}

    for name in ("exhaustive-main", "completeness"):
        if layers.get(name, {}).get("groups.quotient.calls", 0) != 0:
            failures.append(f"{name}: groups.quotient.calls is not 0")
    if layers.get("completeness", {}).get("verify.evaluations_per_instance") != 1.0:
        failures.append("completeness: verify.evaluations_per_instance is not 1.0")

    speed_sampler = sampler.Sampler()
    speed_sampler.start()
    second = threading.Thread(target=time.sleep, args=(0.2,))
    second.start()
    second.join()
    speed_sampler.stop()
    if speed_sampler.max_threads < 2:
        failures.append("the sampler did not notice a second thread")

    (HERE / "traces").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "traces") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(
                "traces", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        last = proc.stdout.strip().splitlines()[-1:]
        if proc.returncode == 0 or (last and last[0].startswith("{")):
            failures.append("run without sources did not fail cleanly")
        print(f"without sources: exit code {proc.returncode}")

    for f in failures:
        print(f"FAILED: {f}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
