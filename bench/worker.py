"""One fresh benchmark process: set up a workload, run it once, check it.

Run by `run.py` with `src/` on PYTHONPATH.  Times are taken with
`time.monotonic`, which is one clock for all processes of the machine, and
converted to reference seconds by `sampler.Sampler` while the program runs
on one CPU.  Prints one JSON line:

    ready          time at which set-up ended
    setup_handler  seconds spent sampling during set-up
    setup_speed    mean sampled speed during set-up (1.0 when set-up ran
                   more than one thread: then it is in plain seconds)
    rescaled       whether the timed calls ran on one CPU, so that wall_s
                   and latencies are in reference seconds; when false (the
                   program ran a second thread or a child process) they are
                   plain seconds, see sampler.py
    wall_s         first timed call to the end of the last
    raw_wall_s     the same in plain seconds
    latencies      seconds per call, in call order
    raw_latencies  the same in plain seconds
    instances      instances (batch) or queries (interactive) covered
    attempted      calls made; failed: calls that raised or failed a check
    problems       up to 20 descriptions of failures
    rss_mb         ru_maxrss of this process at the end of the timed calls
    canonical      whether the outputs must match the committed digest
    digest         sha256 of the canonical outputs joined by newlines
    layers         per-layer metrics (with --trace-out)

With `--setup-only` it stops after set-up and prints only the set-up keys.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import sampler

HERE = Path(__file__).resolve().parent


def main() -> int:
    speed_sampler = sampler.Sampler()
    speed_sampler.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import workloads
    import sigmaforge

    src = (HERE.parent / "src").resolve()
    if src not in Path(sigmaforge.__file__).resolve().parents:
        raise SystemExit(f"sigmaforge imported from {sigmaforge.__file__}, not {src}")
    calls = workloads.build(args.workload, args.seed, args.small)
    ready = time.monotonic()
    speed_sampler.sample_now()
    setup = {
        "ready": ready,
        "setup_handler": speed_sampler.handler_s(0, ready),
        "setup_speed": speed_sampler.speed(0, ready + sampler.PAD_S)
        if speed_sampler.max_threads == 1 else 1.0,
    }
    if args.setup_only:
        speed_sampler.stop()
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    def children_cpu_s():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    speed_sampler.max_threads = sampler.thread_count()
    children_before = children_cpu_s()
    outputs, timed = [], []
    clock = time.monotonic
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.current_request = i
        t0 = clock()
        try:
            out = (True, call.run())
        except Exception:
            out = (False, traceback.format_exc())
        timed.append((t0, clock()))
        outputs.append(out)
    speed_sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first, last = timed[0][0], timed[-1][1]
    rescaled = (max(speed_sampler.max_threads, sampler.thread_count()) == 1
                and children_cpu_s() == children_before)
    if rescaled:
        seconds, speed = speed_sampler.reference_s, speed_sampler.speed(first, last)
    else:
        seconds, speed = (lambda t0, t1: t1 - t0), 1.0

    problems, failed = [], 0
    for call, (ok, out) in zip(calls, outputs):
        if not ok:
            found = [f"{call.label} raised:\n{out}"]
        else:
            try:
                found = call.check(out)
            except (ValueError, KeyError, TypeError, AttributeError):  # malformed output
                found = [f"{call.label}: output not as expected:\n{traceback.format_exc()}"]
        if found:
            failed += 1
            problems += found
    instances = sum(c.instances for c, (ok, _) in zip(calls, outputs) if ok)
    digest = hashlib.sha256()
    for i, (_, out) in enumerate(outputs):
        digest.update((f"\n{out}" if i else out).encode())

    result = dict(
        setup,
        rescaled=rescaled,
        wall_s=seconds(first, last),
        raw_wall_s=last - first,
        latencies=[seconds(t0, t1) for t0, t1 in timed],
        raw_latencies=[t1 - t0 for t0, t1 in timed],
        instances=instances,
        attempted=len(calls),
        failed=failed,
        problems=problems[:20],
        rss_mb=rss_mb,
        canonical=not args.small
        and (args.seed == workloads.DEFAULT_SEED or not workloads.seeded(args.workload)),
        digest=digest.hexdigest(),
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(speed)
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
