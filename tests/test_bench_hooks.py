"""The layer names `bench/spans.py` wraps for `bench/run.py --trace 1`.

The tracer replaces functions, methods and classmethods by name, so a
refactor that moves one of them can silently leave its layer at zero calls.
It monkeypatches the package for good, so each check runs in a subprocess.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PREAMBLE = """
import math
import sys
sys.dont_write_bytecode = True
sys.path[:0] = [{src!r}, {bench!r}]
import spans
from sigmaforge import cli, make_group, verify
{setup}
tracer = spans.Tracer()
tracer.install()
"""

LAYERS = """
verify.exhaustive_theorem(make_group([4]), "main")
cli.main(["sigma", "--group", "Z6", "--set", "0;3"])
m = tracer.layer_metrics(1.0)
for name in ("groups.Subgroup", "setcalc.stabilizer", "setcalc.literal"):
    assert m[name + ".calls"] > 0, name
assert m["setcalc.from_indices.self_s"] > 0
"""

# the facts `bench/selftest.py` requires of the completeness workload
COMPLETENESS = """
verify.olson_check(7)
verify.vu_check(67)
m = tracer.layer_metrics(1.0)
assert m["verify.instances"] == 22 + 1, m
assert m["verify.evaluations_per_instance"] == 1.0, m
assert m["setcalc.subset_sums.full_ratio"] == 1.0, m
assert m["groups.quotient.calls"] == 0, m
verify.olson_check(11)  # sizes 6..10 of 10 members: every set by its dropped ones
m = tracer.layer_metrics(1.0)
assert m["verify.instances"] == 23 + sum(math.comb(10, k) for k in range(6, 11)), m
assert m["verify.evaluations_per_instance"] == 1.0, m
"""

# sampled Vu stays on `_verify`
SAMPLED_VU = """
verify.vu_check(293, sample=10, seed=7)
m = tracer.layer_metrics(1.0)
assert m["verify.instances"] == 10, m
assert m["verify.evaluations_per_instance"] == 1.0, m
assert m["groups.quotient.calls"] == 0, m
"""

# the Z2^k sequence call's rotations sit in these layers' self times
SEQUENCE = """
verify.random_sequence_theorem(make_group([2] * 6), 10, 20, seed=1)
m = tracer.layer_metrics(1.0)
assert m["verify.instances"] == 20, m
assert m["setcalc.subsequence_sums.self_s"] > 0, m
assert m["setcalc.stabilizer.calls"] > 0, m
assert m["setcalc.stabilizer.self_s"] > 0, m
"""


# `verify olson` through the CLI, whose parser is built before the tracer
# rebinds the verifiers: a theorem-table row that held the function object
# would call the untraced one and count no instances
CLI_VERIFY = """
assert cli.main(["verify", "olson", "--p", "7", "--json"]) == 0
m = tracer.layer_metrics(1.0)
assert m["verify.instances"] == 22, m
assert m["verify.evaluations_per_instance"] == 1.0, m
assert m["cli.calls"] == 1, m
"""


def run_traced(body, setup=""):
    script = PREAMBLE.format(
        src=str(ROOT / "src"), bench=str(ROOT / "bench"), setup=setup
    ) + body
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_layers_are_reached():
    run_traced(LAYERS)


def test_completeness_runs_one_subset_sums_per_instance():
    run_traced(COMPLETENESS)


def test_sampled_vu_runs_one_subset_sums_per_instance():
    run_traced(SAMPLED_VU)


def test_sequence_rotations_are_traced():
    run_traced(SEQUENCE)


def test_cli_verify_reaches_the_traced_verifier():
    run_traced(CLI_VERIFY, setup="cli.build_parser()")
