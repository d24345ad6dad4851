"""The benchmark's workloads: inputs built from a seed, the timed calls, and
the checks on their outputs.

Every workload is a list of `Call`s.  `run()` is the timed part and returns
the canonical text the program produced; `check(text)` runs after timing and
returns a list of problems (empty when the output is correct).  Only the
public API is used, with default arguments, so `workers` stays at its
default.  Expected values are worked out here from first principles (binomial
counts, theorem verdicts), never by calling the program under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import sigmaforge as sf
from sigmaforge import cli

DEFAULT_SEED = 1  # the seed whose outputs digests.json pins


@dataclass
class Call:
    label: str
    run: Callable[[], str]
    check: Callable[[str], list]
    instances: int  # instances (batch) or queries (interactive) it covers


def build(name: str, seed: int, small: bool) -> list:
    """Inputs of workload `name`; `small` shrinks it for the self-test."""
    if name == "exhaustive-main":
        return _exhaustive_main(small)
    if name == "completeness":
        return _completeness(small)
    if name == "random-large":
        return _random_large(seed, small)
    if name == "interactive":
        return _interactive(seed, small)
    raise ValueError(f"unknown workload {name!r}")


def seeded(name: str) -> bool:
    """Whether the workload's inputs depend on the seed."""
    return name in ("random-large", "interactive")


# -- batch workloads ---------------------------------------------------------


def _verifier_call(label, invoke, theorem, mode, instances, seed=None):
    def run():
        return invoke().to_json()

    def check(text):
        out = json.loads(text)
        problems = []
        want = {"theorem": theorem, "mode": mode, "verdict": "verified"}
        if seed is not None:
            want["seed"] = seed
        for key, value in want.items():
            if out.get(key) != value:
                problems.append(f"{label}: {key} = {out.get(key)!r}, want {value!r}")
        if out["counterexamples"]:
            problems.append(f"{label}: {len(out['counterexamples'])} counterexamples")
        if out["stats"].get("instances") != instances:
            problems.append(
                f"{label}: instances = {out['stats'].get('instances')}, want {instances}"
            )
        return problems

    return Call(label, run, check, instances)


def _exhaustive_main(small):
    # order-16 groups with 1, 2 and 4 rotation levels; order 8 when small
    specs = ("Z8", "Z2xZ4", "Z2xZ2xZ2") if small else ("Z16", "Z4xZ4", "Z2xZ2xZ2xZ2")
    calls = []
    for spec in specs:
        group = sf.parse_group(spec)
        calls.append(
            _verifier_call(
                f"main {spec}",
                lambda g=group: sf.exhaustive_theorem(g, "main"),
                "main",
                "exhaustive",
                1 << group.order,
            )
        )
    return calls


def _completeness(small):
    p, n = (13, 67) if small else (19, 73)
    t_olson = math.isqrt(4 * p - 7)
    olson_count = sum(math.comb(p - 1, k) for k in range(t_olson, p))
    phi = sum(1 for a in range(1, n) if math.gcd(a, n) == 1)
    t_vu = math.isqrt(64 * n - 1) + 1  # least t with t*t >= 64n
    vu_count = sum(math.comb(phi, k) for k in range(t_vu, phi + 1))
    return [
        _verifier_call(
            f"olson p={p}", lambda: sf.olson_check(p), "olson", "exhaustive", olson_count
        ),
        _verifier_call(
            f"vu n={n}", lambda: sf.vu_check(n), "vu", "exhaustive", vu_count
        ),
    ]


def _random_large(seed, small):
    trials = 10 if small else 200
    rng = random.Random(seed)
    seeds = [rng.randrange(1 << 32) for _ in range(3)]
    z4096 = sf.make_group([4096])
    z2_12 = sf.make_group([2] * 12)
    kneser_groups = [
        sf.make_group([1024]),
        sf.make_group([32, 32]),
        sf.make_group([2] * 10),
        sf.make_group([4096]),
    ]
    return [
        _verifier_call(
            "sequence Z4096",
            lambda: sf.random_sequence_theorem(z4096, 40, trials, seeds[0]),
            "sequence",
            "random",
            trials,
            seeds[0],
        ),
        _verifier_call(
            "sequence Z2^12",
            lambda: sf.random_sequence_theorem(z2_12, 20, trials, seeds[1]),
            "sequence",
            "random",
            trials,
            seeds[1],
        ),
        _verifier_call(
            "kneser mixed",
            lambda: sf.random_kneser(kneser_groups, 3, trials, seeds[2]),
            "kneser",
            "random",
            trials,
            seeds[2],
        ),
    ]


# -- interactive: CLI queries from one closed-loop client --------------------

# non-cyclic groups of order 1024..4096, as invariant factors
_PRODUCT_GROUPS = ((2,) * 10, (32, 32), (4, 8, 64), (2,) * 12, (64, 64))

# The query kinds, in equal shares.  No record of real CLI use exists, so the
# shares and the sizes below are assumptions, not measured traffic.
_KINDS = (
    "sigma-set",
    "sigma-seq",
    "bound-main",
    "bound-sequence",
    "bound-kneser",
    "construct-exact",
    "construct-greedy",
    "search",
)
# Sets and sequences have 1..MAX_TERMS terms: the n_max of the random
# sequence check on Z4096 in `random-large`.  Kneser queries take 1..M_MAX
# sets, its m_max.  `construct --exact` enumerates all half-size subsets, so
# its sets stay small and even-sized; `search --exhaustive` runs on Z13..Z23
# with k = 1..3.
MAX_TERMS = 40
M_MAX = 3
_EXACT_SIZES = (2, 4, 6, 8, 10, 12)


def _group(rng, j):
    """Every other query of a kind runs on a cyclic group of random order."""
    if j % 2 == 0:
        return (rng.randint(1000, 4096),)
    return _PRODUCT_GROUPS[(j // 2) % len(_PRODUCT_GROUPS)]


def _spec(factors):
    return "x".join(f"Z{n}" for n in factors)


def _elem(rng, factors):
    return tuple(rng.randrange(n) for n in factors)


def _distinct(rng, factors, k):
    out = set()
    while len(out) < k:
        out.add(_elem(rng, factors))
    return sorted(out)


def _lit(coords):
    return ",".join(str(c) for c in coords)


def _set_lit(elems):
    return ";".join(_lit(e) for e in elems)


def _seq_terms(rng, factors, length):
    """`length` uniform elements, repeats allowed, as (element, multiplicity)."""
    counts = {}
    for _ in range(length):
        e = _elem(rng, factors)
        counts[e] = counts.get(e, 0) + 1
    return sorted(counts.items())


def _seq_lit(terms):
    return ";".join(f"{_lit(e)}:{m}" for e, m in terms)


def _query(rng, kind, j):
    """The j-th query of `kind`: (argv, expected facts for the output check).

    Sizes depend on j only, so every seed asks for about the same amount of
    work; the seed picks the elements, the cyclic group orders and the order
    of the queries.
    """
    if kind == "search":
        n = 13 + j % 11
        k = 1 + (j // 11) % 3
        argv = ["search", "--group", f"Z{n}", "--k", str(k), "--exhaustive", "--json"]
        return argv, (kind, n, k)
    factors = _group(rng, j)
    order = math.prod(factors)
    group = ["--group", _spec(factors)]
    size = 1 + j % MAX_TERMS
    if kind == "sigma-set":
        elems = _distinct(rng, factors, size)
        return ["sigma", *group, "--set", _set_lit(elems), "--json"], (kind, order, elems)
    if kind == "sigma-seq":
        terms = _seq_terms(rng, factors, size)
        return ["sigma", *group, "--seq", _seq_lit(terms), "--json"], (
            kind, order, [e for e, _ in terms])
    if kind == "bound-main":
        elems = _distinct(rng, factors, size)
        argv = ["bound", "--which", "main", *group, "--set", _set_lit(elems), "--json"]
        return argv, (kind, order, elems)
    if kind == "bound-sequence":
        terms = _seq_terms(rng, factors, size)
        argv = ["bound", "--which", "sequence", *group, "--seq", _seq_lit(terms), "--json"]
        return argv, (kind, order, size)
    if kind == "bound-kneser":
        argv = ["bound", "--which", "kneser", *group]
        m = 1 + j % M_MAX
        for k in range(m):
            argv += ["--set", _set_lit(_distinct(rng, factors, 1 + (j + 13 * k) % MAX_TERMS))]
        return argv + ["--json"], (kind, order, m)
    if kind == "construct-exact":
        elems = _distinct(rng, factors, _EXACT_SIZES[j % len(_EXACT_SIZES)])
        argv = ["construct", *group, "--set", _set_lit(elems), "--exact", "--json"]
        return argv, (kind, order, elems)
    if kind == "construct-greedy":
        elems = _distinct(rng, factors, size)
        u = 1 + (7 * j) % len(elems)
        argv = ["construct", *group, "--set", _set_lit(elems), "--greedy",
                "--u", str(u), "--json"]
        return argv, (kind, order, elems, u)
    raise ValueError(f"unknown query kind {kind!r}")


def _check_query(out, facts):
    """Problems in one query's JSON output, given what the query asked."""
    kind, order = facts[0], facts[1]
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    if kind.startswith("sigma"):
        sigma = set(out["sigma"].split(";"))
        need(out["sigma_size"] == len(sigma), "sigma_size differs from |sigma|")
        need(all(_lit(e) in sigma for e in facts[2]), "a term is missing from Sigma")
        need(_lit((0,) * out["group"].count("Z")) in sigma, "0 is missing from Sigma")
        h = out["stabilizer_size"]
        need(order % h == 0 and sigma and len(sigma) % h == 0, "bad stabilizer size")
    elif kind.startswith("bound"):
        need(out["holds"] is True, "inequality reported as violated")
        need(out["name"] == kind.split("-")[1], "wrong bound name")
        ctx = out["context"]
        if kind == "bound-main":
            need(out["lhs"] == 64 * (ctx["sigma_size"] - ctx["stab_size"]), "bad lhs")
            need(out["rhs"] == ctx["outside"] ** 2, "bad rhs")
        elif kind == "bound-sequence":
            need(ctx["length"] == facts[2], "wrong sequence length")
        else:
            need(ctx["m"] == facts[2] and out["lhs"] == ctx["sum_size"], "bad sumset")
    elif kind == "construct-exact":
        subset = out["subset"].split(";")
        half = len(facts[2]) // 2
        need(len(subset) == half, "subset is not half-size")
        need(set(subset) <= {_lit(e) for e in facts[2]}, "subset leaves A")
        need(1 <= out["sigma_size"] <= min(order, 1 << half), "sigma_size out of range")
    elif kind == "construct-greedy":
        sizes = [s["sigma_size"] for s in out["trace"]]
        need(len(sizes) == facts[3], "wrong number of greedy steps")
        need(sizes == sorted(sizes), "greedy |Sigma| decreased")
        need(set(out["subset"].split(";")) <= {_lit(e) for e in facts[2]}, "subset leaves A")
    else:
        k = facts[2]
        need(out["feasible"] is True and out["k"] == k, "search found no set")
        need(len(out["best_set"].split(";")) == k, "best set has the wrong size")
        need(out["sigma_size"] <= min(order, 1 << k), "sigma_size out of range")
    return problems


def _cli_call(i, argv, facts):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return f"{code}\n{buf.getvalue()}"

    def check(text):
        code, _, stdout = text.partition("\n")
        if code != "0":
            return [f"query {i}: exit code {code}, want 0"]
        return [f"query {i}: {p}" for p in _check_query(json.loads(stdout), facts)]

    return Call(f"query {i}", run, check, 1)


def _interactive(seed, small):
    rng = random.Random(seed)
    count = 48 if small else 1000
    slots = [(kind, j) for kind in _KINDS for j in range(count // len(_KINDS))]
    rng.shuffle(slots)
    return [_cli_call(i, *_query(rng, kind, j)) for i, (kind, j) in enumerate(slots)]
