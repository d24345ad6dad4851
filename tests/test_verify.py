import math
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sigmaforge import (
    BoundReport,
    CapacityError,
    GroupSet,
    SequenceMS,
    bounds,
    exhaustive_theorem,
    extremal_search,
    interval_example,
    make_group,
    olson_check,
    olson_witness,
    parse_group,
    random_kneser,
    random_sequence_theorem,
    stabilizer,
    subset_sums,
    verify,
    vu_check,
)
from sigmaforge import groups
from sigmaforge.setcalc import subset_walk
from sigmaforge.verify import (
    _kneser_text, _lex_lt, _precedes, _sample, _subset_masks, _text_lt, _verify, vu_threshold,
)
import conftest
from conftest import (
    CountedWalk,
    completeness_loop,
    count_calls,
    exhaustive_loop,
    hillclimb_loop,
    kneser_loop,
    kneser_pairs_loop,
    naive_sigma,
    search_loop,
    sequence_loop,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_exhaustive_trivial_group():
    run = exhaustive_theorem(make_group([1]), "main")
    assert run.verdict == "verified"
    assert run.stats["instances"] == 2


def test_exhaustive_main_z12():
    run = exhaustive_theorem(make_group([12]), "main")
    assert run.verdict == "verified"
    assert run.stats["instances"] == 4096
    assert run.stats["min_slack"] >= 0


def test_exhaustive_corollary_z2_cubed():
    run = exhaustive_theorem(parse_group("Z2xZ2xZ2"), "corollary")
    assert run.verdict == "verified"
    assert run.stats["instances"] == 256


def test_exhaustive_kneser_pairs():
    run = exhaustive_theorem(make_group([6]), "kneser-pairs")
    assert run.verdict == "verified"
    assert run.stats["instances"] == 63 * 63


@pytest.mark.parametrize("spec", ["Z3", "Z5", "Z6", "Z2xZ2", "Z2xZ3"])
def test_exhaustive_kneser_pairs_matches_loop(spec):
    g = parse_group(spec)
    run = exhaustive_theorem(g, "kneser-pairs")
    assert run.to_json() == kneser_pairs_loop(g).to_json()


def test_kneser_pairs_ties_compare_b_when_a_is_shared(monkeypatch):
    # every pair whose B holds element 1 ties at slack 0: with A = {0},
    # B = {1} comes first in mask order but {0, 1} first by member list
    def fake(pair):
        return BoundReport("fake", int(1 not in pair[1].members()), 0, True)

    for module in (verify, conftest):
        monkeypatch.setattr(module, "kneser_bound", fake)
    assert exhaustive_theorem(make_group([2]), "kneser-pairs").stats["witness"] == "0|0;1"
    g = parse_group("Z2xZ2")
    assert exhaustive_theorem(g, "kneser-pairs").to_json() == kneser_pairs_loop(g).to_json()


def test_exhaustive_capacity():
    run = exhaustive_theorem(parse_group("Z2xZ2xZ2xZ2xZ2"), "main")  # at the cap
    assert run.stats["instances"] == 1 << 32
    with pytest.raises(CapacityError):
        exhaustive_theorem(make_group([33]), "main")
    with pytest.raises(CapacityError):
        exhaustive_theorem(make_group([9]), "kneser-pairs")
    with pytest.raises(ValueError, match="unknown theorem 'nope'"):
        exhaustive_theorem(make_group([4]), "nope")


# The main and corollary bounds with |Sigma(A)| - 1 added to the right side,
# which some subsets of every group fail and the empty set meets.
TIGHTENED = {
    "main_sides": lambda sigma, stab, outside: (
        64 * (sigma - stab), outside * outside + sigma - 1),
    "corollary_sides": lambda sigma, stab, outside: (
        sigma, stab + stab * outside + sigma - 1),
}
# Sides for both theorems that no subset of a group of order <= 16 fails
# (k <= s <= 15, as for `main`), and whose least slack falls on a nonempty
# set: they check the witness the orbit walk picks.  [] and full-Sigma sets
# have slack 16, so the walk settles.
WITNESSING = dict.fromkeys(
    ["main_sides", "corollary_sides"],
    lambda sigma, stab, outside: (sigma - stab + 16, 2 * outside),
)


def patch_sides(monkeypatch, theorem, sides):
    name = f"{theorem}_sides"
    for module in (bounds, verify):
        monkeypatch.setattr(module, name, sides[name])


@pytest.mark.parametrize(
    "spec", ["Z1", "Z5", "Z8", "Z9", "Z12", "Z2xZ4", "Z3xZ3", "Z2xZ6", "Z2xZ2xZ2"]
)
@pytest.mark.parametrize("theorem", ["main", "corollary"])
def test_exhaustive_counterexamples_match_loop(theorem, spec, monkeypatch):
    patch_sides(monkeypatch, theorem, TIGHTENED)
    g = parse_group(spec)
    run = exhaustive_theorem(g, theorem)
    # a full Sigma fails the tightened sides unless |G| = 1, so the walk
    # does not settle and every full-Sigma subset of a larger group fails
    assert (len(run.counterexamples) > 0) == (g.order > 1)
    assert len(run.counterexamples) < run.stats["instances"]
    assert run.to_json() == exhaustive_loop(g, theorem).to_json()


# every abelian group of order <= 12, in invariant factors, and
# presentations that are not, some with factors of 1
ORDER_12_GROUPS = [f"Z{n}" for n in range(1, 13)] + [
    "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ6", "Z2xZ3", "Z2xZ3xZ2",
    "Z1xZ3xZ1xZ3", "Z1x" * 12 + "Z2",
]


@pytest.mark.parametrize("spec", ORDER_12_GROUPS)
@pytest.mark.parametrize(
    "sides",  # the ids say whether the sides are the tightened ones
    [pytest.param(None, id="False"), pytest.param(TIGHTENED, id="True"),
     pytest.param(WITNESSING, id="witness")],
)
@pytest.mark.parametrize("theorem", ["main", "corollary"])
def test_orbit_walk_matches_loop(theorem, sides, spec, monkeypatch):
    # the paper's and the witnessing sides never fail here, so the orbit
    # walk answers alone; the tightened ones fail on some subsets, so the
    # plain walk reruns
    if sides:
        patch_sides(monkeypatch, theorem, sides)
    g = parse_group(spec)
    run = exhaustive_theorem(g, theorem)
    assert bool(run.counterexamples) == (sides is TIGHTENED and g.order > 1)
    assert run.to_json() == exhaustive_loop(g, theorem).to_json()


@pytest.mark.parametrize("spec", ["Z4xZ4", "Z2xZ8", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2"])
def test_orbit_walk_witness_matches_loop_on_order_16(spec, monkeypatch):
    # shears prune these groups the most; the loop takes about 1 s each.
    # Every Sigma in Z2^4 is the span of A, a subgroup, so there every
    # slack is 16 and the witness is []
    patch_sides(monkeypatch, "main", WITNESSING)
    g = parse_group(spec)
    run = exhaustive_theorem(g, "main")
    assert not run.counterexamples
    assert (run.stats["min_slack"] < 16) == (spec != "Z2xZ2xZ2xZ2")
    assert run.to_json() == exhaustive_loop(g, "main").to_json()


def test_exhaustive_walk_settles_full_sigma_subtrees():
    g = make_group([16])
    plain = list(subset_walk(g, range(1, 16)))
    walk = CountedWalk(subset_walk(g, range(1, 16), settle=True))
    assert list(walk) == [(m, s) for m, s in plain if s != g.full_mask]
    assert walk.nodes == 2_968
    # the settled subtrees hold exactly the full-Sigma subsets of G \ {0},
    # each standing for itself and its union with {0}
    settled = sum(s == g.full_mask for _, s in plain)
    assert 2 * (walk.nodes + settled) == 1 << 16


@pytest.mark.parametrize("spec, nodes", [
    ("Z16", 443), ("Z4xZ4", 96), ("Z2xZ2xZ2xZ2", 10),
    ("Z2xZ2xZ2xZ2xZ2", 63), ("Z2xZ2xZ2xZ4", 1_128), ("Z2xZ4xZ4", 4_360),
])
def test_exhaustive_main_walks_one_subset_per_orbit(spec, nodes, monkeypatch):
    walks = []

    def counted(*args, **kwargs):
        walks.append(CountedWalk(subset_walk(*args, **kwargs)))
        return walks[-1]

    monkeypatch.setattr(verify, "subset_walk", counted)
    g = parse_group(spec)
    run = exhaustive_theorem(g, "main")
    [walk] = walks
    assert walk.nodes == nodes
    assert run.stats["instances"] == 1 << g.order


def test_random_kneser_runs_clean():
    groups = [make_group([24]), parse_group("Z4xZ4")]
    run = random_kneser(groups, m_max=4, trials=200, seed=11)
    assert run.verdict == "verified"
    assert run.stats["instances"] == 200


def test_random_sequence_theorem():
    g = parse_group("Z6xZ6")
    run = random_sequence_theorem(g, n_max=10, trials=100, seed=5)
    assert run.verdict == "verified"
    with pytest.raises(ValueError):
        random_sequence_theorem(g, 10, 0, 1)


def test_random_kneser_requires_a_seed():
    with pytest.raises(ValueError, match="seed"):
        random_kneser([make_group([64])], 1, 1, None)


def test_random_kneser_needs_a_group():
    with pytest.raises(ValueError, match="at least one group"):
        random_kneser([], 1, 1, 0)


def test_random_sequence_theorem_requires_a_seed():
    with pytest.raises(ValueError, match="seed"):
        random_sequence_theorem(make_group([64]), 1, 1, None)


def test_runs_that_differ_only_in_timing_are_equal():
    a, b = vu_check(10), vu_check(10)
    b.millis = a.millis + 1.0
    assert a == b
    assert a != vu_check(11)
    assert random_kneser([make_group([6])], 2, 5, 1) != random_kneser(
        [make_group([6])], 2, 5, 2)


def fail_every_other(monkeypatch, name):
    """Make `verify.<name>` fail on its 1st, 3rd, ... call; returns the calls."""
    calls = []

    def fake(operand):
        calls.append(operand)
        holds = len(calls) % 2 == 0
        return BoundReport("fake", int(holds), 1, holds, {"call": len(calls)})

    monkeypatch.setattr(verify, name, fake)
    return calls


def failing_reports(calls):
    return [
        BoundReport("fake", 0, 1, False, {"call": i}).to_dict()
        for i in range(1, len(calls) + 1, 2)
    ]


def test_kneser_pairs_counterexample_payloads(monkeypatch):
    calls = fail_every_other(monkeypatch, "kneser_bound")
    run = exhaustive_theorem(make_group([2]), "kneser-pairs")
    assert len(calls) == 9  # pairs of the nonempty sets {0}, {1}, {0, 1}
    assert [sorted(ce) for ce in run.counterexamples] == [["report", "sets"]] * 5
    assert [ce["sets"] for ce in run.counterexamples] == [
        "0|0", "0|0;1", "1|1", "0;1|0", "0;1|0;1",
    ]
    assert [ce["report"] for ce in run.counterexamples] == failing_reports(calls)
    assert run.verdict == "counterexample"


def test_random_kneser_counterexample_payloads(monkeypatch):
    calls = fail_every_other(monkeypatch, "kneser_bound")
    groups = [make_group([5]), parse_group("Z2xZ2")]
    run = random_kneser(groups, m_max=3, trials=9, seed=4)
    assert len(calls) == 9
    failing = calls[::2]
    assert [sorted(ce) for ce in run.counterexamples] == [
        ["group", "report", "sets"]
    ] * len(failing)
    assert [(ce["group"], ce["sets"]) for ce in run.counterexamples] == [
        (sets[0].group.spec(),
         sets[0].group.spec() + ":" + "|".join(s.literal() for s in sets))
        for sets in failing
    ]
    assert [ce["report"] for ce in run.counterexamples] == failing_reports(calls)


def test_random_sequence_theorem_counterexample_payloads(monkeypatch):
    calls = fail_every_other(monkeypatch, "sequence_bound_check")
    run = random_sequence_theorem(parse_group("Z2xZ4"), 4, 9, seed=3)
    assert len(calls) == 9
    assert [sorted(ce) for ce in run.counterexamples] == [["report", "sequence"]] * 5
    assert [ce["sequence"] for ce in run.counterexamples] == [
        a.literal() for a in calls[::2]
    ]
    assert [ce["report"] for ce in run.counterexamples] == failing_reports(calls)


def test_random_verifiers_reject_empty_size_ranges():
    g = make_group([6])
    with pytest.raises(ValueError, match="m_max must be >= 1"):
        random_kneser([g], m_max=0, trials=5, seed=1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        random_sequence_theorem(g, n_max=-1, trials=5, seed=1)
    # the boundary values draw one set, or only empty sequences
    assert random_kneser([g], m_max=1, trials=5, seed=1).verdict == "verified"
    with pytest.raises(ValueError, match="trials must be >= 1"):
        random_kneser([g], m_max=1, trials=0, seed=1)
    run = random_sequence_theorem(g, n_max=0, trials=5, seed=1)
    assert run.verdict == "verified" and run.stats["witness"] == ""


# (name, tag, slack): ties at slack 5 and 1, strict improvements at 3 and 1,
# and ("e", 1) equal by name to the earlier ("e", 0)
TIE_STREAM = [
    ("x", 0, 5), ("m", 0, 5), ("z", 0, 5), ("k", 0, 3), ("q", 0, 4),
    ("e", 0, 1), ("f", 0, 1), ("e", 1, 1), ("a", 0, 2), ("g", 0, 1),
]


def _tie_run(precedes):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return precedes(a, b)

    run = _verify(
        iter(TIE_STREAM), lambda inst: (inst[2], None), lambda inst: f"{inst[0]}{inst[1]}",
        counted, theorem="t", group="g", mode="m",
    )
    return run, calls


def test_verify_calls_precedes_once_per_tie():
    x, m, z, k, q, e, f, e1, a, g = TIE_STREAM
    run, calls = _tie_run(lambda a, b: a[0] < b[0])
    # none for the first instance or a strict improvement, one per tie
    assert calls == [(m, x), (z, m), (f, e), (e1, e), (g, e)]
    # the least by (slack, name), and the first among equals
    least = min(TIE_STREAM, key=lambda inst: (inst[2], inst[0]))
    assert least == e
    assert run.stats == {"instances": 10, "min_slack": 1, "witness": "e0"}

    run, calls = _tie_run(lambda a, b: a[0] > b[0])
    assert calls == [(m, x), (z, x), (f, e), (e1, f), (g, f)]
    assert run.stats["witness"] == "g0"


def _kneser_literal(inst):
    g, sets = inst
    return f"{g.spec()}:" + "|".join(s.literal() for s in sets)


def test_kneser_key_orders_as_literals():
    z16, z24, z4x4 = make_group([16]), make_group([24]), parse_group("Z4xZ4")

    def inst(g, *sets):
        return g, [GroupSet.from_indices(g, s) for s in sets]

    instances = [
        inst(z16, [1, 2]),  # "1;2" > "10" as strings, not as element tuples
        inst(z16, [10]),
        inst(z16, [1]),  # a prefix of the next three
        inst(z16, [1], [2]),
        inst(z16, [1, 2], [3]),
        inst(z24, [1]),  # differs from z16 [1] in the spec only
        inst(z24, [1, 2]),
        inst(z4x4, [1]),  # "1,0"
        inst(z4x4, [4]),  # "0,1"
        inst(z4x4, [1, 2], [5]),
        inst(z4x4, [1], [2, 5]),
    ]
    rng = random.Random(3)
    for _ in range(30):
        g = rng.choice([z16, z24, z4x4])
        instances.append(inst(g, *(
            rng.sample(range(g.order), rng.randint(1, 4))
            for _ in range(rng.randint(1, 3))
        )))
    for a in instances:
        for b in instances:
            lit_a, lit_b = _kneser_literal(a), _kneser_literal(b)
            assert _text_lt(_kneser_text(a), _kneser_text(b)) == (lit_a < lit_b), (lit_a, lit_b)

    z2_3 = parse_group("Z2xZ2xZ2")
    sequences = [
        SequenceMS(z16, {1: 1}),  # "1:1", a prefix of the next two
        SequenceMS(z16, {1: 10}),  # "1:10"
        SequenceMS(z16, {1: 1, 2: 1}),  # "1:1;2:1" > "1:10", as ";" > "0"
        SequenceMS(z16, {10: 1}),  # "10:1" < "1:1", as "0" < ":"
        SequenceMS(z16, {}),  # "", a prefix of every literal
        SequenceMS(z4x4, {1: 1}),  # "1,0:1"
        SequenceMS(z4x4, {4: 1}),  # "0,1:1"
        SequenceMS(z4x4, {1: 2, 4: 1}),
        SequenceMS(z2_3, {1: 1, 2: 3}),
        SequenceMS(z2_3, {1: 1, 6: 1}),
    ]
    for _ in range(30):
        g = rng.choice([z16, z4x4, z2_3])
        terms = [rng.randrange(g.order) for _ in range(rng.randint(0, 12))]
        sequences.append(SequenceMS.from_terms(g, terms))
    pieces = SequenceMS.literal_pieces
    for a in sequences:
        for b in sequences:
            lit_a, lit_b = a.literal(), b.literal()
            assert lit_a == "".join(pieces(a))
            assert _text_lt(pieces(a), pieces(b)) == (lit_a < lit_b), (lit_a, lit_b)


def test_text_lt_ignores_piece_boundaries():
    rng = random.Random(4)

    def pieces(text):
        cuts = sorted(rng.choices(range(len(text) + 1), k=rng.randint(0, 3)))
        return iter([text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])])

    words = ["", "1", "10", "1;2", "1|2", "1,0", "1;20", "Z16:1", "Z16:10"]
    for a in words:
        for b in words:
            for _ in range(5):
                assert _text_lt(pieces(a), pieces(b)) == (a < b), (a, b)


def test_random_kneser_matches_literal_key_loop():
    # Z24 and Z2^7 draw sets of both `_sample` branches; the rest, pools only
    groups = [
        make_group([6]), parse_group("Z2xZ2"), make_group([8]), parse_group("Z3xZ3"),
        make_group([24]), make_group([2] * 7),
    ]
    for seed in range(30):
        run = random_kneser(groups, m_max=3, trials=30, seed=seed)
        assert run.to_json() == kneser_loop(groups, 3, 30, seed).to_json(), seed


@pytest.mark.parametrize("as_list", [False, True], ids=["range", "list"])
@given(
    nk=st.integers(0, 5000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    seed=st.integers(0, 2**32),
)
@example(nk=(21, 5), seed=0)  # pool: n = setsize without the k > 5 term
@example(nk=(22, 5), seed=0)  # set
@example(nk=(85, 6), seed=0)  # pool: n = 21 + 4^ceil(log4(18))
@example(nk=(86, 6), seed=0)  # set
@example(nk=(1, 1), seed=0)
@example(nk=(7, 0), seed=0)
@example(nk=(0, 0), seed=0)  # no flags at all: int(b"", 2) would raise
@example(nk=(4096, 4096), seed=0)  # k = n: every element drawn
def test_sample_matches_random_sample(as_list, nk, seed):
    """`_sample` is the bitmap of the set `Random.sample` draws.

    With `as_list`, the bitmap's positions index a list population, as
    sampled `vu_check` reads them; the drawn members are those of
    `Random.sample` on that list.
    """
    n, k = nk
    ours, theirs = random.Random(seed), random.Random(seed)
    mask = _sample(ours, n, k)
    if as_list:
        population = list(range(0, 3 * n, 3))
        drawn = set(theirs.sample(population, k))
        assert {population[i] for i in range(n) if mask >> i & 1} == drawn
    else:
        assert mask == sum(1 << x for x in set(theirs.sample(range(n), k)))
    assert ours.getstate() == theirs.getstate()


def test_sample_rejects_sizes_outside_the_population():
    # unchecked, k > n would redraw forever once the pool is empty
    for k in (-1, 4, 100):
        with pytest.raises(ValueError, match="Sample larger"):
            _sample(random.Random(0), 3, k)


def test_random_sequence_theorem_matches_literal_key_loop():
    # on Z2^3 and Z2^4 every slack ties at 0 (Sigma is a subgroup, so
    # Sigma = H), so the lazy key alone picks the witness
    for spec in ("Z2xZ2xZ2", "Z2xZ2xZ2xZ2", "Z12", "Z6xZ6"):
        g = parse_group(spec)
        for seed in range(30):
            run = random_sequence_theorem(g, 8, 25, seed=seed)
            assert run.to_json() == sequence_loop(g, 8, 25, seed).to_json(), (spec, seed)
    # the bench's groups and lengths, where the terms skip the constructor
    for spec, n_max in (("x".join(["Z2"] * 12), 20), ("Z4096", 40)):
        g = parse_group(spec)
        for seed in range(3):
            run = random_sequence_theorem(g, n_max, 8, seed=seed)
            assert run.to_json() == sequence_loop(g, n_max, 8, seed).to_json(), (spec, seed)


def test_random_sequence_theorem_checks_no_drawn_term(monkeypatch):
    # the drawn terms are in-range ints by construction, so no term goes
    # through the `SequenceMS` constructor's `_index_of`
    calls = count_calls(monkeypatch, groups._index_of)
    run = random_sequence_theorem(make_group([2] * 6), 12, 20, seed=3)
    assert run.stats["instances"] == 20
    assert calls == {"_index_of": 0}
    SequenceMS.from_terms(make_group([2] * 6), [1, 2])  # the guard counts
    assert calls == {"_index_of": 2}


def test_seeded_verifiers_make_no_draw_per_element(monkeypatch):
    # terms and set members come from `getrandbits`, not `_randbelow`
    calls = 0
    randbelow = random.Random._randbelow

    def counting(self, n):
        nonlocal calls
        calls += 1
        return randbelow(self, n)

    monkeypatch.setattr(random.Random, "_randbelow", counting)
    random_sequence_theorem(make_group([4096]), 40, 50, seed=1)
    assert calls == 50  # one randint per trial: the length
    calls = 0
    groups = [make_group([1024]), parse_group("Z32xZ32"), make_group([24])]
    random_kneser(groups, 3, 50, seed=1)
    assert 0 < calls <= (2 + 3) * 50  # choice, randint(1, m_max), one randint per set


def test_random_runs_deterministic():
    g = parse_group("Z6xZ6")
    a = random_sequence_theorem(g, 10, 100, seed=5).to_json()
    b = random_sequence_theorem(g, 10, 100, seed=5).to_json()
    assert a == b
    d = random_sequence_theorem(g, 10, 100, seed=6).to_json()
    assert d != a


def test_olson_check_small_primes():
    run = olson_check(7)
    assert run.verdict == "verified"
    # threshold 4 over 6 nonzero elements: C(6,4)+C(6,5)+C(6,6) = 22
    assert run.stats["instances"] == 22
    assert run.stats["threshold"] == 4
    run = olson_check(13)
    assert run.verdict == "verified"
    assert run.stats["threshold"] == 6


def test_olson_rejects_composite_and_caps():
    with pytest.raises(ValueError):
        olson_check(9)
    with pytest.raises(CapacityError):
        olson_check(29)
    with pytest.raises(ValueError, match="1 is not prime"):
        olson_check(1)
    with pytest.raises(ValueError, match="4 is not prime"):
        olson_witness(4)


def test_olson_caps_before_trial_division(monkeypatch):
    # trial division of 10**16 + 61 takes seconds; each cap comes first
    def refuse(p):
        raise AssertionError("trial division ran")

    monkeypatch.setattr(verify, "_is_prime", refuse)
    with pytest.raises(CapacityError, match="exceeds cap"):
        olson_check(10**16 + 61)
    with pytest.raises(CapacityError, match="exceeds cap"):
        olson_witness(10**16 + 61)


def test_vu_and_interval_reject_small_n():
    with pytest.raises(ValueError, match="n must be >= 2"):
        vu_check(1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        interval_example(0)


def test_olson_witness_near_tightness():
    # The symmetric-interval witness is only incomplete once the interval of
    # attainable sums s(s+1)+1 falls short of p; at p = 13 it covers all of
    # Z_13 (sums -6..6), while at p = 23 residues 11 and 12 are unreachable.
    w = olson_witness(13)
    assert w["size"] == 6
    assert w["sigma_size"] == 13 and not w["missing_half"]
    w = olson_witness(23)
    assert w["size"] == 8
    assert w["sigma_size"] == 21
    assert w["missing_half"]


def test_a_set_one_below_the_olson_threshold_misses_a_residue_p13():
    # 5 = isqrt(4·13 - 7) - 1 members: the sums of 1..4 are 0..10, and
    # adding 12 gives 12 and 0..9, so 11 is missed
    g = make_group([13])
    A = [1, 2, 3, 4, 12]
    assert len(A) == verify.olson_threshold(13) - 1 == math.isqrt(45) - 1
    sigma = subset_sums(GroupSet.from_indices(g, A)).members()
    assert sigma == naive_sigma(g, A) == [i for i in range(13) if i != 11]


def test_vu_vacuous_and_threshold_arithmetic():
    run = vu_check(10)
    assert run.verdict == "vacuous"
    for n in range(2, 200):
        t = vu_threshold(n)
        assert t * t >= 64 * n > (t - 1) * (t - 1)


def test_vu_single_instance_n67():
    run = vu_check(67)
    assert run.verdict == "verified"
    assert run.stats["instances"] == 1  # phi = 66 = threshold


def test_vu_sampled_mode():
    run = vu_check(293, sample=20, seed=3)
    assert run.mode == "random"
    assert run.verdict == "verified"
    with pytest.raises(CapacityError):
        vu_check(293)


def test_vu_refuses_sample_and_seed_where_it_does_not_draw():
    # n = 73 is exhaustive and n = 10 vacuous: neither reads sample or seed
    for n in (73, 10):
        for kwargs, name in [
            ({"sample": 5, "seed": 1}, "sample"), ({"sample": 5}, "sample"),
            ({"seed": 1}, "seed"),
        ]:
            with pytest.raises(ValueError, match=f"does not read {name}$"):
                vu_check(n, **kwargs)


def test_vu_sampled_mode_rejects_empty_sample():
    # on every path: n = 293 samples, n = 67 is exhaustive, n = 10 vacuous
    for n in (293, 67, 10):
        for sample in (0, -1):
            with pytest.raises(ValueError, match="sample must be >= 1"):
                vu_check(n, sample=sample, seed=1)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_olson_check_matches_combinations_loop(p, monkeypatch):
    assert olson_check(p).to_json() == completeness_loop(
        "olson", p, verify.olson_threshold(p)).to_json()
    # a threshold this low admits sets with Sigma != Z_p: 2-sets for p >= 5
    monkeypatch.setattr(verify, "olson_threshold", lambda p: 2)
    run = olson_check(p)
    assert run.counterexamples and run.stats["min_slack"] < 0
    assert run.to_json() == completeness_loop("olson", p, 2).to_json()


@pytest.mark.parametrize("n, t", [(9, 2), (15, 3), (20, 1), (28, 4)])
def test_vu_check_matches_combinations_loop(n, t, monkeypatch):
    monkeypatch.setattr(verify, "vu_threshold", lambda n: t)
    run = vu_check(n)
    assert run.mode == "exhaustive" and run.counterexamples
    assert run.to_json() == completeness_loop("vu", n, t).to_json()
    monkeypatch.setattr(verify, "VU_ENUM_CAP", 5)
    run = vu_check(n, sample=40, seed=n)
    assert run.mode == "random" and run.counterexamples
    assert run.to_json() == completeness_loop("vu", n, t, 40, n).to_json()


@pytest.mark.parametrize(
    "check, instances, extra",
    [(lambda: olson_check(11), 386, 2), (lambda: olson_check(13), 2510, 2),
     (lambda: vu_check(293, sample=10, seed=7), 10, 1)],
    ids=["olson-11", "olson-13", "vu-293-sampled"],
)
def test_completeness_builds_one_set_per_instance(check, instances, extra, monkeypatch):
    # every Sigma is G, the group's stored set: one `GroupSet` per instance,
    # plus G once; exhaustive runs build the witness literal's set too, while
    # sampled Vu's witness is one of its instances
    built = 0
    init = GroupSet.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupSet, "__init__", counting)
    run = check()
    assert run.stats["instances"] == instances and run.stats["min_slack"] == 0
    assert built == instances + extra


def test_vu_mode_choice_matches_the_exact_binomial_rule(monkeypatch):
    def exact(phi, t):
        return sum(math.comb(phi, k) for k in range(t, phi + 1)) <= verify.VU_ENUM_CAP

    for n in [*range(2, 301), 430, 560, 576, 900, 1020, 1021]:
        phi = sum(1 for a in range(1, n) if math.gcd(a, n) == 1)
        t = vu_threshold(n)
        if phi >= t:
            assert verify._vu_enumerable(phi, t) == exact(phi, t), n
    for cap in (0, 1, 5, 100):
        monkeypatch.setattr(verify, "VU_ENUM_CAP", cap)
        for phi in range(12):
            for t in range(phi + 3):  # phi < t sums no binomial: 0 subsets
                assert verify._vu_enumerable(phi, t) == exact(phi, t), (cap, phi, t)


def test_vu_vacuous_mode_does_not_depend_on_the_cap(monkeypatch):
    want = vu_check(10).to_json()
    monkeypatch.setattr(verify, "VU_ENUM_CAP", 0)
    assert verify._vu_enumerable(4, 26)  # phi(10) = 4 < 26 = t: nothing to enumerate
    run = vu_check(10)
    assert run.mode == "exhaustive" and run.verdict == "vacuous"
    assert run.to_json() == want


def test_vu_sampled_large_group_memory_and_time():
    # bits of all 131,070 units would take about 1.1 GB; a draw's bitmap 16 KB
    script = f"""
import resource, sys
sys.path.insert(0, {SRC!r})
from sigmaforge import vu_check
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run = vu_check(131071, sample=2, seed=1)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(run.verdict, run.mode, grown)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    verdict, mode, grown_kb = proc.stdout.split()
    assert (verdict, mode) == ("verified", "random")
    assert int(grown_kb) < 64 * 1024


def _completeness_members(theorem, n):
    if theorem == "olson":
        return list(range(1, n))
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


COMPLETENESS_CASES = [("olson", p) for p in (2, 3, 5, 7, 11)] + [
    ("vu", n) for n in range(2, 31) if len(_completeness_members("vu", n)) <= 10
]


@given(st.sampled_from(COMPLETENESS_CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_completeness_encodings_match_loop(case, data):
    """Exhaustive and sampled bitmap instances vs the loop.

    Exhaustive instances are `_subset_masks` bitmaps: a k-set of m members
    is the OR of a precomputed sum of its members in the low m // 2 and one
    of its members in the rest, a half's j-sets summed from their j members
    when 2j < |half|, else as the half's whole minus its dropped members.

    The threshold is lowered so that counterexamples occur; it is kept
    where `naive_sigma` stays cheap (about 20,000 subsets in all).
    """
    theorem, n = case
    m = len(_completeness_members(theorem, n))
    lo = min(
        t for t in range(m + 1)
        if sum(math.comb(m, k) << k for k in range(t, m + 1)) <= 20_000
    )
    t = data.draw(st.integers(lo, m), label="threshold")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, f"{theorem}_threshold", lambda n: t)
        if theorem == "olson":
            run = olson_check(n)
        else:
            run = vu_check(n)
        assert run.mode == "exhaustive"
        assert run.to_json() == completeness_loop(theorem, n, t).to_json()
        if theorem == "vu":
            mp.setattr(verify, "VU_ENUM_CAP", 0)
            sample = data.draw(st.integers(1, 12), label="sample")
            seed = data.draw(st.integers(0, 2**32), label="seed")
            run = vu_check(n, sample=sample, seed=seed)
            assert run.mode == "random"
            assert run.to_json() == completeness_loop(
                "vu", n, t, sample, seed).to_json()


def test_subset_masks_yield_each_large_enough_subset_once():
    # both sides of each half's 2j = |half| switch: odd and even m, every t
    # up to m + 1; then the Vu shape, near-full t >= m - 3 on m up to 40
    # (vu_check(73) takes the sets of at least 69 of 72 units)
    small = [1, 3, 4, 7, 8, 10, 12, 13, 15, 18, 19, 22]
    cases = [(small[:m], range(m + 2)) for m in range(13)]
    cases += [(range(1, 3 * m, 3), range(m - 3, m + 2)) for m in range(13, 41)]
    for members, ts in cases:
        m = len(members)
        bits = [1 << a for a in members]
        for t in ts:
            got = list(_subset_masks(bits, t))
            want = [
                sum(chosen) for k in range(t, m + 1) for chosen in combinations(bits, k)
            ]
            assert len(got) == sum(math.comb(m, k) for k in range(t, m + 1))
            assert sorted(got) == sorted(want) and len(set(got)) == len(got), (m, t)
            assert [mask.bit_count() for mask in got] == sorted(
                mask.bit_count() for mask in got
            ), (m, t)


def test_interval_example_small():
    rec = interval_example(1)
    assert rec["sigma_size"] == 3
    rec = interval_example(2)
    assert rec["sigma_size"] == 7
    assert rec["stabilizer_size"] == 1
    assert rec["paper_printed_size"] == 3  # printed figure, not asserted as truth


def test_interval_example_matches_integer_dp():
    for n in (1, 2, 3, 4):
        rec = interval_example(n)
        sums = {0}
        for x in [i for i in range(-n, n + 1) if i != 0]:
            sums |= {s + x for s in sums}
        assert rec["sigma_size"] == len(sums) == n * (n + 1) + 1


def test_extremal_search_k1():
    rec = extremal_search(make_group([7]), 1)
    assert rec.feasible
    assert rec.sigma_size == 2
    assert rec.best_set == "1"


def test_extremal_search_exhaustive_vs_oracle():
    g = make_group([13])
    rec = extremal_search(g, 3)
    brute = None
    for comb in combinations(range(1, 13), 3):
        sig = naive_sigma(g, comb)
        stab_trivial = all(
            {(s + t) % 13 for s in sig} != set(sig) for t in range(1, 13)
        )
        if stab_trivial and (brute is None or len(sig) < brute):
            brute = len(sig)
    assert rec.sigma_size == brute
    assert 64 * (rec.sigma_size - 1) >= rec.k * rec.k


@pytest.mark.parametrize(
    "n, ks", [(n, (1, 2, 3)) for n in range(13, 18)] + [(21, (18, 19, 20))]
)
def test_extremal_search_matches_combinations_loop(n, ks):
    g = make_group([n])
    for k in ks:
        assert extremal_search(g, k).to_json() == search_loop(g, k).to_json()


SEARCH_GROUPS = [f"Z{n}" for n in range(2, 17)] + [
    "Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z2xZ6", "Z3xZ4", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4",
]


@given(st.sampled_from(SEARCH_GROUPS), st.data())
@settings(max_examples=60, deadline=None)
def test_extremal_search_matches_combinations_loop_on_every_k(spec, data):
    # the prune |Sigma(B)| + (k - |B|) >= best fires at every depth, and
    # the infeasible k (every Sigma with a nontrivial stabilizer) come up
    g = parse_group(spec)
    k = data.draw(st.integers(1, g.order - 1))
    assert extremal_search(g, k).to_json() == search_loop(g, k).to_json()


def test_extremal_search_hillclimb_dominated():
    g = make_group([31])
    exact = extremal_search(g, 4)
    climbed = extremal_search(g, 4, mode="hillclimb", seed=9, restarts=5)
    assert climbed.feasible
    assert climbed.sigma_size >= exact.sigma_size
    again = extremal_search(g, 4, mode="hillclimb", seed=9, restarts=5)
    assert climbed.to_json() == again.to_json()


def test_extremal_search_infeasible():
    # in Z2xZ2 every Sigma(A) is a subgroup, so no 2-subset has trivial stab
    g = parse_group("Z2xZ2")
    rec = extremal_search(g, 2)
    assert not rec.feasible
    rec = extremal_search(g, 2, mode="hillclimb", seed=1, restarts=2)
    assert not rec.feasible and rec.best_set is None


def test_search_record_needs_no_stabilizer_or_subset_sums(monkeypatch):
    # the best set is feasible, so its record follows from (|Sigma|, mask)
    calls = count_calls(monkeypatch, stabilizer, subset_sums)
    g = make_group([13])
    exact = extremal_search(g, 3)
    assert exact.feasible and exact.stabilizer_size == 1
    assert calls == {"stabilizer": 0, "subset_sums": 0}
    climbed = extremal_search(g, 3, mode="hillclimb", seed=4, restarts=2)
    assert climbed.feasible and climbed.ratio_den == 9
    assert calls["stabilizer"] == 0


def test_extremal_search_requires_seed_for_hillclimb():
    with pytest.raises(ValueError):
        extremal_search(make_group([11]), 2, mode="hillclimb")
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        extremal_search(make_group([11]), 2, mode="hillclimb", seed=1, restarts=0)


@pytest.mark.parametrize("extra", [{"seed": 5}, {"restarts": 2}, {"seed": 5, "restarts": 2}])
def test_extremal_search_exhaustive_rejects_seed_and_restarts(extra):
    with pytest.raises(ValueError, match="no seed or restarts"):
        extremal_search(make_group([13]), 2, **extra)


def test_extremal_search_rejects_bad_k_mode_and_capacity(monkeypatch):
    g = make_group([13])
    for k in (0, g.order):
        with pytest.raises(ValueError, match=f"k = {k} out of range"):
            extremal_search(g, k)
    with pytest.raises(ValueError, match="unknown search mode 'nope'"):
        extremal_search(g, 2, mode="nope")
    monkeypatch.setattr(verify, "SEARCH_ENUM_CAP", 65)  # C(12, 2) = 66
    with pytest.raises(CapacityError, match=r"C\(12, 2\) exceeds enumeration cap 65"):
        extremal_search(g, 2)
    assert extremal_search(g, 1).feasible  # C(12, 1) = 12 is within the cap


def test_lex_lt_is_member_list_order_on_every_pair_of_subsets():
    # every pair of subsets of {0..6}: equal sets, prefixes and sizes apart
    g = make_group([7])
    lists = [GroupSet(g, mask).members() for mask in range(1 << 7)]
    for a, xs in enumerate(lists):
        for b, ys in enumerate(lists):
            assert _lex_lt(a, b) == (xs < ys), (a, b)


@given(st.integers(1, 6), st.data())
def test_precedes_orders_by_size_then_member_list(k, data):
    members = st.lists(st.integers(0, 11), min_size=k, max_size=k, unique=True)
    a, b = sorted(data.draw(members)), sorted(data.draw(members))
    s, t = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    mask = lambda xs: sum(1 << x for x in xs)  # noqa: E731
    assert _precedes((s, mask(a)), (t, mask(b))) == ((s, a) < (t, b))
    assert _precedes((s, mask(a)), None)


HILLCLIMB_GROUPS = [
    "Z2", "Z5", "Z8", "Z12", "Z13", "Z16",
    "Z2xZ2", "Z2xZ2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ6", "Z4xZ4",
]


@settings(deadline=None)
@given(st.sampled_from(HILLCLIMB_GROUPS), st.data())
def test_hillclimb_matches_neighbour_loop(spec, data):
    g = parse_group(spec)
    k = data.draw(st.integers(1, min(6, g.order - 1)))
    seed = data.draw(st.integers(0, 1 << 16))
    restarts = data.draw(st.integers(1, 3))
    rec = extremal_search(g, k, "hillclimb", seed=seed, restarts=restarts)
    assert rec.to_json() == hillclimb_loop(g, k, seed, restarts).to_json()


def test_hillclimb_step_runs_at_most_k_plus_one_subset_sums(monkeypatch):
    g, k, seed, restarts = make_group([31]), 4, 2, 2
    calls = {verify: 0, conftest: 0}

    def count(module):
        fold = module.subset_sums

        def counted(A):
            calls[module] += 1
            return fold(A)

        monkeypatch.setattr(module, "subset_sums", counted)

    count(verify)
    count(conftest)
    rec = extremal_search(g, k, "hillclimb", seed=seed, restarts=restarts)
    assert rec.to_json() == hillclimb_loop(g, k, seed, restarts).to_json()
    # The oracle folds each start, all k * (30 - k) neighbours of every
    # step, and the winner once more; that count gives the number of steps.
    neighbours = k * (g.order - 1 - k)
    steps, left = divmod(calls[conftest] - restarts - 1, neighbours)
    assert left == 0 and steps >= restarts
    assert calls[verify] <= (k + 1) * steps


def test_run_json_excludes_timing_by_default():
    g = make_group([6])
    runs = [
        exhaustive_theorem(g, "main"),
        random_kneser([g], m_max=2, trials=5, seed=1),
        random_sequence_theorem(g, 4, 5, seed=1),
        olson_check(7),
        vu_check(67),
        vu_check(10),
    ]
    for run in runs:
        assert run.millis is not None
        assert "millis" not in run.to_json()
        assert "millis" in run.to_json(with_timing=True)
