"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from itertools import combinations

from sigmaforge import (
    Element,
    GroupSet,
    SequenceMS,
    best_half_subset,
    delta,
    gamma,
    greedy_grow,
    hard_bound_diagnostic,
    interval_example,
    main_bound_check,
    make_group,
    olson_check,
    olson_witness,
    parse_group,
    random_kneser,
    random_sequence_theorem,
    sequence_bound_check,
    stabilizer,
    subset_sums,
    sumset,
    vu_check,
    witness_easy,
    witness_hard,
)
from sigmaforge.verify import exhaustive_theorem, vu_threshold

EXHAUSTIVE_FAMILY = [make_group([n]) for n in range(1, 13)] + [
    parse_group("Z2xZ2xZ2"),
    parse_group("Z3xZ3"),
]

KNESER_GROUPS = [
    make_group([24]),
    make_group([64]),
    parse_group("Z4xZ4"),
    parse_group("Z2xZ2xZ2"),
    parse_group("Z6xZ6"),
    make_group([60]),
]

SEQ_GROUPS = [
    make_group([36]),
    parse_group("Z6xZ6"),
    parse_group("Z2xZ18"),
    parse_group("Z3xZ12"),
]

KNESER_ARGS = dict(m_max=5, trials=10_000, seed=20240811)
SEQ_SEED = 909


def report(criterion, ok):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion failed: {criterion}"


def test_criterion_01_main_theorem_exhaustive():
    t0 = time.monotonic()
    ok = True
    for g in EXHAUSTIVE_FAMILY:
        run = exhaustive_theorem(g, "main")
        ok = ok and run.verdict == "verified" and not run.counterexamples
    elapsed = time.monotonic() - t0
    report(
        f"1 main-theorem exhaustive (Z1..Z12, Z2^3, Z3^2; {elapsed:.1f}s)",
        ok and elapsed < 30.0,
    )


def test_criterion_02_corollary_exhaustive():
    ok = True
    for g in EXHAUSTIVE_FAMILY:
        run = exhaustive_theorem(g, "corollary")
        ok = ok and run.verdict == "verified" and not run.counterexamples
    report("2 corollary exhaustive over the same family", ok)


def test_criterion_03_kneser_randomized():
    run = random_kneser(KNESER_GROUPS, **KNESER_ARGS)
    ok = run.verdict == "verified" and run.stats["instances"] == 10_000
    report("3 kneser randomized 10^4 m-tuples", ok)


def test_criterion_04_identity_suite():
    rng = random.Random(4242)
    groups = [make_group([n]) for n in (8, 12, 15, 16, 21)] + [
        parse_group("Z2xZ8"),
        parse_group("Z3xZ9"),
    ]
    checks = 10_000
    ok = True

    def rand_set(g, min_size=0):
        k = rng.randint(min_size, g.order)
        return GroupSet.from_indices(g, rng.sample(range(g.order), k))

    for _ in range(checks):
        g = rng.choice(groups)
        S = rand_set(g)
        x = Element(g, rng.randrange(g.order))
        y = Element(g, rng.randrange(g.order))
        # Gamma + Delta = |S|
        ok = ok and gamma(S, x) + delta(S, x) == S.card
        # Delta_S = Delta_{G \ S}
        ok = ok and delta(S, x) == delta(S.complement(), x)
        # subadditivity
        ok = ok and delta(S, x + y) <= delta(S, x) + delta(S, y)
        # stab monotonicity
        T = rand_set(g, min_size=1)
        S1 = rand_set(g, min_size=1)
        hs = stabilizer(S1).mask
        ok = ok and hs & stabilizer(sumset(S1, T)).mask == hs
        # complete-sum: |A| + |B| > |G| forces A + B = G
        ka = rng.randint(1, g.order)
        kb = g.order + 1 - ka
        if kb <= g.order:
            A = GroupSet.from_indices(g, rng.sample(range(g.order), ka))
            B = GroupSet.from_indices(g, rng.sample(range(g.order), kb))
            ok = ok and sumset(A, B).card == g.order
        # Sigma(A) as an m-fold sumset of the pair sets {0, a_i}
        A = rand_set(g)
        folded = GroupSet.from_indices(g, [0])
        for a in A.members():
            folded = sumset(folded, GroupSet.from_indices(g, [0, a]))
        ok = ok and folded == subset_sums(A)
        if not ok:
            break
    report("4 identity suite 10^4 randomized checks x6", ok)


def _easy_instance(rng):
    n = rng.randint(2, 64)
    g = make_group([n])
    k = rng.randint(1, n)
    C = GroupSet.from_indices(g, rng.sample(range(n), k))
    s = rng.randint(0, min(k // 2, n // 2))
    S = GroupSet.from_indices(g, rng.sample(range(n), s))
    return g, C, S


def _hard_instance(rng):
    n = rng.randint(2, 64)
    g = make_group([n])
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    k = rng.randint(1, max(1, n // 2))
    members = {rng.choice(units)}
    while len(members) < k:
        members.add(rng.randint(1, n - 1))
    C = GroupSet.from_indices(g, members)
    lo = -(-C.card // 2)
    S = GroupSet.from_indices(g, rng.sample(range(n), rng.randint(lo, n - lo)))
    return g, C, S


def test_criterion_05_lemma_witnesses():
    rng = random.Random(5150)
    ok = True
    for _ in range(1000):
        g, C, S = _easy_instance(rng)
        df = min(S.card, g.order - S.card)
        w = witness_easy(C, S)
        ok = ok and w.guaranteed and 2 * w.delta >= df
        if not ok:
            break
    for _ in range(1000):
        g, C, S = _hard_instance(rng)
        w = witness_hard(C, S)
        ok = ok and w.guaranteed and 8 * w.delta >= C.card
        diag = hard_bound_diagnostic(C, S)
        ok = ok and diag["holds"]
        if not ok:
            break
    report("5 lemma witnesses 10^3 constructed instances each", ok)


def test_criterion_06_sequence_theorem_randomized():
    run = random_sequence_theorem(SEQ_GROUPS[1], n_max=12, trials=500, seed=SEQ_SEED)
    ok = run.verdict == "verified"
    rng = random.Random(SEQ_SEED + 1)
    checked = 0
    while checked < 1000:
        g = rng.choice(SEQ_GROUPS)
        length = rng.randint(0, 12)
        terms = [rng.randrange(g.order) for _ in range(length)]
        a = SequenceMS.from_terms(g, terms)
        rep = sequence_bound_check(a)
        ok = ok and rep.holds
        if a.is_distinct():
            set_rep = main_bound_check(a.support())
            ok = ok and rep.rhs >= set_rep.rhs and rep.lhs == set_rep.lhs
        checked += 1
        if not ok:
            break
    report("6 sequence theorem 10^3 random sequences + CS reduction", ok)


def test_criterion_07_olson_exhaustive():
    t0 = time.monotonic()
    ok = True
    for p in (7, 11, 13, 17):
        run = olson_check(p)
        ok = ok and run.verdict == "verified"
    elapsed = time.monotonic() - t0
    report(f"7a olson exhaustive p in 7,11,13,17 ({elapsed:.1f}s)", ok and elapsed < 10)


def test_criterion_07_olson_witness_incomplete_p13():
    # As stated by the criterion. Direct computation shows Sigma of
    # {+-1,+-2,+-3} covers every residue of Z_13 (sums -6..6), so this
    # assertion fails; the witness is genuinely incomplete only once
    # s(s+1) <= p-2, e.g. p = 23. Kept faithful rather than weakened.
    w = olson_witness(13)
    report("7b olson witness {+-1..+-3} incomplete in Z13", w["missing_half"])


def test_criterion_08_vu_consequence():
    ok = True
    for n in (67, 71, 73):
        run = vu_check(n)
        ok = ok and run.verdict == "verified" and run.stats["instances"] >= 1
    for n in (10, 30, 50):
        ok = ok and vu_check(n).verdict == "vacuous"
    for n in (10, 30, 50, 67, 71, 73):
        t = vu_threshold(n)
        ok = ok and t * t >= 64 * n > (t - 1) * (t - 1)
    report("8 vu consequence: complete above 8*sqrt(n), vacuous otherwise", ok)


def _interval_dp_oracle(n):
    sums = {0}
    for x in [i for i in range(-n, n + 1) if i != 0]:
        sums |= {s + x for s in sums}
    return len(sums)


def test_criterion_09_interval_example():
    ok = True
    for n in (1, 2, 3, 5, 10):
        rec = interval_example(n)
        oracle = _interval_dp_oracle(n)
        ok = ok and rec["sigma_size"] == oracle == n * (n + 1) + 1
        ok = ok and rec["stabilizer_size"] == 1
        ok = ok and rec["paper_printed_size"] == n * (n - 1) + 1
    report("9 interval example matches integer-DP oracle, paper figure reported", ok)


def test_criterion_10_half_subset_inner_max():
    ok = True
    for m in (9, 12, 16):
        g = make_group([m])
        for u in (2, 3, 4):
            if 2 * u > m - 1:
                continue
            for idxs in combinations(range(1, m), 2 * u):
                A = GroupSet.from_indices(g, idxs)
                if len(stabilizer(subset_sums(A))) != 1:
                    continue
                B, size = best_half_subset(A)
                ok = ok and 16 * size >= u * u
                greedy = subset_sums(greedy_grow(A, u).final_set).card
                ok = ok and size >= greedy
                if not ok:
                    break
    report("10 half-subset inner max: 16|Sigma(B)| >= u^2, exact >= greedy", ok)


def test_criterion_11_determinism():
    base = random_kneser(KNESER_GROUPS, **KNESER_ARGS)
    rerun = random_kneser(KNESER_GROUPS, **KNESER_ARGS)
    ok = base.to_json() == rerun.to_json()
    g = SEQ_GROUPS[1]
    s1 = random_sequence_theorem(g, 12, 500, seed=SEQ_SEED)
    s2 = random_sequence_theorem(g, 12, 500, seed=SEQ_SEED)
    ok = ok and s1.to_json() == s2.to_json()
    v1 = vu_check(293, sample=10, seed=7)
    v2 = vu_check(293, sample=10, seed=7)
    ok = ok and v1.to_json() == v2.to_json()
    report("11 determinism: byte-identical JSON across reruns", ok)
