import random

import pytest
from hypothesis import given, settings, strategies as st

from sigmaforge import (
    GroupMismatchError,
    GroupSet,
    SequenceMS,
    Subgroup,
    cauchy_schwarz_check,
    corollary_bound,
    generated_subgroup,
    kneser_bound,
    main_bound_check,
    make_group,
    recursive_bound_numerator,
    sequence_bound_check,
    stabilizer,
    subset_sums,
)


def gset(g, idxs):
    return GroupSet.from_indices(g, idxs)


def test_kneser_single_summand_tight():
    g = make_group([12])
    rng = random.Random(1)
    for _ in range(20):
        A = gset(g, rng.sample(range(12), rng.randint(1, 12)))
        rep = kneser_bound([A])
        assert rep.holds
        assert rep.lhs == rep.rhs  # |A + H| with H = stab(A)


def test_kneser_subgroup_absorbs():
    g = make_group([12])
    K = generated_subgroup(g, gset(g, [4]))
    kset = GroupSet(g, K.mask)
    rep = kneser_bound([kset, kset, kset])
    assert rep.holds
    assert rep.lhs == rep.rhs == len(K)


def test_kneser_random_triples():
    g = make_group([24])
    rng = random.Random(2)
    for _ in range(100):
        sets = [
            gset(g, rng.sample(range(24), rng.randint(1, 24))) for _ in range(3)
        ]
        assert kneser_bound(sets).holds


def test_kneser_rejects_summands_from_different_groups():
    with pytest.raises(GroupMismatchError, match="different groups"):
        kneser_bound([gset(make_group([6]), [1]), gset(make_group([2, 3]), [1])])


def test_kneser_rejects_empty():
    g = make_group([6])
    with pytest.raises(ValueError):
        kneser_bound([gset(g, [1]), GroupSet(g)])
    with pytest.raises(ValueError, match="need at least one summand"):
        kneser_bound([])


def test_corollary_examples():
    g5 = make_group([5])
    rep = corollary_bound(gset(g5, [1]))
    assert (rep.lhs, rep.rhs) == (2, 2)
    # A inside H: rhs collapses to |H|
    g6 = make_group([6])
    H = generated_subgroup(g6, gset(g6, [2]))
    rep = corollary_bound(H)
    assert rep.holds
    assert rep.rhs == len(stabilizer(subset_sums(H)))


def test_corollary_exhaustive_z8():
    g = make_group([8])
    for mask in range(1 << 8):
        assert corollary_bound(GroupSet(g, mask)).holds


def test_main_bound_empty_and_inside_h():
    g = make_group([12])
    rep = main_bound_check(GroupSet(g))
    assert (rep.lhs, rep.rhs) == (0, 0)
    H = generated_subgroup(g, gset(g, [4]))
    rep = main_bound_check(H)
    assert rep.rhs == 0 and rep.holds


def test_main_bound_exhaustive_z12():
    g = make_group([12])
    min_slack = None
    for mask in range(1 << 12):
        rep = main_bound_check(GroupSet(g, mask))
        assert rep.holds
        slack = rep.context["slack"]
        min_slack = slack if min_slack is None else min(min_slack, slack)
    assert min_slack >= 0


@given(
    st.sampled_from([(7,), (16,), (30,), (64,), (97,), (4, 4), (2, 12), (3, 3, 3), (2,) * 6]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_main_cannot_fail_below_order_66(factors, data):
    # A \ H lies in Sigma \ H, so k <= s; then 64s - k^2 >= s(64 - s) >= 0
    # for s <= 64, which holds on every group of order 65 or less
    g = make_group(factors)
    A = gset(g, data.draw(st.sets(st.integers(0, g.order - 1))))
    sigma = subset_sums(A)
    H = stabilizer(sigma)
    k = (A.mask & ~H.mask).bit_count()
    s = sigma.card - len(H)
    assert k <= s
    if s <= 64:
        assert main_bound_check(A).holds


def test_sequence_bound_inside_h_and_random():
    g = make_group([9])
    rep = sequence_bound_check(SequenceMS(g, {3: 4}))
    assert rep.rhs == 0 and rep.holds
    gg = make_group([6, 6])
    rng = random.Random(3)
    for _ in range(200):
        terms = [rng.randrange(36) for _ in range(rng.randint(0, 12))]
        assert sequence_bound_check(SequenceMS.from_terms(gg, terms)).holds


def test_sequence_vs_set_pipeline_on_distinct():
    # sequence rhs dominates set rhs via the Cauchy-Schwarz reduction
    g = make_group([6, 6])
    rng = random.Random(4)
    for _ in range(100):
        A = gset(g, rng.sample(range(36), rng.randint(0, 10)))
        seq_rep = sequence_bound_check(SequenceMS.from_terms(g, A.members()))
        set_rep = main_bound_check(A)
        assert seq_rep.lhs == set_rep.lhs
        assert seq_rep.rhs >= set_rep.rhs


def test_cauchy_schwarz_examples():
    g = make_group([12])
    A = gset(g, [1, 2, 5, 7])
    triv = Subgroup.trivial(g)
    rep = cauchy_schwarz_check(A, triv)
    assert rep.lhs == rep.rhs == 16  # equality at H = {0}
    H = generated_subgroup(g, gset(g, [4]))
    rep = cauchy_schwarz_check(gset(g, [0, 4]), H)
    assert rep.holds


def test_cauchy_schwarz_random():
    g = make_group([36])
    H = generated_subgroup(g, gset(g, [6]))
    rng = random.Random(5)
    for _ in range(100):
        A = gset(g, rng.sample(range(36), rng.randint(0, 20)))
        assert cauchy_schwarz_check(A, H).holds


def test_recursive_numerator():
    assert recursive_bound_numerator(0) == 0
    assert recursive_bound_numerator(8) == 21
    n = recursive_bound_numerator(1024)
    assert n >= 1024 * 1024 // 3 - 2 * 1024
    with pytest.raises(ValueError):
        recursive_bound_numerator(-1)


def test_report_serialization_deterministic():
    g = make_group([5])
    rep = main_bound_check(gset(g, [1, 3]))
    assert rep.to_json() == main_bound_check(gset(g, [1, 3])).to_json()
    assert rep.csv_row().startswith("main,")
