import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from sigmaforge import (
    CapacityError,
    CosetClass,
    DenseGraph,
    Element,
    GenerationError,
    GroupMismatchError,
    GroupSet,
    best_half_subset,
    classify_cosets,
    dense_graph,
    generated_subgroup,
    greedy_grow,
    hard_bound_diagnostic,
    make_group,
    parse_group,
    quotient,
    stabilizer,
    Subgroup,
    subset_sums,
    witness_easy,
    witness_hard,
)
from sigmaforge import construct
from sigmaforge.setcalc import subset_walk
from conftest import CountedWalk, count_work, half_subset_loop, naive_graph_shape


def gset(g, idxs):
    return GroupSet.from_indices(g, idxs)


def naive_delta(g, S, c):
    return len({g.add_index(s, c) for s in S} - set(S))


# -- witnesses -------------------------------------------------------------

def test_witness_easy_degenerate():
    g = make_group([16])
    C = gset(g, [1, 2, 3])
    w = witness_easy(C, GroupSet(g))
    assert w.guaranteed and w.delta == 0
    w = witness_easy(C, GroupSet.full(g))
    assert w.guaranteed and w.delta == 0


def test_witness_easy_example():
    g = make_group([16])
    S = gset(g, [0, 1])
    C = gset(g, range(1, 9))
    w = witness_easy(C, S)
    assert w.guaranteed
    assert 2 * w.delta >= 2  # df = 2
    # argmax over all candidates, ties to lowest index
    deltas = [naive_delta(g, [0, 1], c) for c in range(1, 9)]
    assert w.delta == max(deltas)
    assert w.element.index == 1 + deltas.index(max(deltas))


def test_witness_easy_flags_violated_precondition():
    g = make_group([8])
    S = gset(g, [0, 1, 2, 3])  # df = 4 > |C|/2
    C = gset(g, [1])
    w = witness_easy(C, S)
    assert not w.guaranteed
    assert "df" in w.failed_precondition


def test_witness_hard_requires_generation():
    g = make_group([8])
    with pytest.raises(GenerationError):
        witness_hard(gset(g, [2, 4]), gset(g, [0, 1, 2, 3]))


@pytest.mark.parametrize("check", [witness_easy, witness_hard, hard_bound_diagnostic])
def test_candidates_and_set_must_share_a_group(check):
    C = gset(make_group([9]), [1, 2])
    S = gset(parse_group("Z3xZ3"), [0, 1])
    with pytest.raises(GroupMismatchError, match="same group"):
        check(C, S)


@pytest.mark.parametrize("check", [witness_easy, witness_hard, hard_bound_diagnostic])
def test_candidates_must_be_nonempty(check):
    g = make_group([8])
    with pytest.raises(ValueError, match="candidate set must be nonempty"):
        check(GroupSet(g), gset(g, [0, 1]))


def test_witness_hard_example():
    g = make_group([32])
    rng = random.Random(1)
    C = gset(g, [1, 3, 5, 7])
    S = gset(g, rng.sample(range(32), 16))
    w = witness_hard(C, S)
    assert w.guaranteed
    assert 8 * w.delta >= 4


def test_witness_hard_randomized_guarantee():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(2, 64)
        g = make_group([n])
        units = [a for a in range(1, n) if __import__("math").gcd(a, n) == 1]
        k = rng.randint(1, max(1, n // 2))
        members = {rng.choice(units)}
        while len(members) < k:
            members.add(rng.randint(1, n - 1))
        C = gset(g, members)
        lo = -(-C.card // 2)
        s = rng.randint(lo, n - lo)
        S = gset(g, rng.sample(range(n), s))
        w = witness_hard(C, S)
        assert w.guaranteed
        assert 8 * w.delta >= C.card
        diag = hard_bound_diagnostic(C, S)
        assert diag["holds"]
        assert diag["d_size"] >= 2 * diag["df"]


def test_witness_easy_averaging_bound():
    # mean of Delta over C dominates df/2 under the precondition
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(4, 48)
        g = make_group([n])
        k = rng.randint(2, n)
        C = gset(g, rng.sample(range(n), k))
        s = rng.randint(0, min(k // 2, n // 2))
        S = gset(g, rng.sample(range(n), s))
        df = min(S.card, n - S.card)
        if 2 * df > k:
            continue
        total = sum(naive_delta(g, S.members(), c) for c in C.members())
        assert 2 * total >= k * df


# -- coset classification --------------------------------------------------

def test_classify_all_dense_or_empty():
    g = make_group([12])
    H = generated_subgroup(g, gset(g, [6]))
    full = classify_cosets(GroupSet.full(g), H, 16)
    assert all(cc.label == "dense" for cc in full)
    empty = classify_cosets(GroupSet(g), H, 16)
    assert all(cc.label == "empty" for cc in empty)
    with pytest.raises(ValueError, match="u must be nonnegative"):
        classify_cosets(GroupSet.full(g), H, -1)


def test_classify_example():
    g = make_group([12])
    H = generated_subgroup(g, gset(g, [6]))
    S = gset(g, [0, 1, 6])
    classes = {cc.coset: cc for cc in classify_cosets(S, H, 16)}
    assert classes[0].label == "dense"  # coset {0,6} fully inside S
    # coset {1,7} holds one point of S; with |H| = 2 both thresholds fire,
    # so the dense-first rule applies and the overlap is flagged
    assert classes[1].label == "dense"
    assert classes[1].ambiguous
    assert classes[1].intersection == 1


def test_classify_each_label():
    g = make_group([16])
    H = generated_subgroup(g, gset(g, [4]))  # {0, 4, 8, 12}
    S = gset(g, [0, 1, 5, 2, 6, 10])
    classes = {cc.coset: cc for cc in classify_cosets(S, H, 7)}
    q = quotient(g, H)
    # at u = 7 a coset Q is sparse when 4|Q & S| < 8, dense when 4|Q \ S| < 8
    expected = {  # representative: (label, |Q & S|, min(|Q & S|, |Q \ S|))
        0: ("sparse", 1, 1),  # {0} of {0, 4, 8, 12}
        1: ("balanced", 2, 2),  # {1, 5} of {1, 5, 9, 13}
        2: ("dense", 3, 1),  # {2, 6, 10} of {2, 6, 10, 14}
        3: ("empty", 0, 0),
    }
    assert len(classes) == 4
    for r, (label, inter, df) in expected.items():
        cc = classes[q.project(r)]
        assert (cc.label, cc.intersection, cc.deficiency) == (label, inter, df), r
        assert not cc.ambiguous


def test_classify_overlap_flagged_for_small_cosets():
    g = make_group([6])
    H = generated_subgroup(g, gset(g, [3]))  # |H| = 2 < (u+1)/2
    S = gset(g, [1])
    classes = {cc.coset: cc for cc in classify_cosets(S, H, 16)}
    amb = [cc for cc in classes.values() if cc.ambiguous]
    assert amb and all(cc.label == "dense" for cc in amb)


def coset_oracle(S, H, u):
    """`classify_cosets` by projecting every element of G and counting S."""
    g, q = S.group, quotient(S.group, H)
    inter, size = [0] * q.num_cosets, [0] * q.num_cosets
    for i in range(g.order):
        c = q.project(i)
        size[c] += 1
        inter[c] += i in S
    out = []
    for c in range(q.num_cosets):
        diff = size[c] - inter[c]
        sparse = 0 < 4 * inter[c] < u + 1
        dense = inter[c] > 0 and 4 * diff < u + 1
        label = ("empty" if not inter[c] else "dense" if dense
                 else "sparse" if sparse else "balanced")
        out.append(CosetClass(c, label, inter[c], min(inter[c], diff), dense and sparse))
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(12,), (16,), (30,), (4, 6), (2, 2, 4), (3, 3), (2, 4, 8)]),
    st.data(),
)
def test_classify_and_dense_graph_match_projection_oracle(factors, data):
    g = make_group(factors)
    kind = data.draw(st.sampled_from(["generated", "trivial", "full"]))
    if kind == "trivial":
        H = Subgroup.trivial(g)
    elif kind == "full":
        H = Subgroup.full(g)
    else:
        gens = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=2))
        H = generated_subgroup(g, gset(g, gens))
    S = gset(g, data.draw(st.sets(st.integers(0, g.order - 1))))
    h = len(H)
    u = data.draw(st.one_of(st.integers(0, 4 * h - 1), st.integers(4 * h, 8 * h + 4)))
    classes = coset_oracle(S, H, u)
    assert classify_cosets(S, H, u) == classes
    b = data.draw(st.integers(0, g.order - 1))
    q = quotient(g, H)
    W = tuple(cc.coset for cc in classes if cc.label == "dense")
    heads = {c: q.quotient_group.add_index(c, q.project(b)) for c in W}
    arcs = tuple((c, heads[c]) for c in W if heads[c] in W)
    expected = DenseGraph(W, arcs, naive_graph_shape(W, heads.get))
    assert dense_graph(Element(g, b), S, H, u) == expected


@pytest.mark.parametrize("spec", ["Z6", "Z12", "Z2xZ4", "Z3xZ3"])
def test_graph_shape_matches_successor_walk_oracle(spec):
    """`_graph_shape` on random vertex sets W of G and every generator b."""
    g = parse_group(spec)
    rng = random.Random(spec)
    draws = [[], list(range(g.order))] + [
        rng.sample(range(g.order), rng.randint(1, g.order)) for _ in range(300)
    ]
    for W in draws:
        W = tuple(sorted(W))
        for b in range(g.order):
            succ = {c: g.add_index(c, b) for c in W}
            arcs = tuple((c, succ[c]) for c in W if succ[c] in W)
            shape = naive_graph_shape(W, succ.get)
            assert construct._graph_shape(W, arcs) == shape, (W, b)


def test_classify_rotates_once_per_coset_met(monkeypatch):
    g = make_group([4096])
    H = Subgroup.trivial(g)
    S = gset(g, [5, 700, 4000])
    calls = count_work(monkeypatch)
    classes = classify_cosets(S, H, 3)
    assert calls["rotations"] <= 3
    assert len(classes) == 4096
    q = quotient(g, H)
    met = {q.project(x) for x in (5, 700, 4000)}
    assert {cc.coset for cc in classes if cc.label != "empty"} == met


# -- dense Cayley subgraph -------------------------------------------------

def test_dense_graph_empty_is_vacuous_path():
    g = make_group([12])
    H = generated_subgroup(g, gset(g, [6]))
    gr = dense_graph(g.element(1), GroupSet(g), H, 16)
    assert gr.vertices == () and gr.shape == "path"


def test_dense_graph_two_vertex_path():
    g = make_group([24])
    H = generated_subgroup(g, gset(g, [12]))  # cosets indexed by residue mod 12
    b = g.element(1)
    # make cosets 0 and 1 dense (u = 16 -> dense needs |Q \ S| < 17/4)
    S = gset(g, [0, 12, 1, 13])
    gr = dense_graph(b, S, H, 16)
    assert set(gr.vertices) == {0, 1}
    assert gr.arcs == ((0, 1),)
    assert gr.shape == "path"


def test_dense_graph_three_coset_progression():
    g = make_group([24])
    H = generated_subgroup(g, gset(g, [12]))
    b = g.element(1)
    S = gset(g, [0, 12, 1, 13, 2, 14])
    gr = dense_graph(b, S, H, 16)
    assert set(gr.vertices) == {0, 1, 2}
    assert gr.shape == "path"
    assert set(gr.arcs) == {(0, 1), (1, 2)}


def test_dense_graph_self_loops_when_b_in_h():
    g = make_group([24])
    H = generated_subgroup(g, gset(g, [12]))
    S = gset(g, [0, 12])
    gr = dense_graph(g.element(12), S, H, 16)
    assert gr.shape == "cycle"


def test_dense_graph_rejects_generator_of_another_group():
    g = make_group([9])
    H = generated_subgroup(g, gset(g, [3]))
    b = parse_group("Z3xZ3").element(1, 0)
    with pytest.raises(GroupMismatchError):
        dense_graph(b, gset(g, [0, 3, 6]), H, 4)


def test_dense_graph_builds_the_quotient_once(monkeypatch):
    calls = []
    real = construct.quotient

    def counted(group, H):
        calls.append(H)
        return real(group, H)

    monkeypatch.setattr(construct, "quotient", counted)
    g = make_group([24])
    H = generated_subgroup(g, gset(g, [12]))
    gr = dense_graph(g.element(1), gset(g, [0, 12, 1, 13]), H, 16)
    assert gr.arcs == ((0, 1),)
    assert len(calls) == 1


# -- subset growth ---------------------------------------------------------

def test_greedy_grow_zero_and_trace_identity():
    g = make_group([100])
    A = gset(g, [1, 2, 3, 4])
    t = greedy_grow(A, 0)
    assert t.steps == () and t.final_set.card == 0
    t = greedy_grow(A, 3)
    size = 1
    for step in t.steps:
        size += step.delta
        assert step.sigma_size == size


def test_greedy_grow_example():
    g = make_group([100])
    t = greedy_grow(gset(g, [1, 2, 3, 4]), 2)
    # all first-step gains are 1, tie-break picks 1; then Delta maximizer 2
    assert [s.element for s in t.steps] == [1, 2]
    assert t.final_set.members() == [1, 2]


# non-cyclic groups of order at most 40, for the argmax oracles
PRODUCT_GROUPS = ["Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z4xZ4", "Z2xZ6",
                  "Z2xZ2xZ4", "Z3xZ6", "Z2xZ10", "Z2xZ2xZ2xZ2xZ2"]


def test_greedy_grow_takes_the_lowest_argmax_each_step():
    rng = random.Random(11)
    cases = []
    for _ in range(50):
        n = rng.randint(2, 40)
        g = make_group([n])
        A = gset(g, rng.sample(range(n), rng.randint(1, n)))
        cases.append((g, A, rng.randint(0, A.card)))
    for _ in range(50):
        g = parse_group(rng.choice(PRODUCT_GROUPS))
        A = gset(g, rng.sample(range(g.order), rng.randint(1, g.order)))
        cases.append((g, A, rng.randint(0, A.card)))
    for g, A, u in cases:
        chosen, sigma = [], [0]
        for step in greedy_grow(A, u).steps:
            rest = [c for c in A.members() if c not in chosen]
            deltas = [naive_delta(g, sigma, c) for c in rest]
            assert (step.element, step.delta) == (rest[deltas.index(max(deltas))], max(deltas))
            chosen.append(step.element)
            sigma = sorted(set(sigma) | {g.add_index(s, step.element) for s in sigma})
            assert step.sigma_size == len(sigma)


def naive_argmax(g, S, C):
    """Lowest c in C of the largest |(S + c) \\ S|, and that gain, one c at a time."""
    deltas = [naive_delta(g, S, c) for c in C]
    return C[deltas.index(max(deltas))], max(deltas)


@given(st.sampled_from(["Z1", "Z2", "Z12", "Z40"] + PRODUCT_GROUPS), st.data())
@settings(max_examples=150, deadline=None)
def test_witnesses_take_the_lowest_argmax(spec, data):
    # S of every size, so the scan's stop at min(|S|, |G \ S|) is met at
    # the first candidate, later, or never
    g = parse_group(spec)
    S = data.draw(st.lists(st.integers(0, g.order - 1), unique=True))
    C = data.draw(st.lists(st.integers(0, g.order - 1), unique=True, min_size=1))
    want = naive_argmax(g, S, sorted(C))
    w = witness_easy(gset(g, C), gset(g, S))
    assert (w.element.index, w.delta) == want
    # the unit vectors make C generate G, as witness_hard requires
    units = {s for n, s in zip(g.factors, g.strides) if n > 1}
    C = sorted(set(C) | units)
    w = witness_hard(gset(g, C), gset(g, S))
    assert (w.element.index, w.delta) == naive_argmax(g, S, C)


@pytest.mark.parametrize("S", [[0], [x for x in range(64) if x != 5]])
def test_witness_easy_stops_at_the_first_candidate_reaching_the_bound(S, monkeypatch):
    # min(|S|, |G \ S|) = 1, from either side, and every c != 0 gains 1
    g = make_group([64])
    calls = count_work(monkeypatch)
    w = witness_easy(gset(g, range(1, 64)), gset(g, S))
    assert (w.element.index, w.delta) == (1, 1)
    assert calls["rotations"] == 1, calls


def test_greedy_grow_stops_each_scan_at_its_bound(monkeypatch):
    # A = {1, 2, 4, ..., 2^(u-1)} in Z_{2^u}: before step k, Sigma is
    # {0, ..., 2^k - 1}, and its lowest candidate 2^k gains 2^k = |Sigma|,
    # the bound; so each step costs one rotation to scan and one to grow
    u = 12
    g = make_group([1 << u])
    A = gset(g, [1 << i for i in range(u)])
    calls = count_work(monkeypatch)
    trace = greedy_grow(A, u)
    assert [s.element for s in trace.steps] == [1 << i for i in range(u)]
    assert trace.steps[-1].sigma_size == g.order
    assert calls["rotations"] <= 2 * u, calls


def test_greedy_grow_precondition():
    g = make_group([10])
    with pytest.raises(ValueError):
        greedy_grow(gset(g, [1]), 2)
    with pytest.raises(ValueError, match="must be >= 0"):
        greedy_grow(gset(g, [1, 2, 3]), -1)


def test_best_half_symmetric_pair():
    g = make_group([9])
    B, size = best_half_subset(gset(g, [2, 7]))  # {a, -a}
    assert size == 2
    assert B.members() == [2]  # lexicographically least of the tie


def test_best_half_example():
    g = make_group([100])
    B, size = best_half_subset(gset(g, [1, 2, 3, 4]))
    assert size == 4
    # every pair realizes |Sigma| = 4; ties resolve to the least subset
    assert B.members() == [1, 2]


def test_best_half_dominates_greedy():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(5, 20)
        g = make_group([n])
        u = rng.randint(1, 3)
        pool = rng.sample(range(1, n), min(2 * u, n - 1))
        if len(pool) % 2:
            pool.pop()
        if not pool:
            continue
        A = gset(g, pool)
        u = A.card // 2
        _, best = best_half_subset(A)
        greedy_sigma = subset_sums(greedy_grow(A, u).final_set)
        assert best >= greedy_sigma.card


def test_best_half_oracle_small():
    from itertools import combinations
    from conftest import naive_sigma

    g = make_group([13])
    A = gset(g, [1, 3, 4, 7, 9, 11])
    _, size = best_half_subset(A)
    brute = max(
        len(naive_sigma(g, comb)) for comb in combinations(A.members(), 3)
    )
    assert size == brute


def test_best_half_enters_a_prefix_whose_bound_beats_the_best_by_one():
    # after {1, 3, 4} (|Sigma| = 7) the prefix {1, 4} has |Sigma| = 4 and
    # bound 4 * 2 = 8, and its leaf {1, 4, 8} reaches 8
    g = make_group([10])
    B, size = best_half_subset(gset(g, [1, 3, 4, 6, 8, 9]))
    assert (B.members(), size) == ([1, 4, 8], 8)


HALF_GROUPS = [
    "Z7", "Z10", "Z12", "Z16", "Z31", "Z64", "Z2xZ4", "Z3xZ6", "Z2xZ2xZ4", "Z4xZ4",
]


@given(st.sampled_from(HALF_GROUPS), st.data())
@settings(max_examples=60, deadline=None)
def test_best_half_matches_combinations_loop(spec, data):
    g = parse_group(spec)
    m = data.draw(st.sampled_from(range(0, min(12, g.order) + 1, 2)))
    A = gset(g, data.draw(st.lists(st.integers(0, g.order - 1), unique=True,
                                   min_size=m, max_size=m)))
    B, size = best_half_subset(A)
    want_B, want_size = half_subset_loop(A)
    assert (B.members(), size) == (want_B.members(), want_size)


SPAN_GROUPS = ["Z12", "Z16", "Z24", "Z48", "Z2xZ8", "Z4xZ4", "Z3xZ6", "Z2xZ2xZ4", "Z6xZ6"]


@given(st.sampled_from(SPAN_GROUPS), st.data())
@settings(max_examples=60, deadline=None)
def test_best_half_inside_a_proper_subgroup_matches_combinations_loop(spec, data):
    # Sigma(B) lies in <A>, so the bound and the early stop use |<A>|
    g = parse_group(spec)
    gens = data.draw(st.lists(st.integers(1, g.order - 1), min_size=1, max_size=2))
    K = generated_subgroup(g, gset(g, gens))
    assume(len(K) < g.order)
    m = data.draw(st.sampled_from(range(0, min(12, len(K)) + 1, 2)))
    A = gset(g, data.draw(st.lists(st.sampled_from(K.members()), unique=True,
                                   min_size=m, max_size=m)))
    B, size = best_half_subset(A)
    want_B, want_size = half_subset_loop(A)
    assert (B.members(), size) == (want_B.members(), want_size)


def test_best_half_stops_at_the_span_of_a(monkeypatch):
    # the 24 even elements of Z48: |<A>| = 24 is reached at the first leaf,
    # so the walk yields the root and one node per level, u = 12 rotations
    # by its inline plans, and `count_work` sees only the closure <A> and
    # its check
    walks = []

    def counted(*args):
        walks.append(CountedWalk(subset_walk(*args)))
        return walks[-1]

    monkeypatch.setattr(construct, "subset_walk", counted)
    calls = count_work(monkeypatch)
    g = make_group([48])
    B, size = best_half_subset(gset(g, range(0, 48, 2)))
    assert (B.members(), size) == (list(range(0, 24, 2)), 24)
    [walk] = walks
    assert walk.nodes - 1 <= 12, walk.nodes  # the root costs no rotation
    assert calls["rotations"] <= 4 * math.log2(48), calls


def test_best_half_capacity():
    g = make_group([40])
    big = gset(g, range(1, 27))
    with pytest.raises(CapacityError):
        best_half_subset(big)
    with pytest.raises(ValueError, match="must be even"):
        best_half_subset(gset(g, range(1, 28)))


def test_best_half_trivial_stab_bound():
    # 16 |Sigma(B)| >= u^2 whenever stab(Sigma(A)) is trivial, 0 not in A
    rng = random.Random(7)
    g = make_group([16])
    checked = 0
    while checked < 20:
        pool = rng.sample(range(1, 16), 6)
        A = gset(g, pool)
        if len(stabilizer(subset_sums(A))) != 1:
            continue
        _, size = best_half_subset(A)
        assert 16 * size >= 9
        checked += 1
