"""Shared brute-force oracles.

The `naive_*` oracles are kept independent of the bitmap kernels.  The
`*_loop` oracles check one instance at a time, computing its Sigma with
`subset_sums` and formatting every report, so they pin the output of the
subset walk's clients and of the incremental hill-climb in `verify` byte
for byte.  `count_work` counts rotations and element additions for the
work-budget tests, `count_calls` the calls of any library function, and
`CountedWalk` the nodes a subset walk yields.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

from sigmaforge import (
    ExtremalRecord,
    GroupSet,
    SequenceMS,
    make_group,
    VerificationRun,
    corollary_bound,
    kneser_bound,
    main_bound_check,
    sequence_bound_check,
    stabilizer,
    subset_sums,
)
import sigmaforge
from sigmaforge import bounds, cli, construct, groups, setcalc, verify


def naive_literal(group, mask):
    """`GroupSet.literal` one element at a time: sorted `element_literal`s.

    Bit i is read from the binary string, so a sparse set of a large group
    costs |G| string lookups, not |G| shifts of a |G|-bit int.
    """
    bits = format(mask, "b")[::-1].ljust(group.order, "0")
    return ";".join(
        group.element_literal(i) for i in range(group.order) if bits[i] == "1"
    )


def naive_sumset(group, A, B):
    return sorted({group.add_index(a, b) for a in A for b in B})


def naive_sigma(group, elems):
    """Subset sums as a set of indices, by `add_index` alone.

    A subset of the first i elements either omits the i-th or adds it to
    a subset of the first i - 1, so the sums of the first i are those of
    the first i - 1 together with those plus the i-th.  That costs
    |A|·|Sigma| additions, not the 2^|A| of listing every subset, so the
    oracle reaches sets as large as the group.
    """
    out = {0}
    for x in elems:
        out |= {group.add_index(s, x) for s in out}
    return sorted(out)


def naive_subseq_sigma(group, terms):
    """Subsequence sums by enumerating every subsequence of the term list."""
    out = set()
    terms = list(terms)
    for r in range(len(terms) + 1):
        for comb in itertools.combinations(range(len(terms)), r):
            s = 0
            for i in comb:
                s = group.add_index(s, terms[i])
            out.add(s)
    return sorted(out)


def naive_stab(group, members):
    """Stabilizer by testing every shift."""
    mem = set(members)
    out = []
    for g in range(group.order):
        if {group.add_index(x, g) for x in mem} == mem:
            out.append(g)
    return out


def naive_closure(group, gens):
    """Generated subgroup by repeated addition until stable."""
    cur = {0}
    gens = set(gens) | {group.neg_index(x) for x in gens}
    while True:
        nxt = set(cur)
        for a in cur:
            for b in gens:
                nxt.add(group.add_index(a, b))
        if nxt == cur:
            return sorted(cur)
        cur = nxt


def naive_quotient(group, members):
    """Cosets of a subgroup numbered in order of first appearance.

    Returns (coset_of, reps): coset_of[i] is the coset number of element i,
    reps[c] the least element of coset c.
    """
    coset_of = [-1] * group.order
    reps = []
    for i in range(group.order):
        if coset_of[i] < 0:
            for h in members:
                coset_of[group.add_index(i, h)] = len(reps)
            reps.append(i)
    return coset_of, reps


def naive_coset_profile(group, members, terms):
    """rho of `coset_profile` from `naive_quotient`'s coset numbers.

    rho[j-1] counts the cosets other than H itself that hold at least j of
    the terms, each term counted once per occurrence.
    """
    coset_of, _ = naive_quotient(group, members)
    counts = {}
    for x in terms:
        if coset_of[x] != coset_of[0]:
            counts[coset_of[x]] = counts.get(coset_of[x], 0) + 1
    top = max(counts.values(), default=0)
    return tuple(sum(v >= j for v in counts.values()) for j in range(1, top + 1))


def naive_graph_shape(W, succ):
    """Shape of the graph on the vertices W with arcs v -> succ(v) in W.

    `cycle` when every vertex's successor lies in W; else `path` when W is
    empty or the successor walk from some vertex of W visits all of W;
    else `other`.  Read from the successor map alone, with no arc count.
    """
    W = set(W)
    if not W:
        return "path"
    if all(succ(v) in W for v in W):
        return "cycle"
    for start in W:
        seen, v = set(), start
        while v in W and v not in seen:
            seen.add(v)
            v = succ(v)
        if seen == W:
            return "path"
    return "other"


def naive_canonical(images, members):
    """Whether the sorted `members` are the lex-least of their images.

    Each image is the sorted list of t[x] for x in `members`, for an index
    table t in `images`; the identity is implicit.
    """
    members = sorted(members)
    return all(members <= sorted(t[x] for x in members) for t in images)


def naive_mask(group, items):
    """Bitmap of ints and `Element`s, one OR per item and no checks."""
    mask = 0
    for x in items:
        mask |= 1 << (x.index if isinstance(x, groups.Element) else x)
    return mask


def exhaustive_loop(group, theorem):
    """`exhaustive_theorem(group, "main" | "corollary")`, one subset at a time.

    Subsets are checked in mask order, which is the counterexample order;
    the witness is the lex-least member list among the least-slack subsets.
    """
    check = main_bound_check if theorem == "main" else corollary_bound
    counterexamples = []
    best = None  # ((slack, members), literal)
    for mask in range(1 << group.order):
        A = GroupSet(group, mask)
        rep = check(A)
        if not rep.holds:
            counterexamples.append({"set": A.literal(), "report": rep.to_dict()})
        key = (rep.lhs - rep.rhs, A.members())
        if best is None or key < best[0]:
            best = (key, A.literal())
    stats = {"instances": 1 << group.order, "min_slack": best[0][0], "witness": best[1]}
    return VerificationRun(
        theorem=theorem, group=group.spec(), mode="exhaustive",
        counterexamples=counterexamples, stats=stats,
    )


def kneser_pairs_loop(group):
    """`exhaustive_theorem(group, "kneser-pairs")`, one pair at a time.

    Pairs (A, B) of nonempty subsets are checked in mask order, which is the
    counterexample order; the witness is the least
    (slack, (members of A, members of B)).
    """
    counterexamples = []
    best = None  # ((slack, members), literal)
    nonempty = range(1, 1 << group.order)
    for a, b in itertools.product(nonempty, repeat=2):
        A, B = GroupSet(group, a), GroupSet(group, b)
        literal = f"{A.literal()}|{B.literal()}"
        rep = kneser_bound((A, B))
        if not rep.holds:
            counterexamples.append({"sets": literal, "report": rep.to_dict()})
        key = (rep.lhs - rep.rhs, (A.members(), B.members()))
        if best is None or key < best[0]:
            best = (key, literal)
    stats = {"instances": len(nonempty) ** 2, "min_slack": best[0][0], "witness": best[1]}
    return VerificationRun(
        theorem="kneser-pairs", group=group.spec(), mode="exhaustive",
        counterexamples=counterexamples, stats=stats,
    )


def search_loop(group, k):
    """`extremal_search(group, k)` over `itertools.combinations`."""
    best = None  # (|Sigma|, idxs)
    for idxs in itertools.combinations(range(1, group.order), k):
        sigma = subset_sums(GroupSet.from_indices(group, idxs))
        if len(stabilizer(sigma)) == 1 and (best is None or (sigma.card, idxs) < best):
            best = (sigma.card, idxs)
    if best is None:
        return ExtremalRecord(group=group.spec(), k=k, mode="exhaustive", feasible=False)
    size, idxs = best
    return ExtremalRecord(
        group=group.spec(), k=k, mode="exhaustive", feasible=True,
        best_set=GroupSet.from_indices(group, idxs).literal(), sigma_size=size,
        stabilizer_size=1, ratio_num=4 * (size - 1), ratio_den=k * k,
    )


def hillclimb_loop(group, k, seed, restarts):
    """`extremal_search(group, k, "hillclimb", seed, restarts)`, one neighbour at a time.

    Every neighbour A - out + inc is rebuilt as a sorted tuple and scored
    from scratch (`subset_sums` and `stabilizer`); a step moves to the least
    feasible (|Sigma|, members) neighbour that beats the current set.
    """
    nonzero = list(range(1, group.order))

    def score(idxs):
        sigma = subset_sums(GroupSet.from_indices(group, idxs))
        return sigma.card if len(stabilizer(sigma)) == 1 else None

    rng = random.Random(seed)
    best = None  # (|Sigma|, idxs)
    for _ in range(restarts):
        current = tuple(sorted(rng.sample(nonzero, k)))
        cur_size = score(current)
        while True:
            improved = None
            for out in current:
                for inc in nonzero:
                    if inc in current:
                        continue
                    cand = tuple(sorted(set(current) - {out} | {inc}))
                    size = score(cand)
                    if size is None:
                        continue
                    if cur_size is None or (size, cand) < (cur_size, current):
                        if improved is None or (size, cand) < improved:
                            improved = (size, cand)
            if improved is None:
                break
            cur_size, current = improved
        if cur_size is not None and (best is None or (cur_size, current) < best):
            best = (cur_size, current)
    mode = f"hillclimb(seed={seed},restarts={restarts})"
    if best is None:
        return ExtremalRecord(
            group=group.spec(), k=k, mode=mode, feasible=False,
            seed=seed, restarts=restarts,
        )
    size, idxs = best
    A = GroupSet.from_indices(group, idxs)
    sigma = subset_sums(A)
    H = stabilizer(sigma)
    outside = (A.mask & ~H.mask).bit_count()
    return ExtremalRecord(
        group=group.spec(), k=k, mode=mode, feasible=True,
        best_set=A.literal(), sigma_size=sigma.card, stabilizer_size=len(H),
        ratio_num=4 * (sigma.card - len(H)), ratio_den=outside * outside,
        seed=seed, restarts=restarts,
    )


def half_subset_loop(A):
    """`best_half_subset(A)` over `itertools.combinations`, Sigma from `naive_sigma`.

    The |A|/2-subsets come in lex order of their member lists, and only a
    strictly larger |Sigma| replaces the best, so the lex-first subset of
    maximal |Sigma| wins.
    """
    g = A.group
    best = None  # (|Sigma|, idxs)
    for idxs in itertools.combinations(A.members(), A.card // 2):
        size = len(naive_sigma(g, idxs))
        if best is None or size > best[0]:
            best = (size, idxs)
    return GroupSet.from_indices(g, best[1]), best[0]


def kneser_loop(groups, m_max, trials, seed):
    """`random_kneser` with the whole instance literal as the tie-break key.

    Draws the same instances from the same seeded RNG; the witness is the
    least (slack, literal).
    """
    groups = list(groups)
    rng = random.Random(seed)
    counterexamples = []
    best = None  # (slack, literal)
    for _ in range(trials):
        g = rng.choice(groups)
        sets = []
        for _ in range(rng.randint(1, m_max)):
            size = rng.randint(1, g.order)
            sets.append(GroupSet.from_indices(g, rng.sample(range(g.order), size)))
        literal = f"{g.spec()}:" + "|".join(s.literal() for s in sets)
        rep = kneser_bound(sets)
        if not rep.holds:
            counterexamples.append(
                {"group": g.spec(), "sets": literal, "report": rep.to_dict()}
            )
        key = (rep.lhs - rep.rhs, literal)
        if best is None or key < best:
            best = key
    stats = {"instances": trials, "min_slack": best[0], "witness": best[1]}
    return VerificationRun(
        theorem="kneser", group=";".join(g.spec() for g in groups),
        mode="random", counterexamples=counterexamples, stats=stats,
        seed=seed, trials=trials,
    )


def sequence_loop(group, n_max, trials, seed):
    """`random_sequence_theorem` with the whole literal as the tie-break key.

    Draws each term with `rng.randrange` and formats every literal in full
    (`x:m` per distinct term, by index); the witness is the least
    (slack, literal).
    """
    rng = random.Random(seed)
    counterexamples = []
    best = None  # (slack, literal)
    for _ in range(trials):
        terms = [rng.randrange(group.order) for _ in range(rng.randint(0, n_max))]
        mult = sorted(Counter(terms).items())
        literal = ";".join(f"{group.element_literal(x)}:{m}" for x, m in mult)
        rep = sequence_bound_check(SequenceMS.from_terms(group, terms))
        if not rep.holds:
            counterexamples.append({"sequence": literal, "report": rep.to_dict()})
        key = (rep.lhs - rep.rhs, literal)
        if best is None or key < best:
            best = key
    stats = {"instances": trials, "min_slack": best[0], "witness": best[1]}
    return VerificationRun(
        theorem="sequence", group=group.spec(), mode="random",
        counterexamples=counterexamples, stats=stats, seed=seed, trials=trials,
    )


def completeness_loop(theorem, n, t, sample=None, seed=None):
    """`olson_check(n)` or `vu_check(n, sample, seed)` at threshold `t`.

    The instances are the `combinations` of the nonzero elements (Olson) or
    of the units (Vu) with at least `t` members, or, with `sample`, the
    same seeded draws as `vu_check`; each Sigma comes from `naive_sigma`.
    The witness is the least (slack, member tuple).
    """
    group = make_group([n])
    if theorem == "olson":
        elems = list(range(1, n))
        extra = {"threshold": t}
    else:
        elems = [a for a in range(1, n) if math.gcd(a, n) == 1]
        extra = {"threshold": t, "phi": len(elems)}
    if sample is None:
        instances = [
            A for k in range(t, len(elems) + 1)
            for A in itertools.combinations(elems, k)
        ]
    else:
        rng = random.Random(seed)
        instances = [
            tuple(sorted(rng.sample(elems, rng.randint(t, len(elems)))))
            for _ in range(sample)
        ]
    counterexamples = []
    best = None  # (slack, idxs)
    for idxs in instances:
        size = len(naive_sigma(group, idxs))
        if size < n:
            literal = ";".join(map(group.element_literal, idxs))
            counterexamples.append({"set": literal, "sigma_size": size})
        if best is None or (size - n, idxs) < best:
            best = (size - n, idxs)
    stats = {
        "instances": len(instances), **extra, "min_slack": best[0],
        "witness": ";".join(map(group.element_literal, best[1])),
    }
    return VerificationRun(
        theorem=theorem, group=group.spec(),
        mode="exhaustive" if sample is None else "random",
        counterexamples=counterexamples, stats=stats, seed=seed, trials=sample,
    )


class CountedWalk:
    """A `subset_walk` that counts the nodes it yields, passing `send` on.

    The walk rotates inline, by per-element plans, so `count_work` does
    not see its rotations: every node but the root costs at most one.
    """

    def __init__(self, walk):
        self.walk, self.nodes = walk, 0

    def __iter__(self):
        return self

    def __next__(self):
        node = next(self.walk)
        self.nodes += 1
        return node

    def send(self, value):
        return self.walk.send(value)


def _patch_everywhere(monkeypatch, real, replacement, *more):
    """Bind `replacement` under every name that binds `real` in a `sigmaforge`
    module, or in one of the modules `more`."""
    for module in (sigmaforge, groups, setcalc, bounds, construct, verify, cli, *more):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, replacement)


def count_work(monkeypatch):
    """Count `_shift_mask` calls and `add_index` calls.

    `_shift_mask` is replaced under every name that binds it in a
    `sigmaforge` module: `construct` and `verify` import it by name, so
    patching `groups` and `setcalc` alone would count their rotations as 0.
    Rotations done inline are not counted: the one-factor fold of
    `subset_sums` and the per-element plans of `subset_walk`.
    Returns the live counts, {"rotations": r, "additions": a}.
    """
    calls = {"rotations": 0, "additions": 0}
    shift_mask, add_index = groups._shift_mask, groups.Group.add_index

    def rotating(group, mask, g):
        calls["rotations"] += 1
        return shift_mask(group, mask, g)

    def adding(group, i, j):
        calls["additions"] += 1
        return add_index(group, i, j)

    _patch_everywhere(monkeypatch, shift_mask, rotating)
    monkeypatch.setattr(groups.Group, "add_index", adding)
    return calls


def count_calls(monkeypatch, *functions):
    """Count calls of each function, replaced as `count_work` replaces
    `_shift_mask`.  Returns the live counts keyed by function name."""
    calls = dict.fromkeys((f.__name__ for f in functions), 0)
    for f in functions:

        def counting(*args, _f=f, **kwargs):
            calls[_f.__name__] += 1
            return _f(*args, **kwargs)

        _patch_everywhere(monkeypatch, f, counting)
    return calls
