"""Constructive procedures behind the growth lemmas.

Witness extraction scans for the shift-growth argmax over a candidate
set, the sparse/dense coset classifier and its Cayley-subgraph
diagnostics cover the coset case analysis, and two subset-growers (a
greedy heuristic and an exact search on `setcalc.subset_walk` that skips
prefixes which cannot beat the best so far) realize the half-size subset
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    CapacityError,
    Element,
    GenerationError,
    GroupMismatchError,
    GroupSet,
    Subgroup,
    _iter_bits,
    _join,
    _shift_mask,
    quotient,
)
from .setcalc import _check_same, generated_subgroup, subset_walk, sumset

HALF_SUBSET_CAP = 24


@dataclass(frozen=True)
class WitnessReport:
    """Argmax of Delta_S over a candidate set, with its guarantee status."""

    element: Element
    delta: int
    guaranteed: bool
    failed_precondition: str | None = None


@dataclass(frozen=True)
class CosetClass:
    coset: int
    label: str  # sparse | dense | balanced | empty
    intersection: int
    deficiency: int
    ambiguous: bool = False


@dataclass(frozen=True)
class DenseGraph:
    vertices: tuple
    arcs: tuple
    shape: str  # path | cycle | other


@dataclass(frozen=True)
class GrowthStep:
    element: int
    delta: int
    sigma_size: int


@dataclass(frozen=True)
class GrowthTrace:
    steps: tuple
    final_set: GroupSet


def _argmax_delta(group, cand: int, s: int):
    """Lowest c in bitmap `cand` maximizing |(S + c) \\ S| for bitmap `s`, and the max.

    The scan stops at the first c that reaches min(|S|, |G \\ S|): no c
    does better, since (S + c) \\ S lies in both S + c and G \\ S, and a
    later c of the same gain loses the tie to this lower one.
    """
    size = s.bit_count()
    bound = min(size, group.order - size)
    best_c, best_d = None, -1
    for c in _iter_bits(cand):
        d = (_shift_mask(group, s, c) & ~s).bit_count()
        if d > best_d:
            best_c, best_d = c, d
            if d == bound:
                break
    return best_c, best_d


def _check_candidates(C: GroupSet, S: GroupSet) -> int:
    """df_S(G) = min(|S|, |G \\ S|), once C is nonempty and in S's group."""
    if C.mask == 0:
        raise ValueError("candidate set must be nonempty")
    if C.group != S.group:
        raise GroupMismatchError("C and S must live in the same group")
    return min(S.card, S.group.order - S.card)


def witness_easy(C: GroupSet, S: GroupSet) -> WitnessReport:
    """Best growth element under the small-deficiency hypothesis.

    The ambient group is C's group; when 2*df_S(G) <= |C| the returned
    element c satisfies 2*Delta_S(c) >= df_S(G).
    """
    df = _check_candidates(C, S)
    c, d = _argmax_delta(C.group, C.mask, S.mask)
    failed = None
    if 2 * df > C.card:
        failed = f"2*df_S(H) = {2 * df} > |C| = {C.card}"
    return WitnessReport(Element(C.group, c), d, failed is None, failed)


def witness_hard(C: GroupSet, S: GroupSet) -> WitnessReport:
    """Best growth element under the large-deficiency hypothesis.

    Requires <C> to be the whole ambient group; when 2*df_S(G) >= |C|
    the returned element c satisfies 8*Delta_S(c) >= |C|.
    """
    df = _check_candidates(C, S)
    gen = generated_subgroup(C.group, C)
    if len(gen) != C.group.order:
        raise GenerationError("C does not generate the ambient group")
    c, d = _argmax_delta(C.group, C.mask, S.mask)
    failed = None
    if 2 * df < C.card:
        failed = f"2*df_S(H) = {2 * df} < |C| = {C.card}"
    return WitnessReport(Element(C.group, c), d, failed is None, failed)


def hard_bound_diagnostic(C: GroupSet, S: GroupSet) -> dict:
    """Replay the r-fold sumset step: D = sum of r copies of C u {0}.

    Reports |D| and whether |D| >= 2*df_S(G) (the inequality the argmax
    guarantee rests on).
    """
    df = _check_candidates(C, S)
    r = (4 * df) // C.card
    cstar = GroupSet(C.group, C.mask | 1)
    D = GroupSet(C.group, 1)
    for _ in range(r):
        D = sumset(D, cstar)
    return {"r": r, "d_size": D.card, "df": df, "holds": D.card >= 2 * df}


def classify_cosets(S: GroupSet, H: Subgroup, u: int):
    """Label every H-coset sparse/dense/balanced/empty at thresholds (u+1)/4.

    Sparse: 0 < 4*|Q & S| < u+1.  Dense: 4*|Q \\ S| < u+1.  Overlaps
    (possible only when 2*|H| < u+1) resolve dense-first with the
    ambiguity flagged.
    """
    return _classify(S, quotient(S.group, H), u)


def _classify(S: GroupSet, q, u: int):
    """`classify_cosets` over the cosets of the quotient map `q`.

    S is peeled one coset at a time: the coset of its least member x left
    is x + H, one rotation of H.  The H-cosets partition G, so the peel
    meets each coset S meets exactly once; a coset S misses has |Q & S| = 0
    and |Q \\ S| = |H|, so it is empty with deficiency 0.
    """
    if u < 0:
        raise ValueError("u must be nonnegative")
    h, size = q.subgroup.mask, q.subgroup.card
    meets = [0] * q.num_cosets
    rest = S.mask
    while rest:
        x = (rest & -rest).bit_length() - 1
        coset = _shift_mask(S.group, h, x)
        meets[q.project(x)] = (coset & rest).bit_count()
        rest &= ~coset
    out = []
    for c, inter in enumerate(meets):
        diff = size - inter
        df = min(inter, diff)
        if inter == 0:
            label, amb = "empty", False
        else:
            sparse = 4 * inter < u + 1
            dense = 4 * diff < u + 1
            if dense:
                label, amb = "dense", sparse
            elif sparse:
                label, amb = "sparse", False
            else:
                label, amb = "balanced", False
        out.append(CosetClass(c, label, inter, df, amb))
    return out


def dense_graph(b: Element, S: GroupSet, H: Subgroup, u: int) -> DenseGraph:
    """Cayley subgraph on the dense H-cosets with generator b + H."""
    _check_same(S, b)
    q = quotient(S.group, H)
    W = tuple(cc.coset for cc in _classify(S, q, u) if cc.label == "dense")
    wset = set(W)
    bcoset = q.project(b.index)
    add = q.quotient_group.add_index
    arcs = tuple((c, t) for c in W if (t := add(c, bcoset)) in wset)
    return DenseGraph(W, arcs, _graph_shape(W, arcs))


def _graph_shape(W, arcs) -> str:
    """`cycle`, `path` or `other` for the dense graph on W with these arcs.

    The arcs are c -> c + b̄ for the c in W whose successor lies in W, and
    c -> c + b̄ is injective, so no vertex has two arcs out or two in: the
    graph is disjoint paths and cycles, and each path has one vertex with
    no arc out, so |W| - |arcs| of them are paths.  So the graph is cycles
    iff |arcs| = |W| > 0.  It is one path iff W is empty, or |arcs| =
    |W| - 1 and the walk from the one vertex with no arc in covers W;
    otherwise cycles sit beside that path, and it is `other`, as it is
    with two or more paths.
    """
    if not W:
        return "path"
    if len(arcs) == len(W):
        return "cycle"
    if len(arcs) != len(W) - 1:
        return "other"
    out = dict(arcs)
    (v,) = set(W).difference(out.values())
    seen = 1
    while v in out:
        v = out[v]
        seen += 1
    return "path" if seen == len(W) else "other"


def greedy_grow(A: GroupSet, u: int) -> GrowthTrace:
    """Grow B from the empty set, always taking the Delta-maximizing element.

    Ties break to the lowest canonical index; each step records the gain
    and the resulting |Sigma(B)|.
    """
    if u < 0:
        raise ValueError(f"u = {u} must be >= 0")
    if u > A.card:
        raise ValueError(f"u = {u} exceeds |A| = {A.card}")
    g = A.group
    chosen_mask = 0
    sigma = 1
    steps = []
    for _ in range(u):
        best_c, best_d = _argmax_delta(g, A.mask & ~chosen_mask, sigma)
        chosen_mask |= 1 << best_c
        sigma |= _shift_mask(g, sigma, best_c)
        steps.append(GrowthStep(best_c, best_d, sigma.bit_count()))
    return GrowthTrace(tuple(steps), GroupSet(g, chosen_mask))


def best_half_subset(A: GroupSet):
    """Exact max of |Sigma(B)| over half-size subsets B of A.

    |A| must be even (= 2u); ties resolve to the lexicographically least
    B.  One `subset_walk` over the prefixes of the u-subsets, in
    `combinations` order; a leaf is taken only when its |Sigma| is strictly
    larger, so the first maximal leaf wins.  Adding one element a at most
    doubles Sigma, since Sigma(B ∪ {a}) = Sigma(B) | (Sigma(B) + a), and
    Sigma(B) lies in <A>; so no u-subset extending B has |Sigma| above
    min(|<A>|, |Sigma(B)|·2^(u - |B|)), and a prefix whose bound does not
    beat the best so far is skipped.  A leaf at min(|<A>|, 2^u) ends the
    walk: nothing can beat it.
    """
    if A.card % 2:
        raise ValueError("|A| must be even")
    if A.card > HALF_SUBSET_CAP:
        raise CapacityError(
            f"|A| = {A.card} exceeds exhaustive cap {HALF_SUBSET_CAP}; use greedy_grow"
        )
    g = A.group
    u = A.card // 2
    span = _join(g, 1, A.mask).bit_count()
    ceiling = min(span, 1 << u)
    best_size, best = -1, 0
    walk = subset_walk(g, A.members(), u)
    for mask, sigma in walk:
        size = sigma.bit_count()
        need = u - mask.bit_count()
        if need:
            if min(span, size << need) <= best_size:
                walk.send(True)
        elif size > best_size:
            best_size, best = size, mask
            if size == ceiling:
                break
    return GroupSet(g, best), best_size
