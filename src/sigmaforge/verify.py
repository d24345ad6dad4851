"""Desk-scale verification harnesses for the subset-sum theorems.

Exhaustive modes enumerate every instance below a capacity cap; random
modes draw instances from a seeded RNG, so every reported number is
replayable.  Every verifier streams its instances, in a fixed order, on a
single thread.  Each shortcut's proof sits in the docstring of the
function that takes it:

- `_subset_theorem`: exhaustive `main`/`corollary`, halving, settlement
  and one walk per automorphism orbit;
- `setcalc.subset_walk`: the subset walk they and `extremal_search`
  share, one rotation per node;
- `extremal_search`: the search's pruning and its hill-climb;
- `_exhaustive_completeness`: exhaustive `olson_check`/`vu_check`, one
  `subset_sums` per bitmap instance, with its witness and counterexample
  order; `_subset_masks`: those bitmaps, each one OR of two half sums;
- `_sample`: the bitmap of the set `Random.sample` draws, with no
  `_randbelow` call or result list per element;
- `_verify`: the driver of the other verifiers.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, product, starmap, zip_longest
from operator import or_

from .groups import (
    CapacityError,
    Group,
    _automorphism_images,
    _iter_bits,
    _shift_mask,
)
from .setcalc import (
    GroupSet,
    SequenceMS,
    _stabilizer_mask,
    stabilizer,
    subset_sums,
    subset_walk,
)
from .bounds import (
    _canonical_json,
    corollary_sides,
    kneser_bound,
    main_sides,
    sequence_bound_check,
    subset_report,
)

EXHAUSTIVE_SUBSET_CAP = 32
KNESER_PAIRS_CAP = 8
OLSON_CAP = 23
VU_ENUM_CAP = 200_000
SEARCH_ENUM_CAP = 10_000_000


@dataclass
class VerificationRun:
    theorem: str
    group: str
    mode: str
    counterexamples: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    seed: int | None = None
    trials: int | None = None
    millis: float | None = field(default=None, compare=False)

    @property
    def verdict(self) -> str:
        if self.stats.get("vacuous"):
            return "vacuous"
        return "counterexample" if self.counterexamples else "verified"

    def to_dict(self, with_timing: bool = False) -> dict:
        stats = dict(self.stats)
        if with_timing:
            stats["millis"] = self.millis
        # seed and trials only when set; millis only in stats, on request
        out = {k: v for k, v in vars(self).items() if v is not None and k != "millis"}
        return {**out, "stats": stats, "verdict": self.verdict}

    def to_json(self, with_timing: bool = False) -> str:
        # timing is excluded by default so identical runs serialize
        # byte-identically
        return _canonical_json(self.to_dict(with_timing))


@dataclass
class ExtremalRecord:
    group: str
    k: int
    mode: str
    feasible: bool
    best_set: str | None = None
    sigma_size: int | None = None
    stabilizer_size: int | None = None
    ratio_num: int | None = None  # 4 * (|Sigma(A)| - |H|)
    ratio_den: int | None = None  # |A \ H|^2
    seed: int | None = None
    restarts: int | None = None

    def to_dict(self) -> dict:
        # every field, but seed and restarts only when set
        return {
            k: v for k, v in vars(self).items()
            if v is not None or k not in ("seed", "restarts")
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())


def _verify(instances, evaluate, literal, precedes, extra_stats=None, **run_fields):
    """Evaluate every instance in order and assemble the run.

    `evaluate(inst)` returns `(slack, payload)`, where `payload` is the
    counterexample record, or None when the instance satisfies the bound.
    The witness is the least instance by slack, then by `precedes`, and the
    first among equals: `precedes(inst, best)` is only called on a slack
    tie, and `literal` formats the witness once, at the end.  `run_fields`
    are the remaining `VerificationRun` fields.
    """
    t0 = time.perf_counter()
    counterexamples = []
    count = 0
    best_slack = best = None
    for inst in instances:
        count += 1
        slack, payload = evaluate(inst)
        if payload is not None:
            counterexamples.append(payload)
        if best_slack is None or slack < best_slack or (
            slack == best_slack and precedes(inst, best)
        ):
            best_slack, best = slack, inst
    witness = None if best_slack is None else literal(best)
    return _run(t0, count, counterexamples, best_slack, witness, extra_stats, **run_fields)


def _run(t0, count, counterexamples, min_slack, witness, extra_stats=None, **run_fields):
    """The `VerificationRun` of `count` instances checked since `t0`.

    A run of no instances is vacuous, with no min_slack or witness.  Only
    the vacuous `vu_check` has none: random runs have trials >= 1,
    `main`/`corollary` count 2^|G| instances, Kneser pairs are nonempty,
    and exhaustive Olson and Vu have t <= |members|.
    """
    stats = {"instances": count, **(extra_stats or {})}
    if count:
        stats.update(min_slack=min_slack, witness=witness)
    else:
        stats["vacuous"] = True
    return VerificationRun(
        counterexamples=counterexamples,
        stats=stats,
        millis=(time.perf_counter() - t0) * 1000.0,
        **run_fields,
    )


def _bound_evaluate(bound, describe):
    """`_verify`'s `evaluate` for a bound: the slack lhs - rhs of `bound(inst)`,
    and for a failing instance the payload `describe(inst)` plus its "report"."""

    def evaluate(inst):
        rep = bound(inst)
        payload = None if rep.holds else {**describe(inst), "report": rep.to_dict()}
        return rep.lhs - rep.rhs, payload

    return evaluate


def exhaustive_theorem(group: Group, theorem: str) -> VerificationRun:
    """Check `main`, `corollary`, or `kneser-pairs` over every instance."""
    if theorem in ("main", "corollary"):
        if group.order > EXHAUSTIVE_SUBSET_CAP:
            raise CapacityError(
                f"|G| = {group.order} exceeds subset-enumeration cap "
                f"{EXHAUSTIVE_SUBSET_CAP}"
            )
        return _subset_theorem(group, theorem)

    if theorem != "kneser-pairs":
        raise ValueError(f"unknown theorem {theorem!r}")
    if group.order > KNESER_PAIRS_CAP:
        raise CapacityError(
            f"|G| = {group.order} exceeds pair-enumeration cap {KNESER_PAIRS_CAP}"
        )
    nonempty = [GroupSet(group, mask) for mask in range(1, 1 << group.order)]

    def precedes(p, q):
        # the A sides' member lists, or the B sides' when the A sides are equal
        i = p[0].mask == q[0].mask
        return _lex_lt(p[i].mask, q[i].mask)

    def literal(pair):
        return f"{pair[0].literal()}|{pair[1].literal()}"

    return _verify(
        product(nonempty, repeat=2),
        _bound_evaluate(kneser_bound, lambda pair: {"sets": literal(pair)}),
        literal, precedes, theorem=theorem, group=group.spec(), mode="exhaustive",
    )


def _subset_theorem(group: Group, theorem: str) -> VerificationRun:
    """`main` or `corollary` on every subset of `group`, by `subset_walk`.

    Halving: Sigma(B ∪ {0}) = Sigma(B) and 0 lies in every H, so B and
    B ∪ {0} have the same terms (|Sigma|, |H|, |A \\ H|) and the same slack.
    The walk visits the subsets B of G \\ {0} only, and each node counts for
    both sets.  The sets that hold 0 come right after [] in lex order, so
    the witness is [] if its slack is least, and otherwise {0} ∪ B* for the
    walk's first least-slack node B*; failing sets are listed in pairs
    (B, B ∪ {0}), in mask order.

    Settlement: a node B with Sigma(B) = G has the terms (|G|, |G|, 0), and
    so has every extension, since H = G.  Under both theorems that slack is
    0, which is not negative and ties [], which precedes B; so no set in
    B's subtree fails or is the witness, and the walk settles the subtree:
    it does not yield it.  Under sides where that slack is
    negative or below that of [], the walk does not settle and yields every
    subset.  stab(Sigma(A)) is a function of Sigma(A) alone, so it is
    computed once per distinct Sigma mask.  Reports and literals are built
    only for the failing subsets and for the witness.

    Orbits: an automorphism phi maps Sigma(B) to phi(Sigma(B)) and stab to
    phi(stab), so B and phi(B) have the same terms and slack.  The walk is
    orderly under the maps of `groups._automorphism_images`, which fix 0
    and so map G \\ {0} onto itself: it yields only the canonical B.
    - The witness is canonical: the lex-first set with the least slack is,
      since each of its images has that slack.
    - A set fails only if some canonical set fails.  A failing B that is
      not canonical has an image phi(B) that precedes it and fails too;
      a strictly falling lex chain is finite, so it ends at a failing
      canonical set.  So if no canonical node fails, none fails; if one
      does, the plain walk runs again and lists every failure in mask order.
    `instances` is 2^|G| either way, by arithmetic: neither settled nor
    non-canonical subsets are yielded.

    `main` cannot fail below order 66.  Each a in A is a subset sum and
    H ⊆ Sigma, so A \\ H ⊆ Sigma \\ H, and k = |A \\ H| <= s = |Sigma| - |H|.
    Then 64s - k^2 >= s(64 - s) >= 0 whenever s <= 64, and s <= |G| - 1.
    So under `EXHAUSTIVE_SUBSET_CAP` the fallback runs only for sides
    other than the paper's, such as a test's tightened ones.
    """
    t0 = time.perf_counter()
    sides = main_sides if theorem == "main" else corollary_sides
    n = group.order

    def slack(*terms):
        lhs, rhs = sides(*terms)
        return lhs - rhs

    empty = slack(1, 1, 0)  # [] has Sigma = H = {0}
    settle = slack(n, n, 0) >= max(empty, 0)
    terms = {}  # Sigma mask -> (|Sigma|, H mask, |H|), H = stab(Sigma)
    # one subset per orbit; on a failure, every subset, to list them all
    for images in (_automorphism_images(group), None):
        least, best, failing = empty, None, []  # best: first node below []
        for mask, sigma in subset_walk(group, range(1, n), settle=settle, images=images):
            t = terms.get(sigma)
            if t is None:
                h = _stabilizer_mask(group, sigma)
                t = terms[sigma] = (sigma.bit_count(), h, h.bit_count())
            sigma_size, h_mask, h_size = t
            outside = (mask & ~h_mask).bit_count()
            lhs, rhs = sides(sigma_size, h_size, outside)
            s = lhs - rhs
            if s < 0:
                failing.append((mask, sigma_size, h_size, outside))
            if s < least:
                least, best = s, mask
        if not failing:
            break
    counterexamples = [
        {
            "set": GroupSet(group, m).literal(),
            "report": subset_report(theorem, *t).to_dict(),
        }
        for mask, *t in sorted(failing)
        for m in (mask, mask | 1)
    ]
    witness = 0 if best is None else best | 1
    return _run(
        t0, 1 << n, counterexamples, least, GroupSet(group, witness).literal(),
        theorem=theorem, group=group.spec(), mode="exhaustive",
    )


def _sample(rng, n, k):
    """The bitmap of the set `rng.sample(range(n), k)` draws, from `rng.getrandbits`.

    Mirrors CPython's `Random.sample`: a partial Fisher-Yates shuffle of a
    pool when n <= `setsize`, else redraws of any index already picked.
    Each `_randbelow(m)` is inlined as `getrandbits(m.bit_length())`,
    redrawn while >= m, so the stream is consumed word for word as `sample`
    consumes it, and the drawn set and the state left in `rng` are the same
    (for a plain `random.Random`, whose `_randbelow` is that one).  The set
    branch's one loop rejects an out-of-range word and a repeated index
    alike, as the two nested loops of `sample` do.  Drawn indices are
    flagged "1" in a bytearray (the set branch's membership test too), which
    `int(..., 2)` reads; a `map` of `flags.__setitem__` costs more per flag
    than the loop's item store.
    """
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    if not k:  # also n = 0, where int(b"", 2) raises
        return 0
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    flags = bytearray(b"0") * n
    if n <= setsize:
        pool = list(range(n))
        top, stop = n - 1, n - k - 1  # top = m - 1
        while top > stop:
            bits = (top + 1).bit_length()
            low = max(stop, (1 << bits - 1) - 2)  # m >= 2^(bits - 1) in this run
            for top in range(top, low, -1):
                j = getrandbits(bits)
                while j > top:
                    j = getrandbits(bits)
                flags[pool[j]] = 49  # ord("1")
                pool[j] = pool[top]
            top = low
    else:
        bits = n.bit_length()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or flags[j] == 49:
                j = getrandbits(bits)
            flags[j] = 49
    flags.reverse()
    return int(flags, 2)


def _kneser_text(inst):
    """The literal `spec:x;y;...|...` of a Kneser instance, piece by piece."""
    g, sets = inst
    yield g.spec() + ":"
    for i, s in enumerate(sets):
        if i:
            yield "|"
        for j, x in enumerate(_iter_bits(s.mask)):
            if j:
                yield ";"
            yield g.element_literal(x)


def _text_lt(xs, ys) -> bool:
    """`"".join(xs) < "".join(ys)`, reading both only up to the first difference.

    Slack ties are common (Kneser equality; on Z2^n every sequence ties at
    0, as Sigma is a subgroup), and a literal can list thousands of
    elements, while two instances usually differ early.  The empty fill
    sorts a text that is a prefix of the other first, as `str` comparison
    does.
    """
    pairs = zip_longest(chain.from_iterable(xs), chain.from_iterable(ys), fillvalue="")
    return next((a < b for a, b in pairs if a != b), False)


def random_kneser(groups, m_max: int, trials: int, seed: int) -> VerificationRun:
    """Seeded random m-tuples (m <= m_max) of nonempty sets, one group each."""
    if seed is None:
        raise ValueError("random_kneser requires a seed")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    groups = list(groups)
    if not groups:
        raise ValueError("random_kneser needs at least one group")

    def instances():
        rng = random.Random(seed)
        for _ in range(trials):
            g = rng.choice(groups)
            sets = []
            for _ in range(rng.randint(1, m_max)):
                size = rng.randint(1, g.order)
                sets.append(GroupSet(g, _sample(rng, g.order, size)))
            yield g, sets

    def literal(inst):
        return "".join(_kneser_text(inst))

    evaluate = _bound_evaluate(
        lambda inst: kneser_bound(inst[1]),
        lambda inst: {"group": inst[0].spec(), "sets": literal(inst)},
    )
    return _verify(
        instances(), evaluate, literal,
        lambda a, b: _text_lt(_kneser_text(a), _kneser_text(b)),
        theorem="kneser", group=";".join(g.spec() for g in groups),
        mode="random", seed=seed, trials=trials,
    )


def random_sequence_theorem(
    group: Group, n_max: int, trials: int, seed: int
) -> VerificationRun:
    """Seeded random sequences of length <= n_max, terms drawn as `randrange` draws.

    The rejection loop keeps each term an int in range(|G|), so `mult` is the
    plain `Counter` of the terms, with none of the constructor's checks.
    """
    if seed is None:
        raise ValueError("random_sequence_theorem requires a seed")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")

    def instances():
        rng = random.Random(seed)
        getrandbits, order = rng.getrandbits, group.order
        bits = order.bit_length()
        for _ in range(trials):
            terms = []
            for _ in range(rng.randint(0, n_max)):
                x = getrandbits(bits)
                while x >= order:
                    x = getrandbits(bits)
                terms.append(x)
            seq = SequenceMS(group)
            seq.mult = Counter(terms)
            yield seq

    evaluate = _bound_evaluate(sequence_bound_check, lambda a: {"sequence": a.literal()})
    return _verify(
        instances(), evaluate, SequenceMS.literal,
        lambda a, b: _text_lt(a.literal_pieces(), b.literal_pieces()),
        theorem="sequence", group=group.spec(),
        mode="random", seed=seed, trials=trials,
    )


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, math.isqrt(p) + 1):
        if p % d == 0:
            return False
    return True


def olson_threshold(p: int) -> int:
    return math.isqrt(4 * p - 7)


def _subset_masks(bits, t):
    """The bitmap of each set of at least `t` of `bits`, by size, each once.

    The bits are distinct powers of two, m of them, so a set's sum is its
    OR.  Each k-set is, uniquely, an i-set of the low h = m // 2 bits ORed
    with a (k - i)-set of the others, so it costs one `or_` of two half
    sums.  A half's j-sets are summed once, from `combinations(half, j)`
    when 2j < |half|, else by the bijection to the members they drop, as
    the half's whole minus those; only the j some k >= t needs are kept
    (2 x 512 sums for Olson 19, 2 x 7,807 for Vu 73), as tuples, which
    `product` does not copy.  Order within a size cannot reach the output:
    failures are sorted by (size, member list) after the loop, and the
    witness is the first least of them, or else the first t members.
    """
    m, h = len(bits), len(bits) // 2

    def sums(half, j):  # the sums of the j-sets of `half`
        if 2 * j < len(half):
            return tuple(map(sum, combinations(half, j)))
        return tuple(map(sum(half).__sub__, map(sum, combinations(half, len(half) - j))))

    low = {i: sums(bits[:h], i) for i in range(max(t - m + h, 0), h + 1)}
    high = {j: sums(bits[h:], j) for j in range(max(t - h, 0), m - h + 1)}

    def of_size(k):  # i low members and k - i high ones
        pairs = (product(low[i], high[k - i]) for i in range(max(k - m + h, 0), min(h, k) + 1))
        return starmap(or_, chain.from_iterable(pairs))

    return chain.from_iterable(map(of_size, range(t, m + 1)))


def _exhaustive_completeness(group, members, t, **run_fields) -> VerificationRun:
    """Every set of at least `t` of the ascending `members` must have
    Sigma = `group`: `_verify` over their `combinations` by size, run as
    one `subset_sums` per `_subset_masks` bitmap with no member tuple.

    - No failure: every slack is 0, and the witness is the first t members,
      a prefix of each list that starts with them; every other list differs
      from it earlier, by a larger member.
    - Failures (slack < 0) keep (|Sigma|, bitmap) and are sorted at the end
      by (size, member list), the order of `combinations` by size.  The
      witness is the first of least slack: a set's first t members have no
      more sums and precede it, so the least (slack, member list) is a
      t-set, and the t-sets come first, in list order.
    """
    t0 = time.perf_counter()
    bits = [1 << a for a in members]
    full, order = group.full_mask, group.order
    failed = []  # (|Sigma|, bitmap) of each set whose Sigma is not G
    count = 0
    for count, mask in enumerate(_subset_masks(bits, t), 1):
        sigma = subset_sums(GroupSet(group, mask))
        if sigma.mask != full:
            failed.append((sigma.card, mask))

    def literal(mask):
        return GroupSet(group, mask).literal()

    failed.sort(key=lambda f: (f[1].bit_count(), GroupSet(group, f[1]).members()))
    card, mask = min(failed, key=lambda f: f[0], default=(order, sum(bits[:t])))
    counterexamples = [{"set": literal(m), "sigma_size": c} for c, m in failed]
    witness = literal(mask) if count else None
    return _run(
        t0, count, counterexamples, card - order, witness, group=group.spec(), **run_fields
    )


def olson_check(p: int) -> VerificationRun:
    """All A in Z_p \\ {0} with |A| >= floor(sqrt(4p-7)) must have Sigma = Z_p.

    The size condition is read as a lower bound (the completeness
    direction that is actually checkable).
    """
    if p > OLSON_CAP:  # before trial division, which takes sqrt(p) steps
        raise CapacityError(f"p = {p} exceeds cap {OLSON_CAP}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    t = olson_threshold(p)
    return _exhaustive_completeness(
        Group([p]), range(1, p), t, extra_stats={"threshold": t},
        theorem="olson", mode="exhaustive",
    )


def olson_witness(p: int) -> dict:
    """The near-tightness set {-s,...,-1,1,...,s}, s = floor(sqrt(p))."""
    group = Group([p])  # its order cap comes before trial division
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    s = math.isqrt(p)
    idxs = [i % p for i in range(-s, s + 1) if i != 0]
    A = GroupSet.from_indices(group, idxs)
    sigma = subset_sums(A)
    return {
        "p": p,
        "size": A.card,
        "threshold": olson_threshold(p),
        "sigma_size": sigma.card,
        "missing_half": (p // 2) not in sigma,
    }


def vu_threshold(n: int) -> int:
    """Smallest integer t with t^2 >= 64 n (exact-integer 8*sqrt(n))."""
    s = math.isqrt(64 * n)
    return s if s * s == 64 * n else s + 1


def _vu_enumerable(phi: int, t: int) -> bool:
    """Whether the sum of C(phi, k) over k >= t is at most `VU_ENUM_CAP`.

    By C(phi, k) = C(phi, phi - k) that sum (0 when phi < t) is the sum of
    C(phi, j) over j <= phi - t; each term comes from the one before, and
    the sum stops once it passes the cap, so a large phi costs a few terms.
    """
    total, term = int(phi >= t), 1
    for j in range(1, phi - t + 1):
        term = term * (phi - j + 1) // j
        total += term
        if total > VU_ENUM_CAP:
            return False
    return total <= VU_ENUM_CAP


def vu_check(
    n: int,
    sample: int | None = None,
    seed: int | None = None,
) -> VerificationRun:
    """Unit subsets of Z_n of size >= ceil(8 sqrt(n)) must have Sigma = Z_n.

    Exhaustive up to `VU_ENUM_CAP` qualifying subsets (vacuous if phi(n) < t),
    else sampled; `sample` and `seed` are read when sampling, refused otherwise.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if sample is not None and sample < 1:
        raise ValueError("sample must be >= 1")
    group = Group([n])
    t = vu_threshold(n)
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    phi = len(units)
    extra = {"threshold": t, "phi": phi}
    if _vu_enumerable(phi, t):
        for name, value in (("sample", sample), ("seed", seed)):
            if value is not None:
                raise ValueError(f"vu on Z{n} is exhaustive and does not read {name}")
        return _exhaustive_completeness(
            group, units, t, extra_stats=extra,
            theorem="vu", mode="exhaustive",
        )
    if sample is None or seed is None:
        raise CapacityError(
            f"more than {VU_ENUM_CAP} qualifying subsets; "
            "pass sample and seed for randomized mode"
        )

    def sampled():
        # bit i of a draw picks units[i]; one ascending scan of its digits
        rng = random.Random(seed)
        for _ in range(sample):
            drawn = bin(_sample(rng, phi, rng.randint(t, phi)))[:1:-1]
            yield GroupSet.from_indices(group, compress(units, map("1".__eq__, drawn)))

    def evaluate(inst):
        sigma = subset_sums(inst)
        if sigma.mask == group.full_mask:
            return 0, None
        return sigma.card - n, {"set": inst.literal(), "sigma_size": sigma.card}

    return _verify(
        sampled(), evaluate, GroupSet.literal, lambda a, b: _lex_lt(a.mask, b.mask),
        extra_stats=extra, theorem="vu", group=group.spec(),
        mode="random", seed=seed, trials=sample,
    )


def interval_example(n: int) -> dict:
    """Sigma of {-n,...,-1,1,...,n} embedded wrap-free in a large cyclic group.

    The embedding modulus m = 2n(n+1) + 3 exceeds twice the largest
    subset-sum magnitude n(n+1)/2, so integer sums map injectively.
    Reports both the directly computed size and the printed-source
    figure n(n-1)+1 for side-by-side comparison.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 2 * n * (n + 1) + 3
    group = Group([m])
    idxs = [i % m for i in range(-n, n + 1) if i != 0]
    A = GroupSet.from_indices(group, idxs)
    sigma = subset_sums(A)
    H = stabilizer(sigma)
    return {
        "n": n,
        "m": m,
        "set_size": A.card,
        "sigma_size": sigma.card,
        "stabilizer_size": len(H),
        "derived_formula_size": n * (n + 1) + 1,
        "paper_printed_size": n * (n - 1) + 1,
    }


def _lex_lt(a, b) -> bool:
    """Whether bitmap `a`'s ascending member list sorts before bitmap `b`'s.

    Let x = min(A ^ B); the lists agree below x.  If A holds x, A lists x
    where B lists its next member, which is above x, or ends: a list that
    ends there is a prefix of the other, and sorts first.  So A comes first
    iff B has a member above x; likewise, if B holds x, iff A has none from
    x up.  Equal sets have no x, and neither comes first.
    """
    x = (a ^ b) & -(a ^ b)  # the bit of x; 0 when A = B
    return b > x if a & x else a < x


def _precedes(a, b) -> bool:
    """Whether rank `a` = (|Sigma|, k-set mask) sorts before rank `b`:
    sizes first, then member lists (`_lex_lt`); every rank precedes None."""
    if b is None or a[0] != b[0]:
        return b is None or a[0] < b[0]
    return _lex_lt(a[1], b[1])


def extremal_search(
    group: Group,
    k: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    restarts: int | None = None,
) -> ExtremalRecord:
    """Minimize |Sigma(A)| over k-subsets of G \\ {0} with trivial stab(Sigma).

    Sets are bitmaps ranked by `_precedes`; the stabilizer
    (`setcalc._stabilizer_mask`) runs only on a set that would become the
    best so far.  Exhaustive mode walks the k-subsets in `combinations`
    order, so the first least |Sigma| precedes the later ones and wins
    ties.  The walk settles the subtree of a prefix whose Sigma is G, since
    stab(G) = G makes every extension infeasible.  The search skips that of
    a prefix B with |Sigma(B)| + (k - |B|) no smaller than the best so far:
    each of the k - |B| steps to a feasible k-set grows Sigma.  If a step
    by a leaves Sigma(B') unchanged, then Sigma(B') + a = Sigma(B'), so
    a ∈ stab(Sigma(B')); and stab(S) ⊆ stab(S ∪ (S + c)) for every c, so
    the nonzero a stays in the stabilizer of every later Sigma, and the
    k-set is infeasible.  Hill-climb moves from each seeded random k-set A
    to its least feasible neighbour A - out + inc that precedes A, until
    none does; each neighbour's Sigma is one rotation of Sigma(A \\ {out}),
    since Sigma(B ∪ {x}) = Sigma(B) | (Sigma(B) + x).  The exhaustive walk
    visits every subset, not one per automorphism orbit: on the search's
    small k, building the image tables costs more than the nodes it would
    skip.
    """
    if k < 1 or k > group.order - 1:
        raise ValueError(f"k = {k} out of range")
    nonzero = range(1, group.order)

    def feasible(sigma):
        return _stabilizer_mask(group, sigma) == 1

    best = None  # (|Sigma|, mask)
    if mode == "exhaustive":
        if seed is not None or restarts is not None:
            raise ValueError("exhaustive search takes no seed or restarts")
        if math.comb(len(nonzero), k) > SEARCH_ENUM_CAP:
            raise CapacityError(
                f"C({len(nonzero)}, {k}) exceeds enumeration cap {SEARCH_ENUM_CAP}"
            )
        walk = subset_walk(group, nonzero, k, settle=True)
        for mask, sigma in walk:
            size = sigma.bit_count()
            need = k - mask.bit_count()
            if best is not None and size + need >= best[0]:
                walk.send(True)
            elif not need and feasible(sigma):
                best = (size, mask)
    elif mode == "hillclimb":
        if seed is None or restarts is None:
            raise ValueError("hillclimb mode requires seed and restarts")
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        mode = f"hillclimb(seed={seed},restarts={restarts})"
        rng = random.Random(seed)
        for _ in range(restarts):
            current = _sample(rng, len(nonzero), k) << 1  # position i is element i + 1
            sigma = subset_sums(GroupSet(group, current)).mask
            step = (sigma.bit_count(), current) if feasible(sigma) else None
            while True:
                improved = step  # a move must precede A and every earlier move
                others = list(_iter_bits(group.full_mask ^ 1 ^ current))
                for out in _iter_bits(current):
                    rest = current ^ (1 << out)
                    base = subset_sums(GroupSet(group, rest)).mask
                    for inc in others:
                        sigma = base | _shift_mask(group, base, inc)
                        cand = (sigma.bit_count(), rest | (1 << inc))
                        if _precedes(cand, improved) and feasible(sigma):
                            improved = cand
                if improved is step:
                    break
                step, current = improved, improved[1]
            if step is not None and _precedes(step, best):
                best = step
    else:
        raise ValueError(f"unknown search mode {mode!r}")

    fields = {}
    if best is not None:
        # best is feasible, so H = {0}, and A lies in G \ {0}, so |A \ H| = k
        fields = dict(
            best_set=GroupSet(group, best[1]).literal(), sigma_size=best[0],
            stabilizer_size=1, ratio_num=4 * (best[0] - 1), ratio_den=k * k,
        )
    return ExtremalRecord(
        group=group.spec(), k=k, mode=mode, feasible=best is not None,
        seed=seed, restarts=restarts, **fields,
    )
