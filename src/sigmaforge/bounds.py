"""Exact-integer evaluation of the subset-sum inequalities.

Every fractional constant (1/64, 1/16, ...) is cleared into an integer
comparison, so a report is a pair of exact integers plus the verdict
`lhs >= rhs`.  A report with holds=False coming out of a theorem-shaped
instance is a counterexample and is treated as a hard failure upstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .groups import GroupMismatchError, Subgroup
from .setcalc import (
    GroupSet,
    SequenceMS,
    coset_profile,
    stabilizer,
    subsequence_sums,
    subset_sums,
    sumset,
)


def _canonical_json(payload) -> str:
    """Sorted keys and no whitespace: equal payloads print byte-identically."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: int
    rhs: int
    holds: bool
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "context": dict(sorted(self.context.items())),
        }

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    def csv_row(self) -> str:
        ctx = ";".join(f"{k}={v}" for k, v in sorted(self.context.items()))
        return f"{self.name},{self.lhs},{self.rhs},{int(self.holds)},{ctx}"


def _report(name, lhs, rhs, **context) -> BoundReport:
    return BoundReport(name, lhs, rhs, lhs >= rhs, context)


def kneser_bound(sets) -> BoundReport:
    """|sum A_i|  vs  |H|(1-m) + sum |A_i + H|, H = stab(sum A_i)."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one summand")
    group = sets[0].group
    for A in sets:
        if A.group != group:
            raise GroupMismatchError("summands from different groups")
        if A.mask == 0:
            raise ValueError("kneser bound requires nonempty summands")
    total = sets[0]
    for A in sets[1:]:
        total = sumset(total, A)
    H = stabilizer(total)
    m = len(sets)
    saturated = [sumset(A, H).card for A in sets]
    rhs = len(H) * (1 - m) + sum(saturated)
    return _report(
        "kneser",
        total.card,
        rhs,
        m=m,
        stab_size=len(H),
        sum_size=total.card,
    )


def main_sides(sigma_size: int, stab_size: int, outside: int) -> tuple:
    """(64 * (|Sigma(A)| - |H|), |A \\ H|^2): the main bound cleared of 1/64."""
    return 64 * (sigma_size - stab_size), outside * outside


def corollary_sides(sigma_size: int, stab_size: int, outside: int) -> tuple:
    """(|Sigma(A)|, |H| + |H| * |A \\ H|)."""
    return sigma_size, stab_size + stab_size * outside


def subset_report(
    theorem: str, sigma_size: int, stab_size: int, outside: int
) -> BoundReport:
    """The `main` or `corollary` report from |Sigma(A)|, |H| and |A \\ H|."""
    context = {"sigma_size": sigma_size, "stab_size": stab_size, "outside": outside}
    if theorem == "main":
        lhs, rhs = main_sides(sigma_size, stab_size, outside)
        context["slack"] = lhs - rhs
    else:
        lhs, rhs = corollary_sides(sigma_size, stab_size, outside)
    return _report(theorem, lhs, rhs, **context)


def _subset_terms(A: GroupSet) -> tuple:
    """(|Sigma(A)|, |H|, |A \\ H|) with H = stab(Sigma(A))."""
    sigma = subset_sums(A)
    H = stabilizer(sigma)
    return sigma.card, len(H), (A.mask & ~H.mask).bit_count()


def corollary_bound(A: GroupSet) -> BoundReport:
    """|Sigma(A)|  vs  |H| + |H| * |A \\ H|, H = stab(Sigma(A))."""
    return subset_report("corollary", *_subset_terms(A))


def main_bound_check(A: GroupSet) -> BoundReport:
    """64 * (|Sigma(A)| - |H|)  vs  |A \\ H|^2."""
    return subset_report("main", *_subset_terms(A))


def sequence_bound_check(a: SequenceMS) -> BoundReport:
    """64 * (|Sigma(a)| - |H|)  vs  |H| * sum_j rho_j^2."""
    sigma = subsequence_sums(a)
    H = stabilizer(sigma)
    profile = coset_profile(a, H)
    rhs = len(H) * profile.squares_sum()
    lhs = 64 * (sigma.card - len(H))
    return _report(
        "sequence",
        lhs,
        rhs,
        sigma_size=sigma.card,
        stab_size=len(H),
        length=a.length,
        rho_sq=profile.squares_sum(),
        slack=lhs - rhs,
    )


def cauchy_schwarz_check(A: GroupSet, H: Subgroup) -> BoundReport:
    """|H| * sum_j rho_j^2  vs  |A \\ H|^2 for a set viewed as a sequence."""
    a = SequenceMS.from_terms(A.group, A.members())
    profile = coset_profile(a, H)
    outside = (A.mask & ~H.mask).bit_count()
    lhs = len(H) * profile.squares_sum()
    return _report(
        "cauchy-schwarz",
        lhs,
        outside * outside,
        stab_size=len(H),
        outside=outside,
        rho_sq=profile.squares_sum(),
    )


def recursive_bound_numerator(u: int) -> int:
    """N(u) = sum_{i>=1} floor(u / 2^i)^2; the implied bound is N(u)/16."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    total = 0
    i = 1
    while u >> i:
        q = u >> i
        total += q * q
        i += 1
    return total
