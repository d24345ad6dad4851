"""Mutants: each breaks one rule that a shortcut or an order rests on.

A mutant is a (function, old text, new text) triple and the named check
that must catch it.  The old text must occur exactly once in the
function's source, so a mutant whose site has moved fails loudly.  The
mutated source is compiled in a copy of its module's namespace and bound
under every name of the real function (`conftest._patch_everywhere`), in
the `sigmaforge` modules and in `CHECK_MODULES`, the test modules whose
checks import it by name; the check must pass on the real code and fail,
within a second, on the mutant.
"""

import hashlib
import inspect
import sys
import textwrap
import time

import pytest

import test_acceptance
import test_groups
import test_setcalc
import test_verify
from sigmaforge import groups, setcalc, verify, vu_check
from conftest import _patch_everywhere, completeness_loop
from test_golden import CASES


def golden(*names):
    """The canonical-JSON digests of the `test_golden` cases `names`."""

    def check():
        for name in names:
            run, digest = CASES[name]
            assert hashlib.sha256(run().to_json().encode()).hexdigest() == digest, name

    return check


def sampled_vu_matches_loop(n, t, sample, seed):
    """Sampled `vu_check` at threshold `t` against `completeness_loop`."""

    def check():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "vu_threshold", lambda n: t)
            mp.setattr(verify, "VU_ENUM_CAP", 0)
            run = vu_check(n, sample=sample, seed=seed)
        assert run.to_json() == completeness_loop("vu", n, t, sample, seed).to_json()

    return check


def with_monkeypatch(test):
    """A test that takes only `monkeypatch`, as a check."""

    def check():
        with pytest.MonkeyPatch.context() as mp:
            test(mp)

    return check


def automorphisms_of(factor_lists):
    """`test_automorphism_images_are_automorphisms` on each of `factor_lists`."""

    def check():
        for factors in factor_lists:
            test_groups.test_automorphism_images_are_automorphisms(factors)

    return check


KNESER_GOLDENS = golden("kneser-pairs-Z4", "kneser-pairs-Z2xZ2")
CHECK_MODULES = (test_acceptance, test_groups, test_setcalc, test_verify)

# id: (function, old text, new text, check)
MUTANTS = {
    # a list that is a prefix of the other sorts first; on Z5 at t = 3
    # every set is complete, so {1, 2, 3} and {1, 2, 3, 4} tie
    "lex-lt-no-prefix-kneser": (
        verify._lex_lt, "return b > x if a & x else a < x", "return bool(a & x)",
        KNESER_GOLDENS,
    ),
    "lex-lt-no-prefix-sampled-vu": (
        verify._lex_lt, "return b > x if a & x else a < x", "return bool(a & x)",
        sampled_vu_matches_loop(5, 3, 8, 2),
    ),
    "kneser-pairs-a-sides-only": (
        verify.exhaustive_theorem, "i = p[0].mask == q[0].mask", "i = 0",
        with_monkeypatch(test_verify.test_kneser_pairs_ties_compare_b_when_a_is_shared),
    ),
    "verify-tie-reversed": (
        verify._verify, "and precedes(inst, best)", "and precedes(best, inst)",
        test_verify.test_verify_calls_precedes_once_per_tie,
    ),
    "verify-tie-reversed-kneser": (
        verify._verify, "and precedes(inst, best)", "and precedes(best, inst)",
        KNESER_GOLDENS,
    ),
    # the pigeonhole bound one member early: Sigma taken as G when it is not
    "subset-sums-need-off-by-one": (
        setcalc.subset_sums, "need = n - rest.bit_count()", "need = n - rest.bit_count() - 1",
        test_verify.test_a_set_one_below_the_olson_threshold_misses_a_residue_p13,
    ),
    "subset-sums-need-off-by-one-identities": (
        setcalc.subset_sums, "need = n - rest.bit_count()", "need = n - rest.bit_count() - 1",
        test_acceptance.test_criterion_04_identity_suite,
    ),
    # one more shear x_i += n_i·x_j, the identity map
    "shear-range-one-step-long": (
        groups._automorphism_images, "range(step, n, step)", "range(step, n + step, step)",
        automorphisms_of(test_groups.ORDER_24_GROUPS),
    ),
    # the first test of each prime always passes, so the cyclic subgroup
    # chain keeps one prime power too many where S + n/q != S; the seeded
    # Z12 check is used, as the coset-union hypothesis test also kills it but
    # may shrink for over a second
    "cyclic-stabilizer-chain-late": (
        setcalc._stabilizer_mask, "if _shift_mask(group, mask, step) != mask:",
        "if _shift_mask(group, mask, step) != mask and step * q != n:",
        test_setcalc.test_stabilizer_monotone_under_sumset,
    ),
    # the split stops one i short: each size loses its sets with min(h, k)
    # low members, the whole set among them
    "subset-masks-split-drops-top-i": (
        verify._subset_masks, "min(h, k) + 1", "min(h, k)",
        test_verify.test_subset_masks_yield_each_large_enough_subset_once,
    ),
    # settlement at |Sigma| = |G| - 1 drops nodes whose Sigma is not G
    "walk-settles-one-below-g": (
        setcalc.subset_walk, "if settle and s == full:",
        "if settle and s.bit_count() >= group.order - 1:",
        test_verify.test_exhaustive_walk_settles_full_sigma_subtrees,
    ),
}


def _mutant(function, old, new):
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} occurs {source.count(old)} times"
    module = sys.modules[function.__module__]
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[function.__name__]


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, monkeypatch):
    function, old, new, check = MUTANTS[name]
    check()  # the real code passes
    _patch_everywhere(monkeypatch, function, _mutant(function, old, new), *CHECK_MODULES)
    t0 = time.perf_counter()
    with pytest.raises(AssertionError):
        check()
    assert time.perf_counter() - t0 < 1.0
