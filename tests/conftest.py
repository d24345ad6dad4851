"""Shared brute-force oracles, kept independent of the bitmap kernels."""

from __future__ import annotations

import itertools


def naive_sumset(group, A, B):
    return sorted({group.add_index(a, b) for a in A for b in B})


def naive_sigma(group, elems):
    """Subset sums by literally enumerating every subset."""
    out = set()
    elems = list(elems)
    for r in range(len(elems) + 1):
        for comb in itertools.combinations(elems, r):
            s = 0
            for x in comb:
                s = group.add_index(s, x)
            out.add(s)
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
