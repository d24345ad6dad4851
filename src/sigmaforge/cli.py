"""Command-line front end.

Exit codes: 0 success/verified/vacuous, 1 theorem-violation counterexample,
2 usage or capacity error.  Machine output (--json/--csv) goes to stdout;
diagnostics go to stderr.  Every option a command accepts is read: each
`verify` theorem is one row of `build_parser`'s table, naming the options
it reads and the verifier `_cmd_verify` calls, and its sub-parser declares
exactly those (`vu` refuses `--sample`/`--seed` where it enumerates);
`bound` refuses (`_reject_unread`) the options its `--which` does not
read, so an unread option exits 2 instead of being ignored.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from itertools import chain

from .groups import CapacityError, Group, parse_group, parse_index
from .setcalc import (
    GroupSet,
    SequenceMS,
    stabilizer,
    subsequence_sums,
    subset_sums,
)
from .bounds import (
    _canonical_json,
    corollary_bound,
    kneser_bound,
    main_bound_check,
    recursive_bound_numerator,
    sequence_bound_check,
)
from .construct import best_half_subset, greedy_grow
from . import verify as vf


def parse_set(group: Group, literal: str) -> GroupSet:
    literal = literal.strip()
    if not literal:
        return GroupSet(group)
    return GroupSet.from_indices(
        group, [parse_index(group, part) for part in literal.split(";")]
    )


def parse_sequence(group: Group, literal: str) -> SequenceMS:
    """Sequence literal `elem:mult;elem:mult` with `:1` default."""
    literal = literal.strip()
    if not literal:
        return SequenceMS(group)
    counts = Counter()
    for part in literal.split(";"):
        if ":" in part:
            elem, mult = part.rsplit(":", 1)
            try:
                m = int(mult)
            except ValueError:
                m = 0  # reported below as a bad multiplicity
        else:
            elem, m = part, 1
        if m < 1:
            raise ValueError(f"bad multiplicity in {part!r}")
        counts[parse_index(group, elem)] += m
    return SequenceMS(group, counts)


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(_canonical_json(payload))
    else:
        for line in human_lines:
            print(line)


def _cmd_sigma(args) -> int:
    group = parse_group(args.group)
    if args.seq is not None:
        a = parse_sequence(group, args.seq)
        sigma = subsequence_sums(a)
    else:
        A = parse_set(group, args.set)
        sigma = subset_sums(A)
    H = stabilizer(sigma)
    text = sigma.literal()
    payload = {
        "group": group.spec(),
        "sigma": text,
        "sigma_size": sigma.card,
        # stab(Sigma) lies in Sigma (0 is in Sigma), so the two are often
        # one set, always when Sigma = G; its text is then formatted once
        "stabilizer": text if H.mask == sigma.mask else H.literal(),
        "stabilizer_size": len(H),
    }
    _emit(
        args,
        payload,
        [
            f"Sigma = {{{payload['sigma']}}}",
            f"|Sigma| = {payload['sigma_size']}",
            f"stab(Sigma) = {{{payload['stabilizer']}}}",
        ],
    )
    return 0


def _reject_unread(args, *options) -> None:
    """Refuse an option that `bound --which` would silently ignore."""
    for name in options:
        if getattr(args, name) is not None:
            raise ValueError(f"{args.which} bound does not read --{name}")


def _cmd_bound(args) -> int:
    if args.which == "recursive":
        if args.u is None:
            raise ValueError("recursive bound needs --u")
        _reject_unread(args, "set", "seq", "group", "csv")
        value = recursive_bound_numerator(args.u)
        _emit(
            args,
            {"name": "recursive", "u": args.u, "numerator": value},
            [f"N({args.u}) = {value}  (bound: N/16 = {value}/16)"],
        )
        return 0
    if args.group is None:
        raise ValueError(f"{args.which} bound needs --group")
    _reject_unread(args, "u", "set" if args.which == "sequence" else "seq")
    group = parse_group(args.group)
    if args.which == "kneser":
        if not args.set:
            raise ValueError("kneser bound needs one or more --set")
        rep = kneser_bound([parse_set(group, s) for s in args.set])
    elif args.which == "sequence":
        if args.seq is None:
            raise ValueError("sequence bound needs --seq")
        rep = sequence_bound_check(parse_sequence(group, args.seq))
    else:
        if args.set and len(args.set) > 1:
            raise ValueError(
                f"{args.which} bound takes one --set, got {len(args.set)}"
            )
        A = parse_set(group, args.set[0] if args.set else "")
        rep = main_bound_check(A) if args.which == "main" else corollary_bound(A)
    if args.csv:
        print(rep.csv_row())
    else:
        _emit(
            args,
            rep.to_dict(),
            [
                f"{rep.name}: lhs = {rep.lhs}, rhs = {rep.rhs}, "
                f"holds = {rep.holds}",
                f"context: {rep.context}",
            ],
        )
    return 0 if rep.holds else 1


def _cmd_verify(args) -> int:
    """Run `args.check`, the verifier of `args.theorem`'s row in `build_parser`."""
    if args.theorem == "interval":
        record = args.check(args)  # a record dict, not a `VerificationRun`
        _emit(
            args,
            record,
            [
                f"n = {record['n']}, embedded in Z{record['m']}",
                f"|Sigma| = {record['sigma_size']} "
                f"(derived formula {record['derived_formula_size']}, "
                f"paper-printed value {record['paper_printed_size']})",
                f"|stab| = {record['stabilizer_size']}",
            ],
        )
        return 0

    run = args.check(args)
    if args.json:
        print(run.to_json())
    else:
        print(f"{run.theorem} on {run.group} [{run.mode}]: {run.verdict}")
        print(f"stats: {run.stats}")
        print(f"elapsed: {run.millis:.1f} ms", file=sys.stderr)
        for ce in run.counterexamples[:10]:
            print(f"counterexample: {ce}")
    return 0 if run.verdict in ("verified", "vacuous") else 1


def _cmd_search(args) -> int:
    group = parse_group(args.group)
    mode = "hillclimb" if args.hillclimb else "exhaustive"
    record = vf.extremal_search(
        group, args.k, mode=mode, seed=args.seed, restarts=args.restarts
    )
    if args.json:
        print(record.to_json())
    else:
        if record.feasible:
            print(
                f"min |Sigma(A)| = {record.sigma_size} at A = {{{record.best_set}}}"
            )
            print(f"4*(|Sigma|-|H|) = {record.ratio_num} vs "
                  f"|A\\H|^2 = {record.ratio_den}")
        else:
            print("no k-subset with trivial stabilizer exists")
    return 0


def _cmd_construct(args) -> int:
    group = parse_group(args.group)
    A = parse_set(group, args.set)
    if args.exact:
        if args.u is not None and 2 * args.u != A.card:
            raise ValueError(
                f"exact search takes --u = |A|/2, not {args.u} with |A| = {A.card}"
            )
        B, size = best_half_subset(A)
        subset = B.literal()
        payload = {"mode": "exact", "subset": subset, "sigma_size": size}
        _emit(args, payload, [f"best subset = {{{subset}}}, |Sigma| = {size}"])
    else:
        if args.u is None:
            raise ValueError("greedy construction needs --u")
        trace = greedy_grow(A, args.u)
        subset = trace.final_set.literal()
        payload = {
            "mode": "greedy",
            "trace": [
                {"element": s.element, "delta": s.delta, "sigma_size": s.sigma_size}
                for s in trace.steps
            ],
            "subset": subset,
        }
        # lazy: under --json the step lines are never formatted
        steps = (
            f"  step: +{group.element_literal(s.element)} "
            f"(delta {s.delta}) -> |Sigma| = {s.sigma_size}"
            for s in trace.steps
        )
        _emit(args, payload, chain([f"greedy subset = {{{subset}}}"], steps))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="sigmaforge",
        description="Exact subset-sum toolkit for finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="compute Sigma, |Sigma|, stab(Sigma)")
    p.add_argument("--group", required=True)
    operand = p.add_mutually_exclusive_group()
    operand.add_argument("--set", default="")
    operand.add_argument("--seq")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("bound", help="evaluate one inequality on an instance")
    p.add_argument(
        "--which",
        required=True,
        choices=["kneser", "corollary", "main", "sequence", "recursive"],
    )
    p.add_argument("--group")
    p.add_argument("--set", action="append")
    p.add_argument("--seq")
    p.add_argument("--u", type=int)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true")
    # None when absent, like the operands `_reject_unread` checks
    output.add_argument("--csv", action="store_true", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="run a verification harness")
    theorems = p.add_subparsers(dest="theorem", required=True)
    # (theorems, required options, optional options with defaults, check);
    # every option but --group is an int.  No abbreviations: `sequence` would
    # read --n as --n-max.  A check looks its verifier up in `vf` when it
    # runs, so a rebound `vf` attribute (a tracer's wrapper) is the one called.
    for names, required, optional, check in [
        (("main", "corollary", "kneser-pairs"), ("--group",), {},
         lambda a: vf.exhaustive_theorem(parse_group(a.group), a.theorem)),
        (("kneser",), ("--group", "--seed"), {"--m-max": 5, "--trials": 1000},
         lambda a: vf.random_kneser([parse_group(s) for s in a.group.split(";")],
                                    a.m_max, a.trials, a.seed)),
        (("sequence",), ("--group", "--seed"), {"--n-max": 12, "--trials": 1000},
         lambda a: vf.random_sequence_theorem(parse_group(a.group), a.n_max,
                                              a.trials, a.seed)),
        (("olson",), ("--p",), {}, lambda a: vf.olson_check(a.p)),
        (("vu",), ("--n",), {"--sample": None, "--seed": None},
         lambda a: vf.vu_check(a.n, sample=a.sample, seed=a.seed)),
        (("interval",), ("--n",), {}, lambda a: vf.interval_example(a.n)),
    ]:
        for name in names:
            t = theorems.add_parser(name, allow_abbrev=False)
            for option in required:
                kind = str if option == "--group" else int
                t.add_argument(option, type=kind, required=True)
            for option, default in optional.items():
                t.add_argument(option, type=int, default=default)
            t.add_argument("--json", action="store_true")
            t.set_defaults(check=check)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for extremal low-|Sigma| sets")
    p.add_argument("--group", required=True)
    p.add_argument("--k", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--hillclimb", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("construct", help="greedy or exact subset growth")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--u", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--greedy", action="store_true")
    mode.add_argument("--exact", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
