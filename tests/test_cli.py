import argparse
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sigmaforge.cli import build_parser, main, parse_sequence, parse_set
from sigmaforge import BoundReport, GroupSet, parse_element, parse_group, verify

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh(*argv):
    """Exit code and stdout of `python -m sigmaforge *argv` in a new process."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sigmaforge", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout


def readme_commands():
    """The `sigmaforge ...` lines of the fenced block under README's `## CLI`."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("sigmaforge ")]


def test_readme_cli_examples_run():
    commands = readme_commands()
    assert len(commands) >= 10
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_verify_options_table_matches_parser():
    """README's `verify` table names each theorem's options as the parser has them."""
    text = (ROOT / "README.md").read_text()
    head = "| theorem | required | optional (default) |\n|---|---|---|\n"
    documented = {}
    for line in text.split(head, 1)[1].splitlines():
        if not line.startswith("|"):
            break
        names, required, optional = (cell.strip() for cell in line.strip("|").split("|"))
        for name in re.findall(r"`([^`]+)`", names):
            assert name not in documented, name
            documented[name] = (
                re.findall(r"`(--[\w-]+)`", required),
                {option: int(default) if default else None for option, default
                 in re.findall(r"`(--[\w-]+)`(?: \((\d+)\))?", optional)},
            )
    parsed = {}
    for name, theorem in _subcommands(_subcommands(build_parser())["verify"]).items():
        options = [a for a in theorem._actions if a.dest != "help"]
        assert [a.option_strings for a in options if a.dest == "json"] == [["--json"]]
        options = [a for a in options if a.dest != "json"]
        parsed[name] = (
            [a.option_strings[0] for a in options if a.required],
            {a.option_strings[0]: a.default for a in options if not a.required},
        )
    assert documented == parsed


def test_sigma_set(capsys):
    code, out, _ = run(capsys, "sigma", "--group", "Z5", "--set", "1;2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == "0;1;2;3"
    assert payload["stabilizer"] == "0"


def test_sigma_empty_set(capsys):
    code, out, _ = run(capsys, "sigma", "--group", "Z6", "--set", "", "--json")
    assert code == 0
    assert json.loads(out)["sigma"] == "0"


@pytest.mark.parametrize(
    "spec, operand, calls",
    [
        ("Z64", "1;2;4;8;16;32", 1),  # Sigma = stab(Sigma) = G
        ("Z12", "4;8", 1),  # Sigma = stab(Sigma) = {0, 4, 8}
        ("Z12", "1;2", 2),  # Sigma = {0, 1, 2, 3}, stab(Sigma) = {0}
    ],
)
def test_sigma_formats_one_literal_per_distinct_set(
    capsys, monkeypatch, spec, operand, calls
):
    count = [0]
    literal = GroupSet.literal

    def counting(self):
        count[0] += 1
        return literal(self)

    monkeypatch.setattr(GroupSet, "literal", counting)
    code, out, _ = run(capsys, "sigma", "--group", spec, "--set", operand, "--json")
    assert code == 0
    assert count[0] == calls
    payload = json.loads(out)
    assert (payload["sigma"] == payload["stabilizer"]) == (calls == 1)


def test_sigma_sequence(capsys):
    code, out, _ = run(capsys, "sigma", "--group", "Z9", "--seq", "3:2", "--json")
    assert code == 0
    assert json.loads(out)["sigma"] == "0;3;6"


def test_sigma_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "sigma", "--group", "Q5", "--set", "1")
    assert code == 2
    assert "error" in err


def test_sigma_empty_element_is_named_exit_2(capsys):
    for option, literal in (("--set", "1;;2"), ("--set", "1;2;"), ("--seq", "1:2;;3")):
        code, out, err = run(capsys, "sigma", "--group", "Z6", option, literal)
        assert code == 2 and out == "", literal
        assert err == "error: element '' of Z6 needs integer coordinates\n", literal


def test_sigma_set_and_seq_are_exclusive(capsys):
    code, out, err = run(capsys, "sigma", "--group", "Z6", "--set", "1", "--seq", "5:2")
    assert code == 2 and out == ""
    assert "--seq" in err and "--set" in err
    code, out, _ = run(capsys, "sigma", "--group", "Z6", "--json")
    assert code == 0
    assert json.loads(out)["sigma"] == "0"


def test_bound_main(capsys):
    code, out, _ = run(
        capsys, "bound", "--which", "main", "--group", "Z5", "--set", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == 64 and payload["rhs"] == 1 and payload["holds"]


def test_bound_corollary_inside_subgroup(capsys):
    code, out, _ = run(
        capsys,
        "bound", "--which", "corollary", "--group", "Z6", "--set", "2;4", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"]
    assert payload["rhs"] == payload["context"]["stab_size"]


def test_bound_main_and_corollary_take_one_set(capsys):
    for which in ("main", "corollary"):
        code, out, err = run(
            capsys,
            "bound", "--which", which, "--group", "Z12",
            "--set", "1", "--set", "2;3;4;5;6",
        )
        assert code == 2 and out == "", which
        assert "--set" in err, which


@pytest.mark.parametrize("which, operand", [
    ("sequence", ("--set", "1;2;3")),
    ("kneser", ("--seq", "5")),
    ("main", ("--seq", "5")),
    ("corollary", ("--seq", "5")),
    ("recursive", ("--set", "1")),
    ("recursive", ("--seq", "5")),
])
def test_bound_rejects_unread_operand(capsys, which, operand):
    read = {
        "sequence": ("--group", "Z12", "--seq", "5"),
        "recursive": ("--u", "8"),
    }.get(which, ("--group", "Z12", "--set", "1;2;3"))
    assert run(capsys, "bound", "--which", which, *read)[0] in (0, 1)
    code, out, err = run(capsys, "bound", "--which", which, *read, *operand)
    assert code == 2 and out == ""
    assert f"does not read {operand[0]}" in err


@pytest.mark.parametrize("argv, message", [
    (("--which", "recursive"), "recursive bound needs --u"),
    (("--which", "kneser", "--group", "Z6"), "kneser bound needs one or more --set"),
    (("--which", "sequence", "--group", "Z6"), "sequence bound needs --seq"),
])
def test_bound_missing_operand_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "bound", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_bound_recursive(capsys):
    code, out, _ = run(capsys, "bound", "--which", "recursive", "--u", "8", "--json")
    assert code == 0
    assert json.loads(out)["numerator"] == 21


def test_bound_kneser_multiple_sets(capsys):
    code, out, _ = run(
        capsys,
        "bound", "--which", "kneser", "--group", "Z6",
        "--set", "1;2", "--set", "0;3", "--json",
    )
    assert code == 0
    assert json.loads(out)["holds"]


def test_bound_csv(capsys):
    code, out, _ = run(
        capsys, "bound", "--which", "main", "--group", "Z5", "--set", "1", "--csv"
    )
    assert code == 0
    assert out.startswith("main,64,1,1,")


def test_verify_main_exhaustive(capsys):
    code, out, _ = run(capsys, "verify", "main", "--group", "Z12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "verified"
    assert payload["stats"]["instances"] == 4096


def test_verify_olson(capsys):
    code, out, _ = run(capsys, "verify", "olson", "--p", "7", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "verified"


def test_max_order_env_is_not_read(capsys, monkeypatch):
    # the group-order cap is the module constant `groups.MAX_ORDER`
    monkeypatch.delenv("SIGMAFORGE_MAX_ORDER", raising=False)
    expected = run(capsys, "sigma", "--group", "Z6", "--set", "1")
    assert expected[0] == 0
    monkeypatch.setenv("SIGMAFORGE_MAX_ORDER", "abc")
    assert run(capsys, "sigma", "--group", "Z6", "--set", "1") == expected
    code, out, err = run(capsys, "sigma", "--group", "Z1048577")
    assert code == 2 and out == ""
    assert "exceeds cap 1048576" in err


def test_verify_vu_empty_sample_exit_2(capsys):
    # also where --sample is not read: n = 67 is exhaustive, n = 10 vacuous
    for n in ("293", "67", "10"):
        code, out, err = run(
            capsys, "verify", "vu", "--n", n, "--sample", "0", "--seed", "1"
        )
        assert code == 2 and out == ""
        assert "sample must be >= 1" in err


def test_verify_vu_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "vu", "--n", "10", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "vacuous"


def test_verify_random_requires_seed(capsys):
    code, _, err = run(
        capsys, "verify", "sequence", "--group", "Z6", "--trials", "10"
    )
    assert code == 2
    assert "seed" in err


def test_verify_random_empty_size_range_exit_2(capsys):
    code, out, err = run(
        capsys, "verify", "kneser", "--group", "Z6", "--m-max", "0", "--seed", "1"
    )
    assert code == 2 and out == ""
    assert "m_max must be >= 1" in err
    code, out, err = run(
        capsys, "verify", "sequence", "--group", "Z6", "--n-max", "-1", "--seed", "1"
    )
    assert code == 2 and out == ""
    assert "n_max must be >= 0" in err


def test_search_hillclimb_zero_restarts_exit_2(capsys):
    code, out, err = run(
        capsys, "search", "--group", "Z11", "--k", "2", "--hillclimb",
        "--seed", "1", "--restarts", "0",
    )
    assert code == 2 and out == ""
    assert "restarts must be >= 1" in err


def test_search_exhaustive_rejects_seed_and_restarts_exit_2(capsys):
    code, out, err = run(
        capsys, "search", "--group", "Z13", "--k", "2", "--exhaustive",
        "--seed", "5", "--restarts", "2", "--json",
    )
    assert code == 2 and out == ""
    assert "no seed or restarts" in err


def test_verify_capacity_exit_2(capsys):
    code, _, err = run(capsys, "verify", "main", "--group", "Z33")
    assert code == 2
    assert "cap" in err


def test_verify_interval(capsys):
    code, out, _ = run(capsys, "verify", "interval", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma_size"] == 7
    assert payload["paper_printed_size"] == 3


def test_search_exhaustive(capsys):
    code, out, _ = run(
        capsys, "search", "--group", "Z7", "--k", "1", "--exhaustive", "--json"
    )
    assert code == 0
    assert json.loads(out)["sigma_size"] == 2


def test_construct_exact(capsys):
    code, out, _ = run(
        capsys,
        "construct", "--group", "Z100", "--set", "1;2;3;4", "--u", "2",
        "--exact", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma_size"] == 4
    # all six pairs tie at |Sigma| = 4; the tie rule picks the least subset
    assert payload["subset"] == "1;2"


def test_construct_greedy_replays(capsys):
    code, out, _ = run(
        capsys,
        "construct", "--group", "Z100", "--set", "1;2;3;4", "--u", "2",
        "--greedy", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["subset"] == "1;2"
    sizes = [step["sigma_size"] for step in payload["trace"]]
    assert sizes == sorted(sizes)
    code2, out2, _ = run(
        capsys,
        "construct", "--group", "Z100", "--set", "1;2;3;4", "--u", "2",
        "--greedy", "--json",
    )
    assert out2 == out


def test_construct_greedy_negative_u_exit_2(capsys):
    code, out, err = run(
        capsys, "construct", "--group", "Z10", "--set", "1;2;3", "--greedy", "--u", "-1"
    )
    assert code == 2 and out == ""
    assert "must be >= 0" in err


def test_construct_exact_rejects_u_other_than_half_exit_2(capsys):
    code, out, err = run(
        capsys, "construct", "--group", "Z100", "--set", "1;2;3;4", "--exact", "--u", "3"
    )
    assert code == 2 and out == ""
    assert "|A|/2" in err


def test_construct_greedy_needs_u_exit_2(capsys):
    for mode in (["--greedy"], []):
        code, out, err = run(
            capsys, "construct", "--group", "Z100", "--set", "1;2;3;4", *mode
        )
        assert code == 2 and out == "", mode
        assert "needs --u" in err, mode


def test_element_with_wrong_coordinate_count_exit_2(capsys):
    code, _, err = run(capsys, "sigma", "--group", "Z12", "--set", "1,2")
    assert code == 2
    assert "coordinates" in err


def test_missing_group_exit_2(capsys):
    commands = [("bound", "--which", w, "--set", "1", "--seq", "1")
                for w in ("main", "corollary", "kneser", "sequence")]
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "needs --group" in err, argv
    commands = [("verify", t) for t in ("main", "corollary", "kneser-pairs")]
    commands += [("verify", t, "--seed", "1") for t in ("kneser", "sequence")]
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "the following arguments are required: --group" in err, argv


def test_usage_error_exit_2(capsys):
    assert run(capsys, "bogus")[0] == 2


def test_bad_multiplicity_exit_2(capsys):
    for seq in ("1:0", "1:-2", "1:2;1:-1", "1:x", "2;1:"):
        code, _, err = run(capsys, "sigma", "--group", "Z9", "--seq", seq)
        assert code == 2, seq
        assert "multiplicit" in err, seq
    # a multiplicity that is not an integer gets the same message, not int()'s
    assert run(capsys, "sigma", "--group", "Z6", "--seq", "1:x")[2] == (
        "error: bad multiplicity in '1:x'\n"
    )


def test_parse_helpers():
    g = parse_group("Z9")
    assert parse_set(g, "1;3;5").members() == [1, 3, 5]
    seq = parse_sequence(g, "3:2;1")
    assert seq.mult == {3: 2, 1: 1}
    assert seq.length == 3
    assert parse_sequence(g, "3;3:2;1").mult == {3: 3, 1: 1}
    assert parse_sequence(g, " ").length == 0


def test_parse_wraps_each_coordinate():
    rng = random.Random(5)
    for spec in ("Z7", "Z4xZ8xZ64", "Z2xZ2xZ3"):
        g = parse_group(spec)
        coords = [
            [rng.randint(-2 * n, 2 * n) for n in g.factors] for _ in range(12)
        ]
        parts = [",".join(map(str, c)) for c in coords]
        indices = {g.encode([r % n for r, n in zip(c, g.factors)]) for c in coords}
        assert {parse_element(g, part).index for part in parts} == indices
        assert parse_set(g, ";".join(parts)).members() == sorted(indices)
        seq = parse_sequence(g, ";".join(parts))
        assert seq.length == len(parts) and set(seq.mult) == indices


def test_python_dash_m_matches_in_process(capsys):
    argv = ("sigma", "--group", "Z4xZ8xZ64", "--set", "1,2,3;0,7,63", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert fresh(*argv) == (code, out)


def test_parser_is_reused_across_queries(capsys):
    assert build_parser() is build_parser()
    kneser = ("bound", "--which", "kneser", "--group", "Z6", "--json")
    queries = [
        ("sigma", "--group", "Z6", "--bogus"),
        ("sigma", "--group", "Z6", "--set", "1;2", "--json"),
        (*kneser, "--set", "1;2", "--set", "0;3"),
        (*kneser, "--set", "1;2"),
    ]
    results = [run(capsys, *argv)[:2] for argv in queries]
    assert [code for code, _ in results] == [2, 0, 0, 0]
    assert [json.loads(out)["context"]["m"] for _, out in results[2:]] == [2, 1]
    for argv, result in zip(queries, results):
        assert fresh(*argv) == result, argv


# -- every option is read or refused ----------------------------------------

# A quick accepted command per theorem, with every option it requires.
VERIFY_BASE = {
    "main": ("--group", "Z4"),
    "corollary": ("--group", "Z4"),
    "kneser-pairs": ("--group", "Z2"),
    "kneser": ("--group", "Z4", "--seed", "1", "--trials", "2"),
    "sequence": ("--group", "Z4", "--seed", "1", "--trials", "2"),
    "olson": ("--p", "5"),
    "vu": ("--n", "10"),
    "interval": ("--n", "2"),
}
VERIFY_REQUIRED = {
    "main": ("--group",),
    "corollary": ("--group",),
    "kneser-pairs": ("--group",),
    "kneser": ("--group", "--seed"),
    "sequence": ("--group", "--seed"),
    "olson": ("--p",),
    "vu": ("--n",),
    "interval": ("--n",),
}
# vu reads --sample and --seed only above `verify.VU_ENUM_CAP`, and refuses
# them below it (the vu entries of UNREAD)
VERIFY_READS = {
    **VERIFY_REQUIRED,
    "kneser": ("--group", "--seed", "--m-max", "--trials"),
    "sequence": ("--group", "--seed", "--n-max", "--trials"),
    "vu": ("--n", "--sample", "--seed"),
}
# every option but --json (which all theorems read), with a valid value:
# 48 of the 8 x 9 (theorem, option) pairs are unread.  `sequence` with --n
# checks that no option is abbreviated (--n-max).
VERIFY_OPTIONS = {
    "--group": "Z4", "--p": "5", "--n": "3", "--n-max": "3",
    "--m-max": "2", "--trials": "2", "--sample": "2", "--seed": "3",
}
BOUND_BASE = {
    "main": ("--group", "Z5", "--set", "1"),
    "corollary": ("--group", "Z5", "--set", "1"),
    "kneser": ("--group", "Z6", "--set", "1;2", "--set", "0;3"),
    "sequence": ("--group", "Z12", "--seq", "5"),
    "recursive": ("--u", "8"),
}

UNREAD = [
    (("verify", t, *VERIFY_BASE[t]), (option, value), "unrecognized arguments")
    for t in VERIFY_BASE
    for option, value in VERIFY_OPTIONS.items()
    if option not in VERIFY_READS[t]
]
UNREAD += [  # n = 73 is exhaustive, n = 10 vacuous
    (("verify", "vu", "--n", "73"), ("--sample", "10", "--seed", "1"),
     "vu on Z73 is exhaustive and does not read sample"),
    (("verify", "vu", "--n", "10"), ("--seed", "1"),
     "vu on Z10 is exhaustive and does not read seed"),
]
UNREAD += [
    (("bound", "--which", w, *BOUND_BASE[w]), ("--u", "3"), "does not read --u")
    for w in ("main", "corollary", "kneser", "sequence")
]
UNREAD += [
    (("bound", "--which", "recursive", "--u", "8"), ("--group", "Z4"),
     "does not read --group"),
    (("bound", "--which", "recursive", "--u", "8"), ("--csv",),
     "does not read --csv"),
    (("bound", "--which", "main", *BOUND_BASE["main"], "--csv"), ("--json",),
     "argument --json: not allowed with argument --csv"),
]


@pytest.mark.parametrize(
    "argv, extra, message", UNREAD,
    ids=[f"{argv[0]}-{argv[2] if argv[0] == 'bound' else argv[1]}{extra[0]}"
         for argv, extra, _ in UNREAD],
)
def test_unread_option_exit_2(capsys, argv, extra, message):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("theorem, option", [
    (t, option) for t, options in VERIFY_REQUIRED.items() for option in options
])
def test_verify_missing_required_option_exit_2(capsys, theorem, option):
    base = VERIFY_BASE[theorem]
    i = base.index(option)
    code, out, err = run(capsys, "verify", theorem, *base[:i], *base[i + 2:])
    assert code == 2 and out == ""
    assert err.rstrip().endswith(f"the following arguments are required: {option}")


# -- human-readable output ----------------------------------------------------

def test_verify_human_output(capsys):
    code, out, err = run(capsys, "verify", "main", "--group", "Z4")
    assert code == 0
    assert out == (
        "main on Z4 [exhaustive]: verified\n"
        "stats: {'instances': 16, 'min_slack': 0, 'witness': ''}\n"
    )
    assert err.startswith("elapsed: ") and err.endswith(" ms\n")
    code, out, _ = run(capsys, "verify", "olson", "--p", "7")
    assert code == 0
    assert out == (
        "olson on Z7 [exhaustive]: verified\n"
        "stats: {'instances': 22, 'threshold': 4, 'min_slack': 0, "
        "'witness': '1;2;3;4'}\n"
    )
    # the vacuous run (JSON golden `vu-30-vacuous`) has no min_slack or witness
    code, out, _ = run(capsys, "verify", "vu", "--n", "10")
    assert code == 0
    assert out == (
        "vu on Z10 [exhaustive]: vacuous\n"
        "stats: {'instances': 0, 'threshold': 26, 'phi': 4, 'vacuous': True}\n"
    )
    # interval prints its record, with no verdict, stats or elapsed line
    code, out, err = run(capsys, "verify", "interval", "--n", "2")
    assert code == 0 and err == ""
    assert out == (
        "n = 2, embedded in Z15\n"
        "|Sigma| = 7 (derived formula 7, paper-printed value 3)\n"
        "|stab| = 1\n"
    )


def test_verify_human_output_lists_ten_counterexamples(capsys, monkeypatch):
    failing = BoundReport("kneser", 0, 1, False, {"m": 2})
    monkeypatch.setattr(verify, "kneser_bound", lambda sets: failing)
    code, out, _ = run(capsys, "verify", "kneser-pairs", "--group", "Z3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "kneser-pairs on Z3 [exhaustive]: counterexample"
    assert lines[1].startswith("stats: {'instances': 49, ")
    report = failing.to_dict()
    assert lines[2:] == [
        f"counterexample: {{'sets': '0|{b}', 'report': {report}}}"
        for b in ("0", "1", "0;1", "2", "0;2", "1;2", "0;1;2")
    ] + [
        f"counterexample: {{'sets': '1|{b}', 'report': {report}}}"
        for b in ("0", "1", "0;1")
    ]


def test_search_human_output(capsys):
    code, out, _ = run(capsys, "search", "--group", "Z16", "--k", "3", "--exhaustive")
    assert code == 0
    assert out == (
        "min |Sigma(A)| = 5 at A = {1;2;15}\n"
        "4*(|Sigma|-|H|) = 16 vs |A\\H|^2 = 9\n"
    )
    # the one 1-subset of Z2 \ {0} has Sigma = Z2, so stab(Sigma) = Z2
    code, out, _ = run(capsys, "search", "--group", "Z2", "--k", "1", "--exhaustive")
    assert code == 0
    assert out == "no k-subset with trivial stabilizer exists\n"
