"""Golden snapshots: SHA-256 digests of canonical verifier JSON.

The digests pin `VerificationRun.to_json()` byte for byte: the lexicographic
witness tie-break, the counterexample order, the `stats` keys and the
random draws.  A refactor of the verifier driver must leave every one of
them unchanged.  To re-derive a digest, hash `run.to_json().encode()`.
"""

import hashlib
import random

import pytest

from sigmaforge import (
    exhaustive_theorem,
    make_group,
    olson_check,
    parse_group,
    random_kneser,
    random_sequence_theorem,
    verify,
    vu_check,
)
from sigmaforge.cli import main

CASES = {
    "main-Z8": (
        lambda: exhaustive_theorem(make_group([8]), "main"),
        "561f034af2af45025b1e16cba2fc16b2201d29aa048af13639c3d99f5dd655af",
    ),
    "main-Z2xZ4": (
        lambda: exhaustive_theorem(parse_group("Z2xZ4"), "main"),
        "aa9e2a2f92b2071891e1c57b276cea6835cf7ae07993798bb194d4398f8374ba",
    ),
    "main-Z2xZ2xZ2": (
        lambda: exhaustive_theorem(parse_group("Z2xZ2xZ2"), "main"),
        "c992254c33c6e2b6dc5096d6042d00eb9cabf7162b54ff039fcb3459e36bb52f",
    ),
    "main-Z16": (
        lambda: exhaustive_theorem(make_group([16]), "main"),
        "a2ae751d5a08d5a20ab99d7f879e47d90670aedd454fdd65c4f555686213266a",
    ),
    "main-Z4xZ4": (
        lambda: exhaustive_theorem(parse_group("Z4xZ4"), "main"),
        "3f9f6fcc796fc5cc9a269288c37b185ea5bb98a751a4b4aa64d21b228fdc339e",
    ),
    "main-Z2xZ2xZ2xZ2": (
        lambda: exhaustive_theorem(parse_group("Z2xZ2xZ2xZ2"), "main"),
        "c7b2a3c438d1d91c23388a488b69733d342032428e6f01a0f392e18306677d84",
    ),
    "main-Z24": (
        lambda: exhaustive_theorem(make_group([24]), "main"),
        "a8cc7698577a773fb5e1cc7c65d4643f3de0c94b72ec5262f697c4358a636147",
    ),
    "corollary-Z8": (
        lambda: exhaustive_theorem(make_group([8]), "corollary"),
        "3a57429548e3f04b4ee454b110cb6dc2844877a68d81732764ecf18614a0762c",
    ),
    "corollary-Z2xZ4": (
        lambda: exhaustive_theorem(parse_group("Z2xZ4"), "corollary"),
        "a3c67b7709830fdd92e3e063d72ff8bf4a9b7769f4009307dae20923662a83a1",
    ),
    "corollary-Z2xZ2xZ2": (
        lambda: exhaustive_theorem(parse_group("Z2xZ2xZ2"), "corollary"),
        "5cae161dee6678e5fa38cd3a3c66a470c1749f0d369eebc01a63d841b5d48f5c",
    ),
    "corollary-Z16": (
        lambda: exhaustive_theorem(make_group([16]), "corollary"),
        "7a2866d1d59d0936614c30f09f3aab4db334df983cc2ff08872cc107f4a74b74",
    ),
    "corollary-Z4xZ4": (
        lambda: exhaustive_theorem(parse_group("Z4xZ4"), "corollary"),
        "aaeb18c020210c87a0f3436fe11104e4e6f711633d94ea8704ded69f8af7cf83",
    ),
    "corollary-Z2xZ2xZ2xZ2": (
        lambda: exhaustive_theorem(parse_group("Z2xZ2xZ2xZ2"), "corollary"),
        "64f76b71524ad5bcfcd0ef20c80007c3559e022329a1bdc63be9ca84b4ae57d0",
    ),
    "kneser-pairs-Z4": (
        lambda: exhaustive_theorem(make_group([4]), "kneser-pairs"),
        "7fd3562ed954371ebd3063f6ac74f0408b23dd9301a56645f9da9213652ee6ad",
    ),
    "kneser-pairs-Z2xZ2": (
        lambda: exhaustive_theorem(parse_group("Z2xZ2"), "kneser-pairs"),
        "8d2b2357f48cee31e8ee349867d1176ef8c9e089d6918adba59c55a9f863b520",
    ),
    "olson-7": (
        lambda: olson_check(7),
        "2e8453d3f0ab172fe2d5683e5f73cc9911d36c9645fa7ba8fcb31e2560a53d4a",
    ),
    "olson-11": (
        lambda: olson_check(11),
        "513eee9285ab3b0b8391d99b32c9b213fd783f216aeb5b2eae4980c300a4e1f5",
    ),
    "olson-13": (
        lambda: olson_check(13),
        "b3552c6b4e4ae0d50d1f24f4d0bf4eff0619de280617ddee74f2490d5f0b96cc",
    ),
    "vu-67": (
        lambda: vu_check(67),
        "5f80f4540bc40d378b6685399727a472d932e34a1e600adf19038774a5d26108",
    ),
    "vu-293-random": (
        lambda: vu_check(293, sample=10, seed=7),
        "e902ae29c53d1ac69b6380f00e00844bed28a019d1f5ffb7573cbda27f0c8ffa",
    ),
    "vu-30-vacuous": (
        lambda: vu_check(30),
        "ca154e585c1cfdf615c7e53e2739b7b4cd7d617fe1ae6936bc70b682e66ca34d",
    ),
    "random-kneser": (
        lambda: random_kneser(
            [make_group([24]), parse_group("Z4xZ4")], m_max=3, trials=100, seed=11
        ),
        "0d183607e5837cb75e51c8a123805fd2067c77f7a2cc82a73a2081881b9c5eb0",
    ),
    "random-sequence": (
        lambda: random_sequence_theorem(
            parse_group("Z6xZ6"), n_max=10, trials=100, seed=5
        ),
        "e56e0bae7fc2bfc7b5d022a0d9cf1a96f179a1dcc74544afe52499333ad19818",
    ),
    "random-sequence-Z2xZ4xZ8": (
        lambda: random_sequence_theorem(
            parse_group("Z2xZ4xZ8"), n_max=10, trials=100, seed=3
        ),
        "3be209f0bfce6cd4a93a02d79bc6abd974a3c80dfb8dfd83090370e64cb0f03f",
    ),
}

# Every theorem above holds, so no case lists a counterexample.  Lowering a
# completeness threshold below the true one admits sets whose Sigma misses
# part of the group, which pins the counterexample payloads and their order.
LOWERED = {
    "olson-7-threshold-1": (
        lambda: olson_check(7),
        "97fd2fa5e0ada84c5f5a2c1d6df0f0701f33d2b15eec2a74b5c85e1f634b8fb6",
    ),
    "vu-15-threshold-3": (
        lambda: vu_check(15),
        "bd00aa677ec72293ddeb6320df98aec49f213474ee45f8cec7f08ffac1b0e529",
    ),
    "vu-15-threshold-3-random": (
        lambda: vu_check(15, sample=10, seed=7),
        "c0a7d2cbae79c63e21d309574c6ca4a0c12de743b471c8b3c6c283be43eb9150",
    ),
}


def _digest(run) -> str:
    return hashlib.sha256(run.to_json().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    make, digest = CASES[name]
    assert _digest(make()) == digest


@pytest.mark.parametrize("name", sorted(LOWERED))
def test_golden_digest_with_counterexamples(name, monkeypatch):
    monkeypatch.setattr(verify, "olson_threshold", lambda p: 1)
    monkeypatch.setattr(verify, "vu_threshold", lambda n: 3)
    if name.endswith("-random"):
        # below the 219 qualifying subsets of Z15, so vu_check samples
        monkeypatch.setattr(verify, "VU_ENUM_CAP", 10)
    make, digest = LOWERED[name]
    run = make()
    assert run.verdict == "counterexample"
    assert _digest(run) == digest


# -- CLI stdout ------------------------------------------------------------
#
# SHA-256 digests of `cli.main` stdout, byte for byte, for the outputs the
# interactive commands print most: a `sigma` answer whose Sigma is the
# whole group (its stabilizer is G too), a Sigma that is a proper subgroup,
# a stabilizer other than Sigma, Sigmas whose sums wrap past the top
# index (a cyclic and a product group), the trivial group Z1, `sigma --seq`
# answers, every `bound --which` in JSON and one in CSV, exhaustive and
# hill-climbing `search` records, and greedy and exact `construct` runs.
# The operand sets are seeded draws or fixed literals, so each case is its
# own argv.


def _drawn_set(spec: str, k: int, seed: int) -> str:
    """`--set` literal of k distinct elements of `spec`, drawn with `seed`."""
    g = parse_group(spec)
    picks = random.Random(seed).sample(range(g.order), k)
    return ";".join(g.element_literal(i) for i in picks)


def _drawn_seq(spec: str, k: int, seed: int) -> str:
    """`--seq` literal of k terms of `spec` drawn with `seed`, repeats allowed."""
    g = parse_group(spec)
    picks = random.Random(seed).choices(range(g.order), k=k)
    return ";".join(g.element_literal(i) for i in picks)


Z2_12 = "x".join(["Z2"] * 12)

CLI_CASES = {
    "sigma-full-Z4096": (
        ["sigma", "--group", "Z4096", "--set", _drawn_set("Z4096", 40, 1), "--json"],
        "ba098007dd00025041bfb66dc72185e7f2199d08d5d3384ef35859a61d0deb74",
    ),
    "sigma-full-Z2^12": (
        ["sigma", "--group", Z2_12, "--set", _drawn_set(Z2_12, 40, 2), "--json"],
        "ac0facb797c59a6fa984f0f2b7eb234d79fdc7064276b67a65722cf881d64fac",
    ),
    "sigma-full-Z64xZ64": (
        ["sigma", "--group", "Z64xZ64", "--set", _drawn_set("Z64xZ64", 40, 3),
         "--json"],
        "c7a3a39763171f3acef2ce923fa3efdb77abf278d65954f99799c831bafecdb7",
    ),
    "sigma-full-Z4xZ8xZ64": (
        ["sigma", "--group", "Z4xZ8xZ64", "--set", _drawn_set("Z4xZ8xZ64", 40, 4),
         "--json"],
        "f70d0060eb7c85eeb9b07fd3c02e2eeb6fbba8c3bd74c7ed70d370a077d27986",
    ),
    "sigma-full-Z7xZ1xZ3": (
        ["sigma", "--group", "Z7xZ1xZ3", "--set", _drawn_set("Z7xZ1xZ3", 6, 6),
         "--json"],
        "7f560aceacaa620a8b9690588bbd8d98a193ebfc1354ebc7b6e5a00011f03bf5",
    ),
    "sigma-full-Z64xZ64-text": (
        ["sigma", "--group", "Z64xZ64", "--set", _drawn_set("Z64xZ64", 40, 3)],
        "547892c7b975a7e85f6849a36a73e7ea063d2a1a0d385f0d394b3088f4414dd2",
    ),
    "sigma-wrap-Z4096": (
        ["sigma", "--group", "Z4096", "--set", "4000;4090;3900;2100;4095;3000",
         "--json"],
        "e98d5dc778d61f3e55ba31cc8c1a8cf8bb05b938fd53eabd5e4701a09da0c32f",
    ),
    "sigma-wrap-Z2xZ2048": (
        ["sigma", "--group", "Z2xZ2048", "--set", "1,2000;0,2040;1,1999;0,2047",
         "--json"],
        "560d37f91fa7e4734fbeab5bf154a33adba7f2ba71cdfa2a8aedc9f33272bad6",
    ),
    "sigma-Z1": (
        ["sigma", "--group", "Z1", "--set", "0", "--json"],
        "92735de2e7374788f47fc0fe3e5fc18d16a31d09bec2eb12f23840fcb29082fd",
    ),
    "sigma-subgroup-Z12": (
        ["sigma", "--group", "Z12", "--set", "4;8", "--json"],
        "8177308deed2c660cf175105f3243b3d74c3cabc8ec98fc03c2380bf80b1b14d",
    ),
    "sigma-stabilizer-below-sigma-Z12": (
        ["sigma", "--group", "Z12", "--set", "1;2", "--json"],
        "43bf4d40cac3216e9ac4e6def002ca207f679f4fc524197d07fd0f270975c024",
    ),
    "sigma-seq-Z4096": (
        ["sigma", "--group", "Z4096", "--seq", _drawn_seq("Z4096", 40, 9), "--json"],
        "ba098007dd00025041bfb66dc72185e7f2199d08d5d3384ef35859a61d0deb74",
    ),
    "sigma-seq-Z2^12": (
        ["sigma", "--group", Z2_12, "--seq", _drawn_seq(Z2_12, 40, 10), "--json"],
        "ac0facb797c59a6fa984f0f2b7eb234d79fdc7064276b67a65722cf881d64fac",
    ),
    "bound-main-Z4096": (
        ["bound", "--which", "main", "--group", "Z4096", "--set",
         _drawn_set("Z4096", 40, 11), "--json"],
        "2e3e1011d0bc416a616e933663fc674436c37f32519674d08cb306def9c8ecb1",
    ),
    "bound-main-Z2^12": (
        ["bound", "--which", "main", "--group", Z2_12, "--set",
         _drawn_set(Z2_12, 40, 12), "--json"],
        "2e3e1011d0bc416a616e933663fc674436c37f32519674d08cb306def9c8ecb1",
    ),
    "bound-corollary-Z4096": (
        ["bound", "--which", "corollary", "--group", "Z4096", "--set",
         _drawn_set("Z4096", 40, 13), "--json"],
        "c9cfceece802577641d70f02249d60474c7c9eb6c5ad519045720f37a6081029",
    ),
    "bound-corollary-Z2^12": (
        ["bound", "--which", "corollary", "--group", Z2_12, "--set",
         _drawn_set(Z2_12, 40, 14), "--json"],
        "c9cfceece802577641d70f02249d60474c7c9eb6c5ad519045720f37a6081029",
    ),
    "bound-sequence-Z4096": (
        ["bound", "--which", "sequence", "--group", "Z4096", "--seq",
         _drawn_seq("Z4096", 40, 15), "--json"],
        "61ab67e26e019b9452e645a8883fb74e214e4625a27b08c5f352464f34684a08",
    ),
    "bound-sequence-Z2^12": (
        ["bound", "--which", "sequence", "--group", Z2_12, "--seq",
         _drawn_seq(Z2_12, 40, 16), "--json"],
        "61ab67e26e019b9452e645a8883fb74e214e4625a27b08c5f352464f34684a08",
    ),
    "bound-kneser-Z64xZ64": (
        ["bound", "--which", "kneser", "--group", "Z64xZ64"]
        + [arg for seed in (17, 18, 19)
           for arg in ("--set", _drawn_set("Z64xZ64", 40, seed))]
        + ["--json"],
        "ca8ef4ddcfc77cc15cd345ac41300f1be9d5cfd307ca5821abe94046c368104c",
    ),
    "bound-recursive-u8": (
        ["bound", "--which", "recursive", "--u", "8", "--json"],
        "2575d7cd2be35e9c1a8f8ca4fafd7d304dd976d425578ba29f4f0bcc34aaffaa",
    ),
    "bound-main-Z4096-csv": (
        ["bound", "--which", "main", "--group", "Z4096", "--set",
         _drawn_set("Z4096", 40, 11), "--csv"],
        "b1388610bcab19ad73a2de3f2c27fac40022e3292372d9c20e0c9562c418263c",
    ),
    # 40 drawn terms give Sigma = G, where the stabilizer needs no
    # refinement; 8 give a proper Sigma whose stabilizer is refined
    "sigma-seq-Z4096-k8": (
        ["sigma", "--group", "Z4096", "--seq", _drawn_seq("Z4096", 8, 20), "--json"],
        "08e75053816b70e8974a662bf39762930fb630232dc8499ce6b1bbd3db9cfdcc",
    ),
    "sigma-seq-Z2^12-k8": (
        ["sigma", "--group", Z2_12, "--seq", _drawn_seq(Z2_12, 8, 21), "--json"],
        "db5377ec46d509143dc7ef223cab7759b44a2953e222cd8feb1c4935eaf06851",
    ),
    "bound-main-Z4096-k8": (
        ["bound", "--which", "main", "--group", "Z4096", "--set",
         _drawn_set("Z4096", 8, 22), "--json"],
        "66b6f22ad6404717d291d3f812e51fcb134e0b347295755c2d85f68a3a6242a5",
    ),
    "bound-corollary-Z2^12-k8": (
        ["bound", "--which", "corollary", "--group", Z2_12, "--set",
         _drawn_set(Z2_12, 8, 23), "--json"],
        "04e518fc36a0e07f4402b0b72e7f1b6d0463260ab1751c20661b098aad428be6",
    ),
    "bound-sequence-Z4096-k8": (
        ["bound", "--which", "sequence", "--group", "Z4096", "--seq",
         _drawn_seq("Z4096", 8, 24), "--json"],
        "efd360231d7fb9b8fba9d259c0ebeca3f646f488d99159632267005a5542cc48",
    ),
    "bound-kneser-Z64xZ64-k3": (
        ["bound", "--which", "kneser", "--group", "Z64xZ64", "--set",
         _drawn_set("Z64xZ64", 3, 25), "--set", _drawn_set("Z64xZ64", 3, 26),
         "--json"],
        "85a652a9096ce33b7714e13fa2e0f256de29832571062fd8d21649abbbfbab91",
    ),
    "search-exhaustive-Z13": (
        ["search", "--group", "Z13", "--k", "3", "--exhaustive", "--json"],
        "7f97c7ed79baa5417cff50e9f37d52cb94344248bb56373f9648041a9458f585",
    ),
    "search-exhaustive-Z23": (
        ["search", "--group", "Z23", "--k", "3", "--exhaustive", "--json"],
        "a4f2216f243d321b67394fe1a20efb685858280813cd80c5f579f031d31371c9",
    ),
    "search-hillclimb-Z64": (
        ["search", "--group", "Z64", "--k", "8", "--hillclimb", "--seed", "1",
         "--restarts", "3", "--json"],
        "77406cea4497ab91ed2d6c7b17f27e76664cd7778efc14351f7eb8e7a4d10322",
    ),
    "construct-greedy-Z4096": (
        ["construct", "--group", "Z4096", "--set", _drawn_set("Z4096", 40, 6),
         "--greedy", "--u", "40", "--json"],
        "06e26053c0aed5777c412f75c50f27bbddbcb4d5d6e2210edc65663ddc52efd7",
    ),
    "construct-greedy-Z64xZ64": (
        ["construct", "--group", "Z64xZ64", "--set", _drawn_set("Z64xZ64", 40, 7),
         "--greedy", "--u", "40", "--json"],
        "ef3c7a9d3b76d8ac7467542d1576c2479d9fe43daae0f7cb90adc57771fdb10d",
    ),
    "construct-greedy-Z64xZ64-text": (
        ["construct", "--group", "Z64xZ64", "--set", _drawn_set("Z64xZ64", 40, 7),
         "--greedy", "--u", "40"],
        "c37b38743fb2ec7ead82d618d970b118be91965d59843417ebd39c8039f44ebb",
    ),
    "construct-exact-Z4096": (
        ["construct", "--group", "Z4096", "--set", _drawn_set("Z4096", 12, 8),
         "--exact", "--json"],
        "a3e915b55983326bb4db4426983b5201757f280965af4f7d76062d4f94ddf730",
    ),
    "construct-exact-Z4096-text": (
        ["construct", "--group", "Z4096", "--set", _drawn_set("Z4096", 12, 8),
         "--exact"],
        "99b7927521d6d3f076dab1866115f19a147d1dbafd33d4e66f55e81e8c518ad7",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden_digest(name, capsys):
    argv, digest = CLI_CASES[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
