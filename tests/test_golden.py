"""Golden snapshots: SHA-256 digests of canonical verifier JSON.

The digests pin `VerificationRun.to_json()` byte for byte: the lexicographic
witness tie-break, the counterexample order, the `stats` keys and the
random draws.  A refactor of the verifier driver must leave every one of
them unchanged.  To re-derive a digest, hash `run.to_json().encode()`.
"""

import hashlib

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
