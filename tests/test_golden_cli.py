"""Golden CLI outputs: the SHA-256 of stdout and the exit code of each call.

Every digest was recorded before the package's internals were folded
together, so a refactor that changes any byte a command prints, or any
exit code, fails here. To add a call, record its digest from a commit
whose output is known to be right.
"""

import hashlib

import pytest

from circorbits import cli
from circorbits.cli import build_parser, main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = [
    ("count-json", "count --n 21 --a 4 --b 10 --length 15", 0,
     "8b4ce7381871a01ddb462fdeb197bb13530307ffb0b7e2e90202b1f68fc9e2f1"),
    ("count-plain", "count --n 21 --a 4 --b 10 --length 15 --format plain", 0,
     "17edeedd714e025a443974ebb36ece935d1ecfa85dd42274c53cd10f3d6f59ec"),
    ("count-json-skipped", "count --n 21 --a 4 --b 10 --length 15 --show-skipped", 0,
     "6c4f9d451b33e011667df9eac547f50a0013dd2b4f33e170f3f229f779f18baf"),
    ("count-plain-skipped",
     "count --n 21 --a 4 --b 10 --length 15 --format plain --show-skipped", 0,
     "403c2ba97fd4049c00415d1074a7b27679760cc4a13f9021f4b49dd7356c61b7"),
    ("count-bcount", "count --n 440 --a 5 --b 14 --length 360 --bcount 240", 0,
     "d670a994df888a7d9a01909d0ba6a45f6a290d29d3bb733a932b560f8623962c"),
    ("count-bcount-plain",
     "count --n 440 --a 5 --b 14 --length 360 --bcount 240 --format plain", 0,
     "c7d89d4ee10697fb8f408c49d8f7d5a5a8867a3f5a285e1fad3326e78106b4e6"),
    ("count-bcount-unreduced",
     "count --n 440 --a 5 --b 14 --length 360 --bcount 240 --method unreduced", 0,
     "2c4915955a32a0f3b717794d6c641c1e1b29266594be186835270dcd5aec9c0d"),
    ("count-unreduced-plain",
     "count --n 13 --a 2 --b 7 --length 12 --method unreduced --format plain", 0,
     "f6d83bc6418d4ea95d408095707cf714fbb9019996eb92113cfca7cb76e27bfd"),
    ("count-unreduced-json", "count --n 13 --a 2 --b 7 --length 12 --method unreduced", 0,
     "e8e73c982bdfa31d52d8064c3c488210313ef5b08eaf89746a76c16b2bca0584"),
    ("count-unreduced-json-skipped",
     "count --n 13 --a 2 --b 7 --length 12 --method unreduced --show-skipped", 0,
     "cbfe90613c7a8e2f57cc5ab228898bd76d91e3c221977b26302ca551771cbd95"),
    ("count-non-lattice-bcount", "count --n 5 --a 1 --b 4 --length 3 --bcount 1", 0,
     "f72d14a7eee1b98facc8a2de28497385a477f26d5d592afc140c364b1b41ef71"),
    ("count-non-lattice-unreduced",
     "count --n 5 --a 1 --b 4 --length 3 --bcount 1 --method unreduced", 2, EMPTY),
    ("count-disconnected", "count --n 12 --a 2 --b 4 --length 6", 3, EMPTY),
    ("lattice-json", "lattice --n 21 --a 4 --b 10 --lmax 15", 0,
     "e5d2ac39c0efb8569e29f0c5756aa6b05c137eae248a9f5ca6fe32ee121a4f7a"),
    ("lattice-csv", "lattice --n 21 --a 4 --b 10 --lmax 15 --format csv", 0,
     "bda867f4e8b5b45cc9b9446df3e3382b9ce5689e8b27c313bdc2a4d4618301f9"),
    ("lyndon-count", "lyndon count --length 360 --bcount 240", 0,
     "afb2228bb187237b38dafe96040b1f1eb94b24c431bf6048eb2eb6f036dca4a4"),
    ("lyndon-list", "lyndon list --length 12 --bcount 4", 0,
     "63bfabc3e114e9f8b540858a4d6b5a8be3f34e96eb58d7c5da89cd28ac373a48"),
    ("lyndon-list-steps", "lyndon list --length 9 --bcount 3 --steps 9,1,4", 0,
     "bb3049de2eed86ecfa6959acd0404967b193b1c45450263fdd815071320bd10c"),
    ("lyndon-list-comma-steps", "lyndon list --length 8 --bcount 3 --steps 21,4,10", 0,
     "0ea39b994fb8f5a2cfc4e1998e4d5d15684950c55caba63bdfde6b5e6c4af10f"),
    ("enumerate", "enumerate --n 9 --a 1 --b 4 --length 9", 0,
     "26dbd89f28de2acc2f4500a5220b9cba1447706b957dd3a376f0529745a04737"),
    ("enumerate-primitive-only",
     "enumerate --n 9 --a 1 --b 4 --length 9 --primitive-only", 0,
     "f877375de7e91021b0c94ac0f7cf949f325b0795c1568f9f0c13d657d264f579"),
    ("enumerate-bcount-primitive-only",
     "enumerate --n 9 --a 1 --b 4 --length 9 --bcount 3 --primitive-only", 0,
     "8da74a4713a2ce8342c3c327ad8f1cf7b65b04a927a720c9f08cb6629750afb9"),
    # The earlier report (46171a91...) with "checks": 1933 -> 1800, one row
    # fewer in each of its 133 cases when the total-vs-classes row went.
    ("verify", "verify --nmax 6 --lmax 7", 0,
     "4c9a26f06fdc5b108b298e034d6526868a7dd261bdd6d7dd452e0833998b2106"),
    ("graph-2-steps", "graph --n 5 --steps 1,4", 0,
     "b3d8eb827e46f0911768f6982fe24c20f4ea5cdd417bd6205acc2f1134ee0731"),
    ("graph-3-steps", "graph --n 8 --steps 1,2,3", 0,
     "41148330af4d5b2985909bc57cad4d6a4a4327409bc6e23b35556d99956ccb21"),
]


@pytest.mark.parametrize("argv, code, digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_cli_output_is_unchanged(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Forms where a subcommand's own parser could part from the nested one: an
# option before lyndon's positional, abbreviated, `=`-joined and repeated
# flags, and a `--`.
_FORMS = [
    "lyndon --length 5 count --bcount 2", "count --len 15 --n 21 --a 4 --b 10",
    "count --n=21 --a 4 --b 10 --length 15", "count --n 21 --a 4 --b 10 --length 9 --length 15",
    "lyndon --length 5 --bcount 2 -- count", "lyndon --length 9 list --bcount 3",
]


@pytest.mark.parametrize("argv", [g[1] for g in GOLDEN] + _FORMS,
                         ids=[g[0] for g in GOLDEN] + _FORMS)
def test_narrowed_parser_parses_as_the_full_one(argv):
    # The namespace main runs, command and handler included, is the full parser's.
    argv = argv.split()
    assert vars(cli._parse(argv)) == vars(build_parser().parse_args(argv))


def test_main_reads_sys_argv_without_an_argument(capsys, monkeypatch):
    name, argv, code, digest = GOLDEN[0]
    assert name == "count-json"
    monkeypatch.setattr("sys.argv", ["circorbits", *argv.split()])
    assert main() == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
