"""The CLI's pinned calls: one row per call, each run as `python -S -m circorbits`.

A row holds the argv, the environment added to the caller's (from which
conftest.run_python drops CIRCORBITS_BUDGET and COLUMNS), the CPU set, the
memory cap in KiB and a timeout in seconds, then the expected exit code,
the SHA-256 of stdout and the whole stderr text.

- The child runs under -S, which hides every installed package, so a row
  fails if the package ever needs a runtime dependency. It is started as
  users start it, through `python -m circorbits` and `cli.run`.
- `cpus` is applied with os.sched_setaffinity and `mem_kib` with
  resource.setrlimit(RLIMIT_AS), as `taskset` and `ulimit -v` would, in the
  child only. verify sweeps on every usable CPU and on one CPU stays in one
  process, so the one-CPU rows pin that its report and its refusal are the
  same bytes either way. The memory cap pins that a letter occurring at
  most once gives at most one word, built without a table of l^2/2 bytes
  or the run-list search's state of about 115 bytes per letter.
- `timeout` guards against a hang. The 10 s rows are requests that must be
  answered or refused at once, where earlier versions took seconds or more.
- A stdout of None is not pinned: help text is argparse's, whose wording
  has changed between Python releases. test_cli.py compares it with the
  full parser's in-process.

Every digest and stderr text was recorded from a commit whose output is
known to be right, and no row is ever re-recorded to make a test pass. A
change meant to alter what a call prints edits that call's row, and says why.
"""

import hashlib
import os
import resource
import sys
from collections import namedtuple

import pytest

from circorbits import cli
from circorbits.cli import build_parser, main
from circorbits.errors import CircorbitsError

from conftest import run_python

Pin = namedtuple("Pin", "id argv code stdout stderr env cpus mem_kib timeout",
                 defaults=(None, None, None, 60))

EMPTY = hashlib.sha256(b"").hexdigest()
ONE_CPU = {min(os.sched_getaffinity(0))}


def error(line: str) -> str:
    """The stderr of a refusal: one `error: ` line."""
    return f"error: {line}\n"


ENUMERATION = " (max(W, l)*n*l for W candidate words)"
SWEEP = " (max(W, l)*n*l for W candidate words, summed over cases)"
CLASSES = " (sum of min(k, l-k) * bits(l))"
USAGE_ERROR = ("usage: circorbits [-h] {count,lattice,lyndon,enumerate,verify,graph} ...\n"
               "circorbits: error: unrecognized arguments: extra\n")
# Rows that must print the same bytes share one constant.
COUNT_21_4_10_15 = "8b4ce7381871a01ddb462fdeb197bb13530307ffb0b7e2e90202b1f68fc9e2f1"
LYNDON_9_3 = "2f23c64c485f5d58e7a36901d5110f20f4015f4cecbede282a2034523b7768d5"
VERIFY_7_8 = "77f83405b511f462ac9d3625bc1d094e64c22967c41810f5f2749f868c1e61eb"
VERIFY_6_8_AT_7000 = error(f"enumerating the sweep to length 8 on C_3(1,2) costs at least 10758 > "
                           f"budget 7000{SWEEP}")

PINS = [
    # Answers: exit 0, nothing on stderr.
    Pin("count-json", "count --n 21 --a 4 --b 10 --length 15", 0, COUNT_21_4_10_15, ""),
    # Its classes (15,4) and (15,11) are charged 16 each, summed: 32 fits.
    Pin("count-json-budget-32", "count --n 21 --a 4 --b 10 --length 15", 0, COUNT_21_4_10_15, "",
        env={"CIRCORBITS_BUDGET": "32"}),
    Pin("count-plain", "count --n 21 --a 4 --b 10 --length 15 --format plain", 0,
        "17edeedd714e025a443974ebb36ece935d1ecfa85dd42274c53cd10f3d6f59ec", ""),
    Pin("count-json-skipped", "count --n 21 --a 4 --b 10 --length 15 --show-skipped", 0,
        "6c4f9d451b33e011667df9eac547f50a0013dd2b4f33e170f3f229f779f18baf", ""),
    Pin("count-plain-skipped",
        "count --n 21 --a 4 --b 10 --length 15 --format plain --show-skipped", 0,
        "403c2ba97fd4049c00415d1074a7b27679760cc4a13f9021f4b49dd7356c61b7", ""),
    Pin("count-bcount", "count --n 440 --a 5 --b 14 --length 360 --bcount 240", 0,
        "d670a994df888a7d9a01909d0ba6a45f6a290d29d3bb733a932b560f8623962c", ""),
    Pin("count-bcount-plain",
        "count --n 440 --a 5 --b 14 --length 360 --bcount 240 --format plain", 0,
        "c7d89d4ee10697fb8f408c49d8f7d5a5a8867a3f5a285e1fad3326e78106b4e6", ""),
    Pin("count-bcount-unreduced",
        "count --n 440 --a 5 --b 14 --length 360 --bcount 240 --method unreduced", 0,
        "2c4915955a32a0f3b717794d6c641c1e1b29266594be186835270dcd5aec9c0d", ""),
    Pin("count-unreduced-plain",
        "count --n 13 --a 2 --b 7 --length 12 --method unreduced --format plain", 0,
        "f6d83bc6418d4ea95d408095707cf714fbb9019996eb92113cfca7cb76e27bfd", ""),
    Pin("count-unreduced-json", "count --n 13 --a 2 --b 7 --length 12 --method unreduced", 0,
        "e8e73c982bdfa31d52d8064c3c488210313ef5b08eaf89746a76c16b2bca0584", ""),
    Pin("count-unreduced-json-skipped",
        "count --n 13 --a 2 --b 7 --length 12 --method unreduced --show-skipped", 0,
        "cbfe90613c7a8e2f57cc5ab228898bd76d91e3c221977b26302ca551771cbd95", ""),
    Pin("count-non-lattice-bcount", "count --n 5 --a 1 --b 4 --length 3 --bcount 1", 0,
        "f72d14a7eee1b98facc8a2de28497385a477f26d5d592afc140c364b1b41ef71", ""),
    # C_4(1,3) at length 3 has no class, so its classes are [], and at length
    # 4 no in-range winding number is skipped, so its skipped_omegas are [].
    Pin("count-no-classes-skipped", "count --n 4 --a 1 --b 3 --length 3 --show-skipped", 0,
        "c881156e22a8315864716d0d2a24884794ffab8067d799b7cc9c37abe2788c6e", ""),
    Pin("count-none-skipped", "count --n 4 --a 1 --b 3 --length 4 --show-skipped", 0,
        "944ab8415cbb8029f522e2ef28276c34268a922efe8d7f88a83689ac3b4f4675", ""),
    # The unreduced count of a gcd with 480 repetition blocks (720720 * 50000000021):
    # its 10,935 terms.
    Pin("count-480-blocks", "count --n 36036000015135120 --a 1 --b 2 --length 36036000015135120 "
        "--bcount 0 --method unreduced", 0,
        "56dde82d6426e75d459c0141977604dfb948c68dcf421b1762d52d2ee76318dc", "", timeout=10),
    # Counts, binomials and totals past cli._SPLIT_BITS (1536 bits), which are
    # printed by splitting at powers of ten or assembled from printed terms:
    # C_3(1,2)'s 1001 classes at length 3000, 769 of them past it, and their
    # 2989-bit total; one 3297-bit class of C_440(5,14) by each method; the 9
    # classes and 221 terms of C_1000(5,318) at length 8000; and a 6015-digit
    # Lyndon count. Recorded before either route existed.
    Pin("count-json-3000", "count --n 3 --a 1 --b 2 --length 3000", 0,
        "8146ae8e9a4e272678de4646aa613a2eacea0a560f05a29afa8fac49e9a86205", ""),
    Pin("count-plain-skipped-3000",
        "count --n 3 --a 1 --b 2 --length 3000 --format plain --show-skipped", 0,
        "9c35012cee1a05e3cdf1c2553ef2fd4d2b0911dd4889be970071c0a16a6b2e4b", ""),
    Pin("count-bcount-3600", "count --n 440 --a 5 --b 14 --length 3600 --bcount 2400", 0,
        "d678c94800df299ef8c6cb95d3f4675a327a1efd11fc4b8f95fbb9e0b88bf8e0", ""),
    Pin("count-bcount-3600-unreduced",
        "count --n 440 --a 5 --b 14 --length 3600 --bcount 2400 --method unreduced", 0,
        "0ef4247dfffb71e74ab46ed4a602540004946b7956e910052f769130b7e40796", ""),
    Pin("count-unreduced-plain-8000",
        "count --n 1000 --a 5 --b 318 --length 8000 --method unreduced --format plain", 0,
        "867c0e29a77087d1634f4585d7c32023feef305b1b88231939642ccfce613379", ""),
    # Its JSON twin, recorded before count lines were written without json.dumps.
    Pin("count-unreduced-json-8000",
        "count --n 1000 --a 5 --b 318 --length 8000 --method unreduced", 0,
        "caddb06c8a684079976c1843a3092fa7a71e44fc22c7f9728b82a121a8cc7820", ""),
    Pin("lyndon-count-20000", "lyndon count --length 20000 --bcount 10000", 0,
        "c68e05b84bdf3bc6a3b8637fcf8bfceaa64cc79695f701eaa3f6283332401e60", ""),
    # Past the tests' math.comb reach: the Moebius sum of C(10**6/m, 3*10**5/m),
    # m = 1, 2, 5, 10, Legendre binomials over the primes below 2^20 to 2^17.
    # Recorded before their runs of primes were taken from product-tree nodes.
    Pin("lyndon-count-1000000", "lyndon count --length 1000000 --bcount 300000", 0,
        "f9a9aa034ede7f63214e0c0755d1449a6f655334c28ff6eb3478178ebe04d7e8", ""),
    Pin("lattice-json", "lattice --n 21 --a 4 --b 10 --lmax 15", 0,
        "e5d2ac39c0efb8569e29f0c5756aa6b05c137eae248a9f5ca6fe32ee121a4f7a", ""),
    Pin("lattice-csv", "lattice --n 21 --a 4 --b 10 --lmax 15 --format csv", 0,
        "bda867f4e8b5b45cc9b9446df3e3382b9ce5689e8b27c313bdc2a4d4618301f9", ""),
    Pin("lyndon-count", "lyndon count --length 360 --bcount 240", 0,
        "afb2228bb187237b38dafe96040b1f1eb94b24c431bf6048eb2eb6f036dca4a4", ""),
    Pin("lyndon-list", "lyndon list --length 12 --bcount 4", 0,
        "63bfabc3e114e9f8b540858a4d6b5a8be3f34e96eb58d7c5da89cd28ac373a48", ""),
    # An option before lyndon's positional parses as it does after it.
    Pin("lyndon-list-9-3", "lyndon list --length 9 --bcount 3", 0, LYNDON_9_3, ""),
    Pin("lyndon-list-9-3-option-first", "lyndon --length 9 list --bcount 3", 0, LYNDON_9_3, ""),
    Pin("lyndon-list-one-b", "lyndon list --length 100001 --bcount 1", 0,
        "4d068a75dba5a8f2d129558c1c8c95558a0387a16bce02447862d83103b82faa", "",
        mem_kib=1_000_000),
    # The digest is that of "a" + "b" * 9999999 + "\n".
    Pin("lyndon-list-one-a", "lyndon list --length 10000000 --bcount 9999999", 0,
        "7d66ab5ebf7c2e80349e7952dce72ff94b1166f03f32c4b4455f70ba4c47f371", "",
        mem_kib=1_000_000, timeout=10),
    Pin("lyndon-list-no-a", "lyndon list --length 10000000000 --bcount 10000000000", 0, EMPTY, "",
        mem_kib=1_000_000, timeout=10),
    Pin("lyndon-list-steps", "lyndon list --length 9 --bcount 3 --steps 9,1,4", 0,
        "bb3049de2eed86ecfa6959acd0404967b193b1c45450263fdd815071320bd10c", ""),
    Pin("lyndon-list-comma-steps", "lyndon list --length 8 --bcount 3 --steps 21,4,10", 0,
        "0ea39b994fb8f5a2cfc4e1998e4d5d15684950c55caba63bdfde6b5e6c4af10f", ""),
    Pin("lyndon-list-two-digit-steps", "lyndon list --length 9 --bcount 3 --steps 23,10,13", 0,
        "e2ffb0f03d6791094785a1a68bb2acd86f04f8874282d971486641a0e2d93951", ""),
    Pin("enumerate", "enumerate --n 9 --a 1 --b 4 --length 9", 0,
        "26dbd89f28de2acc2f4500a5220b9cba1447706b957dd3a376f0529745a04737", ""),
    Pin("enumerate-primitive-only", "enumerate --n 9 --a 1 --b 4 --length 9 --primitive-only", 0,
        "f877375de7e91021b0c94ac0f7cf949f325b0795c1568f9f0c13d657d264f579", ""),
    Pin("enumerate-bcount-primitive-only",
        "enumerate --n 9 --a 1 --b 4 --length 9 --bcount 3 --primitive-only", 0,
        "8da74a4713a2ce8342c3c327ad8f1cf7b65b04a927a720c9f08cb6629750afb9", ""),
    Pin("enumerate-comma-steps", "enumerate --n 12 --a 1 --b 10 --length 9", 0,
        "622b30e39d8777321ff391cd0aff50ed5d061db2d290fc8206cc32dea8583cff", ""),
    Pin("enumerate-two-digit-a-primitive-only",
        "enumerate --n 23 --a 10 --b 13 --length 6 --primitive-only", 0,
        "84fcae5efa5c8f1634a8b320c482058600e5a40ca6fc2537cdae346fa2244a89", ""),
    # The earlier report (46171a91...) with "checks": 1933 -> 1800, one row
    # fewer in each of its 133 cases when the total-vs-classes row went.
    Pin("verify", "verify --nmax 6 --lmax 7", 0,
        "4c9a26f06fdc5b108b298e034d6526868a7dd261bdd6d7dd452e0833998b2106", ""),
    Pin("verify-5-5", "verify --nmax 5 --lmax 5", 0,
        "c6cc43eb677495d8e3a1078c7e032e28ca82d7d197f3262eb9fc4b6cff4d25d9", ""),
    Pin("verify-7-8", "verify --nmax 7 --lmax 8", 0, VERIFY_7_8, ""),
    Pin("verify-7-8-one-cpu", "verify --nmax 7 --lmax 8", 0, VERIFY_7_8, "", cpus=ONE_CPU),
    Pin("graph-2-steps", "graph --n 5 --steps 1,4", 0,
        "b3d8eb827e46f0911768f6982fe24c20f4ea5cdd417bd6205acc2f1134ee0731", ""),
    Pin("graph-3-steps", "graph --n 8 --steps 1,2,3", 0,
        "41148330af4d5b2985909bc57cad4d6a4a4327409bc6e23b35556d99956ccb21", ""),
    Pin("help", "--help", 0, None, ""),
    *(Pin(f"{command}-help", f"{command} --help", 0, None, "")
      for command in ("count", "lattice", "lyndon", "enumerate", "verify", "graph")),
    # Refusals: nothing on stdout, one stderr line. A call naming a
    # subcommand is parsed by that subcommand's parser alone; left-over
    # arguments go to the full parser, whose usage line lists every subcommand.
    Pin("count-extra-argument", "count --n 5 --a 1 --b 2 --length 3 extra", 2, EMPTY,
        USAGE_ERROR),
    Pin("lyndon-extra-argument", "lyndon count --length 5 --bcount 2 extra", 2, EMPTY,
        USAGE_ERROR),
    Pin("count-steps-out-of-order", "count --n 5 --a 4 --b 1 --length 5", 2, EMPTY,
        error("need 0 < a < b < n, got n=5, a=4, b=1")),
    Pin("count-zero-length", "count --n 5 --a 1 --b 4 --length 0", 2, EMPTY,
        error("length must be >= 1, got 0")),
    Pin("count-bcount-above-length", "count --n 5 --a 1 --b 4 --length 3 --bcount 7", 2, EMPTY,
        error("b-count must satisfy 0 <= k <= l, got k=7, l=3")),
    Pin("count-non-lattice-unreduced",
        "count --n 5 --a 1 --b 4 --length 3 --bcount 1 --method unreduced", 2, EMPTY,
        error("(l=3, k=1) is not a lattice point of C_5(1,4)")),
    Pin("count-disconnected", "count --n 12 --a 2 --b 4 --length 6", 3, EMPTY,
        error("C_12(2,4) is disconnected: gcd(12,2,4) = 2 != 1")),
    Pin("lattice-zero-lmax", "lattice --n 7 --a 1 --b 3 --lmax 0", 2, EMPTY,
        error("l_max must be >= 1, got 0")),
    Pin("lyndon-bcount-above-length", "lyndon count --length 3 --bcount 5", 2, EMPTY,
        error("b-count must satisfy 0 <= k <= l, got k=5, l=3")),
    Pin("lyndon-list-budget", "lyndon list --length 20 --bcount 10", 4, EMPTY,
        error("generating W_2(20,10) costs 184500 > budget 100"),
        env={"CIRCORBITS_BUDGET": "100"}),
    # enumerate checks its arguments and its budget before it writes a line.
    Pin("enumerate-negative-length", "enumerate --n 9 --a 1 --b 4 --length -1", 2, EMPTY,
        error("length must be >= 1, got -1")),
    Pin("enumerate-negative-length-n-16", "enumerate --n 16 --a 1 --b 14 --length -1", 2, EMPTY,
        error("length must be >= 1, got -1")),
    Pin("enumerate-zero-length", "enumerate --n 9 --a 1 --b 4 --length 0", 2, EMPTY,
        error("length must be >= 1, got 0")),
    Pin("enumerate-negative-length-bcount",
        "enumerate --n 9 --a 1 --b 4 --length -1 --bcount 0", 2, EMPTY,
        error("length must be >= 1, got -1")),
    Pin("enumerate-bcount-above-length", "enumerate --n 9 --a 1 --b 4 --length 4 --bcount 5", 2,
        EMPTY, error("b-count must satisfy 0 <= k <= l, got k=5, l=4")),
    Pin("enumerate-negative-bcount", "enumerate --n 9 --a 1 --b 4 --length 4 --bcount -1", 2,
        EMPTY, error("b-count must satisfy 0 <= k <= l, got k=-1, l=4")),
    Pin("enumerate-budget-10", "enumerate --n 9 --a 1 --b 4 --length 9", 4, EMPTY,
        error(f"enumerating length 9 on C_9(1,4) costs at least 729 > budget 10{ENUMERATION}"),
        env={"CIRCORBITS_BUDGET": "10"}),
    Pin("enumerate-budget-1000", "enumerate --n 9 --a 1 --b 4 --length 9", 4, EMPTY,
        error(f"enumerating length 9 on C_9(1,4) costs at least 41472 > budget 1000"
              f"{ENUMERATION}"),
        env={"CIRCORBITS_BUDGET": "1000"}),
    # CIRCORBITS_BUDGET is the one work budget: invalid exits 2.
    Pin("budget-not-an-integer", "enumerate --n 9 --a 1 --b 4 --length 9", 2, EMPTY,
        error("CIRCORBITS_BUDGET must be an integer, got 'abc'"),
        env={"CIRCORBITS_BUDGET": "abc"}),
    Pin("budget-not-an-integer-verify", "verify --nmax 5 --lmax 5", 2, EMPTY,
        error("CIRCORBITS_BUDGET must be an integer, got 'abc'"),
        env={"CIRCORBITS_BUDGET": "abc"}),
    Pin("budget-negative", "enumerate --n 9 --a 1 --b 4 --length 9", 2, EMPTY,
        error("CIRCORBITS_BUDGET must be >= 1, got -1"), env={"CIRCORBITS_BUDGET": "-1"}),
    Pin("budget-zero", "enumerate --n 9 --a 1 --b 4 --length 9", 2, EMPTY,
        error("CIRCORBITS_BUDGET must be >= 1, got 0"), env={"CIRCORBITS_BUDGET": "0"}),
    Pin("budget-zero-verify", "verify --nmax 5 --lmax 6", 2, EMPTY,
        error("CIRCORBITS_BUDGET must be >= 1, got 0"), env={"CIRCORBITS_BUDGET": "0"}),
    Pin("verify-zero-lmax", "verify --nmax 5 --lmax 0", 2, EMPTY,
        error("l_max must be >= 1, got 0")),
    Pin("verify-negative-lmax", "verify --nmax 5 --lmax -2", 2, EMPTY,
        error("l_max must be >= 1, got -2")),
    # count charges a length's classes one sum, min(k, l-k) * bits(l) each,
    # before any binomial: 16 + 16 = 32 here, and past the default budget
    # within the first few thousand of C_3(1,2)'s 3.3 million classes.
    Pin("count-budget-31", "count --n 21 --a 4 --b 10 --length 15", 4, EMPTY,
        error(f"binomials of length 15 charge 32 > budget 31{CLASSES}"),
        env={"CIRCORBITS_BUDGET": "31"}),
    Pin("count-dense-huge-length", "count --n 3 --a 1 --b 2 --length 10000000", 4, EMPTY,
        error(f"binomials of length 10000000 charge 268533768 > budget 268435456{CLASSES}"),
        mem_kib=1_000_000, timeout=10),
    # verify charges its sweep one running sum of its cases, n * l << l each,
    # as the graphs are listed and before any case runs. So a sweep is refused
    # at the case the sum passes the budget at, a huge --lmax without listing
    # its lengths, and a sweep of many small graphs without listing the graphs
    # after it (940k listed here, of billions).
    Pin("verify-over-budget", "verify --nmax 13 --lmax 20", 4, EMPTY,
        error(f"enumerating the sweep to length 20 on C_4(1,2) costs at least 278921230 > "
              f"budget 268435456{SWEEP}"), timeout=10),
    Pin("verify-huge-lmax", "verify --nmax 3 --lmax 1000000000", 4, EMPTY,
        error(f"enumerating the sweep to length 22 on C_3(1,2) costs at least 528482310 > "
              f"budget 268435456{SWEEP}"), timeout=10),
    Pin("verify-many-graphs", "verify --nmax 3000 --lmax 1", 4, EMPTY,
        error(f"enumerating the sweep to length 1 on C_190(120,127) costs at least 268435750 > "
              f"budget 268435456{SWEEP}"), mem_kib=1_000_000, timeout=30),
    Pin("verify-budget-7000", "verify --nmax 6 --lmax 8", 4, EMPTY, VERIFY_6_8_AT_7000,
        env={"CIRCORBITS_BUDGET": "7000"}),
    Pin("verify-budget-7000-one-cpu", "verify --nmax 6 --lmax 8", 4, EMPTY, VERIFY_6_8_AT_7000,
        env={"CIRCORBITS_BUDGET": "7000"}, cpus=ONE_CPU),
    Pin("graph-steps-out-of-order", "graph --n 5 --steps 4,1", 2, EMPTY,
        error("steps must be strictly increasing in 1..n-1, got [4, 1]")),
    Pin("graph-zero-n", "graph --n 0 --steps 1", 2, EMPTY, error("need n >= 1, got n=0")),
]


def _limit(pin: Pin) -> None:
    """Restrict this process to pin.cpus and cap it at pin.mem_kib; run in the child."""
    if pin.cpus is not None:
        os.sched_setaffinity(0, pin.cpus)
    if pin.mem_kib is not None:
        resource.setrlimit(resource.RLIMIT_AS, (pin.mem_kib * 1024,) * 2)


@pytest.mark.parametrize("pin", PINS, ids=[pin.id for pin in PINS])
def test_cli_call_prints_its_pinned_bytes(pin):
    proc = run_python("-m", "circorbits", *pin.argv.split(), env=pin.env, timeout=pin.timeout,
                      preexec_fn=lambda: _limit(pin))
    stdout = None if pin.stdout is None else hashlib.sha256(proc.stdout).hexdigest()
    assert (proc.returncode, stdout, proc.stderr.decode()) == (pin.code, pin.stdout, pin.stderr)


class _FailingStdout:
    """A sys.stdout whose every write fails the test."""

    def write(self, text):
        raise AssertionError(f"written past the handler's writer: {text[:60]!r}")


# Every row that reaches a handler: not help, whose stdout is not pinned, nor
# an argparse usage error, nor a memory-capped row, whose cap holds only in a child.
_HANDLED = [pin for pin in PINS
            if pin.stdout is not None and pin.stderr != USAGE_ERROR and pin.mem_kib is None]


@pytest.mark.parametrize("pin", _HANDLED, ids=[pin.id for pin in _HANDLED])
def test_every_byte_goes_through_the_writer_main_passes(monkeypatch, pin):
    # In process, as main runs the handler: in the row's environment, with the
    # int/str digit limit lifted, and with a sys.stdout that fails on write.
    monkeypatch.delenv("CIRCORBITS_BUDGET", raising=False)
    for name, value in (pin.env or {}).items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(sys, "stdout", _FailingStdout())
    args, chunks = cli._parse(pin.argv.split()), []
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if pin.code:
            with pytest.raises((CircorbitsError, ValueError)) as refusal:
                args.func(args, chunks.append)
            code = getattr(refusal.value, "exit_code", 2)
        else:
            code = args.func(args, chunks.append)
    finally:
        sys.set_int_max_str_digits(limit)
    stdout = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert (code, stdout) == (pin.code, pin.stdout)


# Forms where a subcommand's own parser could part from the nested one: an
# option before lyndon's positional, abbreviated, `=`-joined and repeated
# flags, and a `--`.
_FORMS = [
    "lyndon --length 5 count --bcount 2", "count --len 15 --n 21 --a 4 --b 10",
    "count --n=21 --a 4 --b 10 --length 15", "count --n 21 --a 4 --b 10 --length 9 --length 15",
    "lyndon --length 5 --bcount 2 -- count",
]
_ARGVS = list(dict.fromkeys([pin.argv for pin in PINS] + _FORMS))


def _outcome(parse, argv, capsys):
    """vars() of parse(argv)'s namespace, or its exit code and output on help or a usage error."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()


@pytest.mark.parametrize("argv", _ARGVS, ids=_ARGVS)
def test_narrowed_parser_parses_as_the_full_one(capsys, argv):
    # The namespace main runs, command and handler included, is the full parser's.
    argv = argv.split()
    assert _outcome(cli._parse, argv, capsys) == _outcome(build_parser().parse_args, argv, capsys)


def test_main_reads_sys_argv_without_an_argument(capsys, monkeypatch):
    pin = PINS[0]
    assert pin.id == "count-json"
    monkeypatch.setattr("sys.argv", ["circorbits", *pin.argv.split()])
    assert main() == pin.code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pin.stdout
