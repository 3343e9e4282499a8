"""The committed mutant table, and a runner that checks the tests kill every mutant.

    python tests/mutants.py

Each row names a module of src/circorbits, an exact fragment of its source,
the fragment's replacement and the test modules that must fail once the
replacement is made. For each row the runner copies src/ and tests/ to a
temporary directory, applies the row there and runs those test modules with
pytest, stopping at the first failure; the checkout is never edited.
pytest runs with --assert=plain: a failing comparison of two long outputs is
then reported at once, not after minutes of rendering their diff at every
step of Hypothesis' shrinking. It fails if a fragment does not occur exactly
once in its module, or if a mutant survives: its test modules pass, fail in
some other way than a failing test (exit code 1), such as an import error, or
are still running after TIMEOUT seconds.

The unmutated tests must pass (tier-1 checks that), or every mutant looks
killed. A change that moves or rewords a fragment must update its row.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "id module fragment replacement tests")

MUTANTS = [
    # Invariant guards that correct code cannot reach, each killed by a test
    # that injects the fault:
    # test_bcounts_for_length_refuses_a_winding_number_off_the_class,
    # test_phi_refuses_presentations_that_disagree_with_the_repetition,
    # test_negative_winding_number_raises_invariant_violated,
    # test_basis_refuses_a_wrong_inverse and
    # test_count_lyndon_refuses_a_sum_that_l_does_not_divide.
    Mutant("class-winding-off-g", "lattice.py", "if rest or omega % g:", "if rest:",
           ["tests/test_lattice.py"]),
    Mutant("phi-presentation-count", "oracle.py", "if len(keys) * repetition != l:",
           "if False:", ["tests/test_oracle.py"]),
    Mutant("winding-below-1", "counting.py", "if omega < 1:", "if False:",
           ["tests/test_counting.py"]),
    Mutant("basis-rest", "lattice.py", "    if rest:\n        raise InvariantViolated(f\"basis",
           "    if False:\n        raise InvariantViolated(f\"basis", ["tests/test_lattice.py"]),
    Mutant("lyndon-total-mod-l", "words.py", "if total % l:", "if False:",
           ["tests/test_words.py"]),
    # The summed charges of count and verify, undone: count_orbits_l sums
    # nothing, so only each class's own charge is left, and verify_range
    # charges each case on its own.
    Mutant("count-charges-classes-singly", "counting.py", "lambda c: min(c.k, l - c.k) * bits,",
           "lambda c: 0,", ["tests/test_counting.py"]),
    Mutant("verify-charges-cases-singly", "oracle.py", "charged(swept, cost, what, rule)",
           "(c for c in swept if charge(cost(c), what.format(c), rule) is None)",
           ["tests/test_oracle.py"]),
    # The one rotation walk per candidate word and the directly placed last
    # run, each tested one step off: the walk stops at the first rotation
    # not above x, so it keeps no word; the repetition counts the rotations
    # equal to x at any residue, the word's and not the circuit's; the last
    # run may equal the run one period back, so periodic run lists are kept.
    Mutant("rotation-walk-stops-at-equal", "oracle.py", "if y < x:", "if y <= x:",
           ["tests/test_oracle.py"]),
    Mutant("rotation-walk-repetition-any-residue", "oracle.py", "if y == x and d == 0:",
           "if y == x:", ["tests/test_oracle.py"]),
    Mutant("lyndon-last-run-may-repeat", "words.py", "if rest < r[t + 1 - p]:",
           "if rest <= r[t + 1 - p]:", ["tests/test_words.py"]),
    # The one Moebius sum of every formula: repetition blocks leak into the
    # reduced and Lyndon sums (omega = 0), or a block's binomial forgets q.
    Mutant("blocks-at-omega-0", "numtheory.py", "if omega % p", "if True",
           ["tests/test_words.py"]),
    Mutant("block-binomial-drops-q", "words.py", "l // (q * m)", "l // m",
           ["tests/test_counting.py"]),
    # The Legendre binomial's runs ((x-y)//j, x//j] of primes above y: a run's
    # lower edge also takes the prime equal to (x-y)//j; the runs stop after
    # j = 1; and a prime in (sqrt(x), y] is tested with y % p kept in 16 bits,
    # wrong only for primes above 2^16, so only at x > 2^17 (y <= x/2).
    Mutant("run-takes-lower-edge", "numtheory.py", "bisect_right(primes, (x - y) // j)",
           "bisect_right(primes, (x - y) // j - 1)", ["tests/test_numtheory.py"]),
    Mutant("runs-stop-after-j-1", "numtheory.py", "range(1, x // (y + 1) + 1)", "range(1, 2)",
           ["tests/test_numtheory.py"]),
    Mutant("residue-in-16-bits", "numtheory.py", "if x % p < y % p]", "if x % p < y % p & 65535]",
           ["tests/test_numtheory.py"]),
    # A product-tree node of height h holds 2**h primes; cut one prime short,
    # every run that takes the node loses its last prime.
    Mutant("node-one-prime-short", "numtheory.py", "[t << h:(t + 1) << h])",
           "[t << h:((t + 1) << h) - 1])", ["tests/test_numtheory.py"]),
    # divisors reads the blocks of omega = 1, each q once at m = 1; unfiltered,
    # a q is listed once per squarefree m | gamma/q.
    Mutant("divisors-every-block", "numtheory.py", " if s == 1]", "]",
           ["tests/test_numtheory.py"]),
    # The CLI's output: verify prints past the writer main passes its handler;
    # enumerate keeps the comma after the last step of a comma-separated word;
    # lattice prints a instead of a' = a/g, the same when g = 1.
    Mutant("verify-writes-past-its-writer", "cli.py", 'write(json.dumps(report) + "\\n")',
           'sys.stdout.write(json.dumps(report) + "\\n")', ["tests/test_cli_pins.py"]),
    Mutant("enumerate-keeps-last-comma", "cli.py", 'translate(bits).removesuffix(",")',
           "translate(bits)", ["tests/test_cli.py"]),
    Mutant("lattice-a-prime-undivided", "cli.py", '"a_prime": B.a_prime,', '"a_prime": G.a,',
           ["tests/test_cli.py"]),
    # Printing ints past cli._SPLIT_BITS: each low piece of the split loses its
    # leading zeros; the split has no leaf, so it recurses without end; an
    # assembled count is printed unchecked, so a wrong printed term goes by.
    Mutant("decimal-drops-padding", "cli.py", "return str(x).zfill(width)", "return str(x)",
           ["tests/test_cli.py"]),
    Mutant("decimal-without-threshold", "cli.py", "if x < 0 or x.bit_length() <= _SPLIT_BITS:",
           "if x < 0:", ["tests/test_cli_pins.py"]),
    Mutant("assembled-unchecked", "cli.py", "if rest or count % _RESIDUE != value % _RESIDUE:",
           "if False:", ["tests/test_cli.py"]),
    # count's JSON, written without json.dumps: an unreduced term loses its q
    # key; an off-lattice omega is printed as None, not null; --show-skipped
    # is dropped.
    Mutant("count-json-drops-q", "cli.py", """("{" if t.q is None else f'{{"q": {t.q}, ')""",
           '"{"', ["tests/test_cli.py"]),
    Mutant("count-json-omega-none", "cli.py",
           'omega = "null" if report.omega is None else report.omega', "omega = report.omega",
           ["tests/test_cli.py"]),
    Mutant("count-json-drops-skipped", "cli.py", 'if args.show_skipped else "")',
           'if False else "")', ["tests/test_cli.py"]),
]

# Seconds a row's pytest may run. The slowest row takes well under a minute; a
# mutant that loops is stopped here and fails its row, since it was not killed.
TIMEOUT = 600


def outcome(mutant: Mutant) -> str:
    """'killed by' the first failing test, or why the row fails."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, tmp / tree,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        path = tmp / "src" / "circorbits" / mutant.module
        source = path.read_text()
        if source.count(mutant.fragment) != 1:
            return f"fragment occurs {source.count(mutant.fragment)} times in {mutant.module}"
        path.write_text(source.replace(mutant.fragment, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "--assert=plain",
                                   "-p", "no:cacheprovider", *mutant.tests],
                                  cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"survived (pytest still running after {TIMEOUT} s)"
        failed = [line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith("FAILED ")]
        if proc.returncode == 1 and failed:
            return f"killed by {failed[0]}"
        last = (proc.stdout + proc.stderr).strip().splitlines()[-1:] or [""]
        return f"survived (pytest exit {proc.returncode}: {last[0]})"


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        result = outcome(mutant)
        failed += not result.startswith("killed")
        print(f"{mutant.id}: {result}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
