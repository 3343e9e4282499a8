"""Command-line interface.

Subcommands: count (closed-form orbit counts), lattice (solution-lattice
basis and admissible classes), lyndon (fixed-content Lyndon word counting
and listing), enumerate (brute-force orbit listing), verify (formula vs.
enumeration sweep) and graph (Graphviz DOT export).

Exit codes are stable: 0 success, 1 verification mismatch, 141 from the
`circorbits` entry point when the reader closes stdout early, and for a
refusal the `exit_code` of its error type in `errors` (2 for a plain
ValueError).

The library returns plain values and the JSON, CSV and text shapes are built
here, except `oracle.verify_range`'s report and `graph.dot_graph`'s DOT text:
the report's decimal strings are library content, kept small by the enumeration
budget. Every byte goes out through the `write` that `main` passes each
handler. Counts inside JSON are decimal strings so consumers are not limited
to 53-bit integers. `count` and `enumerate` write their lines in `json.dumps`
layout with f-strings, from ints and digit strings that need no escaping, so
no `json.dumps` scans a count's digits; `json.dumps(json.loads(line))` gives
each line back.

Past `_SPLIT_BITS` bits, where `str`'s quadratic time shows, a class count is
`_assembled` from the decimals of its printed terms in exact `decimal`
arithmetic, linear in their digits, and a total from its classes' exact
values, which `_assembled` returns beside each decimal; a sum that leaves a
remainder or disagrees with the library value mod 2**61 - 1 raises
InvariantViolated. Every term and Lyndon count is printed by `_decimal`, which
splits one past `_SPLIT_BITS` bits at powers of ten. Only `_assembled` imports `decimal`.

A call whose first word names a subcommand is parsed by that subcommand's
parser alone, built as the full parser builds it, so its help and usage errors
are the full parser's: building all six takes several times as long, and for a
small count that is most of the call. Top-level help, no or an unknown command
and left-over arguments go to the full parser, built only off the hot path.
A call without help or usage errors imports no `shutil` (`_CHECK_FORMATTER`).

Only enumerate and verify import the brute-force `oracle`, inside their
handlers: a one-shot count, lattice, lyndon or graph call does not compile
or import it. Every module those four run is imported at the top.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Sequence

from .counting import (
    OrbitCountReport,
    count_orbits_l,
    count_orbits_lk,
    count_orbits_lk_unreduced,
)
from .errors import CircorbitsError, InvariantViolated
from .graph import CirculantGraph, dot_graph
from .lattice import basis, lattice_points, skipped_windings
from .words import DEFAULT_BUDGET, count_lyndon, list_lyndon, step_table

# Ints of at most this many bits are printed by str alone.
_SPLIT_BITS = 1536
_RESIDUE = 2**61 - 1


@functools.cache
def _pow10(e: int) -> int:
    return 10**e


def _decimal(x: int, width: int = 0) -> str:
    """str(x).zfill(width). Above _SPLIT_BITS bits, the digits of x // 10**e and
    x % 10**e, split at the largest e = 256 * 2**j with 10**e <= x: CPython's
    str(int) and divmod are both quadratic, and divmod has the smaller constant."""
    if x < 0 or x.bit_length() <= _SPLIT_BITS:
        return str(x).zfill(width)
    e = 256
    while _pow10(2 * e) <= x:
        e *= 2
    hi, lo = divmod(x, _pow10(e))
    return _decimal(hi, width - e) + _decimal(lo, e)


def _assembled(value: int, parts: Sequence[tuple[int, object]], n: int = 1,
               l: int = 1) -> tuple[str, object]:
    """The decimal and exact value (an int of at most _SPLIT_BITS bits, else a
    Decimal) of value == n * sum(c * x for c, x in parts) // l, from the x, each
    a decimal string or an exact value, above _SPLIT_BITS bits: InvariantViolated
    on a nonzero remainder or a residue mod 2**61 - 1 other than value's."""
    if value.bit_length() <= _SPLIT_BITS:
        return str(value), value
    import decimal

    with decimal.localcontext(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation]):
        count, rest = divmod(n * sum(c * decimal.Decimal(x) for c, x in parts), l)
        if rest or count % _RESIDUE != value % _RESIDUE:
            raise InvariantViolated(f"the printed terms of a {value.bit_length()}-bit count "
                                    f"do not sum to it")
    return str(count), count


def _printed(G: CirculantGraph, report: OrbitCountReport) -> tuple[str, object, list[str]]:
    """The decimal and exact value of report's count, assembled as counting._finish
    sums, and the decimals of its binomials."""
    binomials = [_decimal(t.binomial) for t in report.terms]
    parts = [(t.mu, s) for t, s in zip(report.terms, binomials)]
    return *_assembled(report.count, parts, G.n, report.l), binomials


def _class_json(G: CirculantGraph, report: OrbitCountReport, method: str) -> tuple[str, object]:
    """report's JSON object, in json.dumps layout, and its count's exact value."""
    count, exact, binomials = _printed(G, report)
    omega = "null" if report.omega is None else report.omega
    terms = ", ".join([("{" if t.q is None else f'{{"q": {t.q}, ')
                       + f'"m": {t.m}, "mu": {t.mu}, "binomial": "{s}"}}'
                       for t, s in zip(report.terms, binomials)])
    return (f'{{"n": {G.n}, "a": {G.a}, "b": {G.b}, "l": {report.l}, "k": {report.k}, '
            f'"omega": {omega}, "count": "{count}", "terms": [{terms}], '
            f'"method": "{method}"}}'), exact


def _write_plain(write: Callable[[str], object], G: CirculantGraph, report: OrbitCountReport,
                 indent: str) -> object:
    """Write report's lines; return its count's exact value."""
    count, exact, binomials = _printed(G, report)
    write(f"{indent}l={report.l} k={report.k} omega={report.omega} count={count}\n")
    for t, s in zip(report.terms, binomials):
        q = f"q={t.q} " if t.q is not None else ""
        write(f"{indent}  {q}m={t.m} mu={t.mu:+d} binomial={s}\n")
    return exact


def _cmd_count(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    G = CirculantGraph(args.n, args.a, args.b)
    l = args.length
    counter = count_orbits_lk_unreduced if args.method == "unreduced" else count_orbits_lk
    if args.bcount is not None:
        report = counter(G, l, args.bcount)
        if args.format == "json":
            write(_class_json(G, report, args.method)[0] + "\n")
        else:
            write(f"C_{G.n}({G.a},{G.b}) length {l} b-count {args.bcount} "
                  f"method {args.method}\n")
            _write_plain(write, G, report, "")
        return 0
    total, reports = count_orbits_l(G, l, counter)
    if args.format == "json":
        classes = [_class_json(G, r, args.method) for r in reports]
        texts = [text for text, _ in classes]
        total_text = _assembled(total, [(1, exact) for _, exact in classes])[0]
        skipped = (f'"skipped_omegas": [{", ".join(map(str, skipped_windings(G, l)))}], '
                   if args.show_skipped else "")
        write(f'{{"n": {G.n}, "a": {G.a}, "b": {G.b}, "l": {l}, "method": "{args.method}", '
              f'"total": "{total_text}", {skipped}"classes": [{", ".join(texts)}]}}\n')
    else:
        write(f"C_{G.n}({G.a},{G.b}) length {l} method {args.method}\n")
        values = [_write_plain(write, G, r, "  ") for r in reports]
        if args.show_skipped:
            skipped = ", ".join(str(w) for w in skipped_windings(G, l)) or "none"
            write(f"  skipped omegas: {skipped}\n")
        write(f"total {_assembled(total, [(1, value) for value in values])[0]}\n")
    return 0


def _cmd_lattice(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    G = CirculantGraph(args.n, args.a, args.b)
    B = basis(G)
    points = lattice_points(G, args.lmax)
    if args.format == "csv":
        write("l,k,omega\n")
        for c in points:
            write(f"{c.l},{c.k},{c.omega}\n")
    else:
        write(json.dumps({
            "n": G.n, "a": G.a, "b": G.b,
            "basis": {
                "a_prime": B.a_prime, "d_prime": B.d_prime,
                "l0": B.l0, "k0": B.k0,
                "matrix_numerators": [[B.k0, -B.l0], [B.a_prime, B.d_prime]],
                "denominator": B.n,
            },
            "points": [{"l": c.l, "k": c.k, "omega": c.omega} for c in points],
        }) + "\n")
    return 0


def _parse_steps(value: str) -> list[int]:
    try:
        return [int(p) for p in value.split(",")]
    except ValueError:
        raise ValueError(f"--steps wants comma-separated integers, got {value!r}") from None


def _cmd_lyndon(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    if args.action == "count":
        write(_decimal(count_lyndon(args.length, args.bcount)) + "\n")
        return 0
    table = None
    if args.steps is not None:
        steps = _parse_steps(args.steps)
        if len(steps) != 3:
            raise ValueError(f"--steps wants n,a,b (three integers), got {args.steps!r}")
        G = CirculantGraph(*steps)
        table = step_table(G.a, G.b)
    for w in list_lyndon(args.length, args.bcount):
        write((w if table is None else w.translate(table).removesuffix(",")) + "\n")
    return 0


def _cmd_enumerate(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    from .oracle import _orbit_groups

    G = CirculantGraph(args.n, args.a, args.b)
    l, orbits, primitive = args.length, 0, 0
    table = step_table(G.a, G.b)
    bits = {ord("0"): table[ord("a")], ord("1"): table[ord("b")]}  # a word as bits, a = 0
    # Lines are written per b-count from the canonical keys (start << l) | word,
    # in json.dumps layout; ints and strings of digits and commas need no escaping.
    for k, omega, keys, repeated in _orbit_groups(G, l, args.bcount):
        mask, fmt = (1 << l) - 1, f"0{l}b"
        tail = f'", "l": {l}, "k": {k}, "omega": {omega}, "repetition": '
        orbits += len(keys)
        primitive += len(keys) - len(repeated)
        if args.primitive_only and repeated:
            keys = [key for key in keys if key not in repeated]
        write("".join([f'{{"start": {key >> l}, "steps": '
                       f'"{format(key & mask, fmt).translate(bits).removesuffix(",")}'
                       f'{tail}{repeated.get(key, 1)}}}\n' for key in keys]))
    write(json.dumps({"orbits": orbits, "primitive": primitive,
                      "nonprimitive": orbits - primitive}) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    from .oracle import verify_range

    report = verify_range(args.nmax, args.lmax)
    write(json.dumps(report) + "\n")
    return 0 if report["passed"] else 1


def _cmd_graph(args: argparse.Namespace, write: Callable[[str], object]) -> int:
    write(dot_graph(args.n, _parse_steps(args.steps)))
    return 0


def _graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--a", type=int, required=True, help="smaller step size")
    p.add_argument("--b", type=int, required=True, help="larger step size")


def _count_flags(p: argparse.ArgumentParser) -> None:
    _graph_flags(p)
    p.add_argument("--length", type=int, required=True, help="orbit length (number of bonds)")
    p.add_argument("--bcount", type=int, default=None, help="restrict to this b-count")
    p.add_argument("--method", choices=["reduced", "unreduced"], default="reduced")
    p.add_argument("--show-skipped", action="store_true",
                   help="also list in-range winding numbers with no integer b-count "
                        "(ignored with --bcount)")
    p.add_argument("--format", choices=["json", "plain"], default="json")


def _lattice_flags(p: argparse.ArgumentParser) -> None:
    _graph_flags(p)
    p.add_argument("--lmax", type=int, required=True, help="largest length to list")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _lyndon_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["count", "list"])
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--bcount", type=int, required=True)
    p.add_argument("--steps", default=None,
                   help="n,a,b graph context for list (count ignores it): words in step "
                        "notation (a leading '-' needs --steps=-9,1,4)")


def _enumerate_flags(p: argparse.ArgumentParser) -> None:
    _graph_flags(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--bcount", type=int, default=None)
    p.add_argument("--primitive-only", action="store_true")


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)


def _dot_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", required=True,
                   help="comma-separated step sizes, e.g. 1,4 (a leading '-' needs --steps=-1,2)")


# (name, help, function adding the flags, handler), in help order.
_COMMANDS = (
    ("count", "count primitive periodic orbits of a given length", _count_flags, _cmd_count),
    ("lattice", "solution-lattice basis and admissible (l,k,omega) classes", _lattice_flags,
     _cmd_lattice),
    ("lyndon", "count or list Lyndon words of fixed length and b-count", _lyndon_flags,
     _cmd_lyndon),
    ("enumerate", "brute-force orbit enumeration (JSON lines)", _enumerate_flags,
     _cmd_enumerate),
    ("verify", "sweep formulas against enumeration; exit 1 on mismatch", _verify_flags,
     _cmd_verify),
    ("graph", "emit a circulant digraph as Graphviz DOT", _dot_flags, _cmd_graph),
)


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser, with all six subcommands. `main` builds it only for
    an argv that a single subcommand's parser does not parse whole."""
    parser = argparse.ArgumentParser(
        prog="circorbits",
        description="Exact primitive periodic orbit counts on two-step circulant digraphs. Work is "
                    f"bounded by CIRCORBITS_BUDGET (default 2^{DEFAULT_BUDGET.bit_length() - 1}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, add_flags, func in _COMMANDS:
        add_flags(p := sub.add_parser(name, help=help_))
        p.set_defaults(func=func)
    return parser


# argparse makes a formatter in every add_argument only to check the metavar.
# The stock class asks for the terminal size there, and its first call imports
# shutil; given a width, it asks for nothing.
_CHECK_FORMATTER = functools.partial(argparse.HelpFormatter, width=80)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace `main` runs: from `argv[0]`'s subcommand parser alone when it
    parses all of `argv[1:]`, else from the full parser (help or a usage error).

    The subcommand parser is built with the check-only `_CHECK_FORMATTER` and
    parses with the stock `HelpFormatter`, which formats its help and usage
    errors at the terminal width, as the full parser's."""
    for name, _, add_flags, func in _COMMANDS:
        if argv and argv[0] == name:
            parser = argparse.ArgumentParser(prog=f"circorbits {name}",
                                             formatter_class=_CHECK_FORMATTER)
            add_flags(parser)
            parser.set_defaults(command=name, func=func)
            parser.formatter_class = argparse.HelpFormatter
            args, rest = parser.parse_known_args(argv[1:])
            if not rest:
                return args
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    # Counts are printed in full, however many digits they have: lift
    # CPython's int/str digit limit while the command runs, and restore
    # the caller's value afterwards.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args, sys.stdout.write)
    except (CircorbitsError, ValueError) as exc:
        prefix = "invariant violated: " if isinstance(exc, InvariantViolated) else ""
        sys.stderr.write(f"error: {prefix}{exc}\n")
        return getattr(exc, "exit_code", 2)
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head -1`). Exit as a process
        # killed by SIGPIPE would, and point stdout at os.devnull so the
        # flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)
