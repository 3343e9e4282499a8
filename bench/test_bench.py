"""Self-tests of the benchmark harness.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GENERATE = (
    "import json, sys, reference, workloads; "
    "print(json.dumps({w: [workloads.argv(s) for s in workloads.generate(w, 7)] "
    "for w in workloads.WORKLOADS})); "
    "print('circorbits' in sys.modules)"
)


def test_generator_is_deterministic_and_checker_is_independent_of_the_package():
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(BENCH))
        proc = subprocess.run([sys.executable, "-c", GENERATE], env=env, cwd=BENCH,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    argvs, imported = outs[0].splitlines()
    assert imported == "False"
    for workload, lists in json.loads(argvs).items():
        assert len(lists) >= run.MIN_REQUESTS
        assert lists != [workloads.argv(s) for s in workloads.generate(workload, 8)]


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


SPECS = [
    {"cmd": "count", "n": 21, "a": 4, "b": 10, "length": 15, "method": "reduced"},
    {"cmd": "count", "n": 440, "a": 5, "b": 14, "length": 360, "method": "unreduced"},
    {"cmd": "lattice", "n": 21, "a": 4, "b": 10, "lmax": 15},
    {"cmd": "lyndon-count", "length": 360, "bcount": 240},
    {"cmd": "lyndon-list", "length": 9, "bcount": 3},
    {"cmd": "enumerate", "n": 9, "a": 1, "b": 4, "length": 9},
    {"cmd": "enumerate", "n": 11, "a": 2, "b": 10, "length": 10},
    {"cmd": "verify", "nmax": 5, "lmax": 6},
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s["cmd"])
def test_reference_accepts_real_outputs(cli, spec):
    rc, out, _ = run.call(cli, workloads.argv(spec))
    assert rc == 0
    assert reference.check(spec, out) is None


@pytest.mark.parametrize("spec", [s for s in SPECS if s["cmd"] not in ("lyndon-list", "verify")],
                         ids=lambda s: s["cmd"])
def test_corrupted_digit_counts_as_failed(cli, spec):
    rc, out, _ = run.call(cli, workloads.argv(spec))
    digit = max(i for i, c in enumerate(out) if c.isdigit() and c != "0")
    corrupted = out[:digit] + str(int(out[digit]) - 1) + out[digit + 1:]
    result = run.Run([spec], "interpreter")
    result.record(0, rc, corrupted)
    assert (result.attempted, result.failed, result.wrong) == (1, 1, 1)
    result.record(0, rc, corrupted)
    assert (result.attempted, result.failed, result.wrong) == (2, 2, 2)


def test_refusal_is_failed_but_not_wrong(cli):
    spec = {"cmd": "lyndon-count", "length": 20000, "bcount": 10000}
    rc, out, _ = run.call(cli, workloads.argv(spec))
    result = run.Run([spec], "interpreter")
    result.record(0, rc, out)
    assert rc == 2 and reference.refusal_expected(spec)
    assert (result.attempted, result.failed, result.wrong) == (1, 1, 0)


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_error_on_a_count_small_request_is_wrong(cli, monkeypatch, error):
    spec = next(s for s in workloads.generate("count-small", 1) if s["cmd"] == "count")
    assert not reference.refusal_expected(spec)

    def broken(*args, **kwargs):
        raise error("broken")

    monkeypatch.setattr(cli, "count_orbits_lk", broken)
    rc, out, _ = run.call(cli, workloads.argv(spec))
    assert rc == (2 if error is ValueError else -1)
    result = run.Run([spec], "interpreter")
    result.record(0, rc, out)
    assert (result.attempted, result.failed, result.wrong) == (1, 1, 1)


def test_later_pass_that_exits_non_zero_is_wrong(cli):
    spec = SPECS[0]
    rc, out, _ = run.call(cli, workloads.argv(spec))
    result = run.Run([spec], "interpreter")
    result.record(0, rc, out)
    result.record(0, 2, "")
    assert (result.attempted, result.failed, result.wrong) == (2, 1, 1)


def test_non_lyndon_rotations_are_wrong(cli):
    spec = {"cmd": "lyndon-list", "length": 9, "bcount": 3}
    _, out, _ = run.call(cli, workloads.argv(spec))
    largest = sorted(max(w[s:] + w[:s] for s in range(len(w))) for w in out.split())
    error = reference.check(spec, "\n".join(largest) + "\n")
    assert error and "not a Lyndon word" in error


def _corrupt_orbits(out: str, change) -> str:
    """Apply change to each orbit line's dict; keep the lines in sorted order."""
    *lines, summary = out.splitlines()
    orbits = [change(json.loads(line)) for line in lines]
    orbits.sort(key=lambda o: (o["k"], o["start"], o["steps"]))
    return "\n".join([json.dumps(o) for o in orbits] + [summary]) + "\n"


def test_orbit_not_in_least_presentation_is_wrong(cli):
    spec = {"cmd": "enumerate", "n": 9, "a": 1, "b": 4, "length": 9}
    _, out, _ = run.call(cli, workloads.argv(spec))

    def rotate(o):
        steps = o["steps"]
        return dict(o, start=(o["start"] + int(steps[0])) % 9, steps=steps[1:] + steps[0])

    error = reference.check(spec, _corrupt_orbits(out, rotate))
    assert error and "least presentation" in error


def test_orbit_that_does_not_close_is_wrong(cli):
    spec = {"cmd": "enumerate", "n": 9, "a": 1, "b": 4, "length": 9}
    _, out, _ = run.call(cli, workloads.argv(spec))

    def flip(o):
        steps = o["steps"]
        i = steps.find("1")
        if i < 0:
            return o
        return dict(o, steps=steps[:i] + "4" + steps[i + 1:], k=o["k"] + 1)

    error = reference.check(spec, _corrupt_orbits(out, flip))
    assert error and "does not close" in error


def _bindings() -> dict:
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "circorbits" or name.startswith("circorbits.")}


def test_traced_mode_restores_module_attributes(cli):
    before = _bindings()
    trace = tracer.Tracer()
    with trace:
        assert cli.main is not before["circorbits.cli"]["main"]
        for spec in SPECS:
            run.call(cli, workloads.argv(spec))
    after = _bindings()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr}"
    metrics = {key: value for key, (value, _) in tracer.layer_metrics(*trace.take()).items()}
    for target in tracer.TARGETS:
        assert metrics[f"{target}.calls"] > 0, target
        assert metrics[f"{target}.self_s"] >= 0, target
    assert 0 < metrics["words.list_lyndon.yield"] < 1
    assert 0 < metrics["oracle.enumerate_orbits.yield"] <= 1
