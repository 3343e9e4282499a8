"""What a one-shot call imports: the package's lazy exports, and the
circorbits modules each command loads in a fresh interpreter."""

import importlib
import subprocess

import pytest

import circorbits
from circorbits.cli import main

from conftest import run_python

# What `import circorbits.cli` loads; enumerate and verify add the oracle.
_COMMON = ["circorbits", "circorbits.cli", "circorbits.counting", "circorbits.errors",
           "circorbits.graph", "circorbits.lattice", "circorbits.numtheory", "circorbits.words"]
_ORACLE = sorted([*_COMMON, "circorbits.oracle"])


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new `python -S` interpreter (conftest.run_python); it must exit 0."""
    proc = run_python("-c", code, *args)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def test_every_export_is_its_submodule_attribute():
    assert set(circorbits._EXPORTS) == set(circorbits.__all__)
    for name, module in circorbits._EXPORTS.items():
        value = getattr(importlib.import_module(f"circorbits.{module}"), name)
        assert getattr(circorbits, name) is value, name
        assert value.__module__ == f"circorbits.{module}", name  # where it is defined


def test_star_import_and_dir_follow_all():
    namespace = {}
    exec("from circorbits import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(circorbits.__all__)
    assert set(circorbits.__all__) <= set(dir(circorbits))


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError) as exc:
        circorbits.no_such_name
    assert str(exc.value) == "module 'circorbits' has no attribute 'no_such_name'"
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from circorbits import no_such_name", {})


def test_importing_the_package_loads_no_submodule():
    listed = "print(sorted(m for m in sys.modules if m.startswith('circorbits.')))"
    proc = fresh(f"import sys, circorbits; {listed}; from circorbits import cli; {listed}")
    assert proc.stdout.decode().splitlines() == ["[]", repr(_COMMON[1:])]


# The circorbits modules loaded after one cli.main call in a fresh
# interpreter, and the processes it forks. Only enumerate and verify load the
# brute-force oracle. The interpreter reports three usable CPUs, so verify's
# sweep, past oracle._FORK_MIN_WORK, forks two workers.
LOADS = [
    ("count --n 21 --a 4 --b 10 --length 15", _COMMON, 0),
    ("lattice --n 21 --a 4 --b 10 --lmax 15", _COMMON, 0),
    ("lyndon count --length 360 --bcount 240", _COMMON, 0),
    ("lyndon list --length 9 --bcount 3 --steps 9,1,4", _COMMON, 0),
    ("graph --n 5 --steps 1,4", _COMMON, 0),
    ("enumerate --n 9 --a 1 --b 4 --length 9", _ORACLE, 0),
    ("verify --nmax 8 --lmax 8", _ORACLE, 2),
]

_CALL = """\
import os, sys
forked = []
fork = os.fork
def counting_fork():
    pid = fork()
    if pid:
        forked.append(pid)
    return pid
os.fork, os.sched_getaffinity = counting_fork, lambda pid: {0, 1, 2}
from circorbits.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(code, len(forked), *sorted(m for m in sys.modules if m.partition(".")[0] == "circorbits"),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv, modules, forks", LOADS, ids=[row[0] for row in LOADS])
def test_each_command_loads_the_modules_of_its_row(capsys, shares, argv, modules, forks):
    proc = fresh(_CALL, *argv.split())
    code, forked, *loaded = proc.stderr.decode().split()
    assert (code, int(forked), loaded) == ("0", forks, modules)
    shares.force(1)  # in this process, the sweep runs unforked
    assert main(argv.split()) == 0
    assert proc.stdout.decode() == capsys.readouterr().out


# Whether a call in a fresh interpreter loads shutil, which argparse imports
# only to ask for the terminal size. A call that prints no help and no usage
# error never asks; an empty argv only imports the CLI. The answer is the
# last line of stderr, after any usage error.
_SHUTIL = """\
import sys
from circorbits.cli import main
if sys.argv[1:]:
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print("shutil" in sys.modules, file=sys.stderr)
"""
SHUTIL = [
    ("", False),
    ("count --n 21 --a 4 --b 10 --length 15", False),
    ("lattice --n 21 --a 4 --b 10 --lmax 15", False),
    ("lyndon count --length 360 --bcount 240", False),
    ("count -h", True),
    ("count --n x", True),
]


@pytest.mark.parametrize("argv, loaded", SHUTIL, ids=[row[0] or "import" for row in SHUTIL])
def test_only_help_and_usage_errors_load_shutil(argv, loaded):
    assert fresh(_SHUTIL, *argv.split()).stderr.decode().splitlines()[-1] == str(loaded)
