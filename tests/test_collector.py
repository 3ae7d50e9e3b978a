"""The CLI process runs without the cyclic collector.

`cli.entry`, the `ordersum` console script and `python -m ordersum.cli`,
turns the collector off, runs `main()` and freezes every object alive at
its end, so no collection walks the heap, at an import or as the
interpreter finalizes.  Memory then stays bounded only while the hot paths
make no reference cycle, which the first test pins.  `main(argv)` run
in-process, as by the tests and the benchmark's traced run, leaves the
caller's collector as it found it, and the entry changes no exit code,
stdout or error line of main's.
"""

import contextlib
import gc
import importlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ordersum
from ordersum import cli, pool, theorems
from ordersum.enumeration import _search_groups, canonical_form, catalog
from ordersum.groups import SemidirectCyclic, build_groups

SRC = str(Path(ordersum.__file__).resolve().parents[1])
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GOLDEN_CATALOG = Path(__file__).resolve().parent / "golden" / "catalog"


@contextlib.contextmanager
def collector(enabled: bool):
    """The collector on or off, as it was afterwards."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


def test_hot_paths_make_no_cycle(monkeypatch, tmp_path):
    # A search of orders 2-12, a canonical form, the cached catalogs of
    # orders 2-16 loaded and named, and the lemma5 --mkmax 40 scan, all
    # in this process.  The first pass fills the lazy imports and caches.
    monkeypatch.setattr(pool, "_cpus", lambda: 1)
    shutil.copytree(GOLDEN_CATALOG, tmp_path / "catalog")
    specs = [SemidirectCyclic(*p) for p in theorems._sylow_semidirect_parameters(40)]

    def work():
        for n in range(2, 13):
            _search_groups(n)
        canonical_form([[(i + j) % 12 for j in range(12)] for i in range(12)])
        for n in range(2, 17):
            catalog(n, bound=16, cache_dir=tmp_path)
        build_groups(specs)

    work()
    gc.collect()
    with collector(False):
        work()
        assert gc.collect() == 0


def test_cold_catalog_writes_make_no_cycle(monkeypatch, tmp_path):
    # A cold catalog of orders 2-12, each searched, named and written to a
    # cache file, in this process.  The cache bytes need json.dump with
    # indent=1, which runs the standard library's pure-Python encoder: its
    # closures make 33 cycles a file.  json.dumps with no indent runs the C
    # encoder, which makes none, so the writer that replaces json.dump here
    # leaves only the program's own part of the write path to check.
    monkeypatch.setattr(json, "dump", lambda obj, fh, **kwargs: fh.write(json.dumps(obj)))

    def work(cache):
        for n in range(2, 13):
            catalog(n, cache_dir=cache)

    work(tmp_path / "first")
    gc.collect()
    with collector(False):
        work(tmp_path / "second")
        assert gc.collect() == 0


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# The patches that make a claim fail and main crash, each a function whose
# source the fresh process runs too.
def failing_mqr(q, r):
    from ordersum.theorems import VerificationReport

    return VerificationReport(claim_id="mqr", params={"q": q, "r": r}, verdict="fails")


def crashing_dumps(*args, **kwargs):
    raise KeyError("boom")


# argv, and the module attribute patched for the run: one case of each exit.
CASES = {
    "holds": (["psi", "Q8"], None),
    "fails": (["verify", "mqr", "--q", "2", "--r", "4"],
              ("ordersum.theorems", "mqr_formula_check", failing_mqr)),
    "usage": (["psi"], None),
    "crash": (["--format", "json", "psi", "Q8"], ("json", "dumps", crashing_dumps)),
}
EXITS = {"holds": 0, "fails": 1, "usage": 2, "crash": 2}


def apply(monkeypatch, patch) -> None:
    if patch:
        module, name, value = patch
        monkeypatch.setattr(importlib.import_module(module), name, value)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("enabled", [True, False])
def test_main_keeps_the_callers_collector(monkeypatch, case, enabled):
    argv, patch = CASES[case]
    apply(monkeypatch, patch)
    with collector(enabled):
        frozen = gc.get_freeze_count()
        assert outcome(argv)[0] == EXITS[case]
        assert gc.isenabled() is enabled and gc.get_freeze_count() == frozen


def console_entry() -> str:
    """The function that the ordersum console script calls."""
    found = re.findall(r'^ordersum = "ordersum\.cli:(\w+)"$', PYPROJECT.read_text(), re.M)
    assert len(found) == 1
    return found[0]


# How each kind of process starts: run_module is what `python -m` runs, and
# a console script calls its function and exits with what it returns.
LAUNCHES = {
    "python -m": "import runpy\n"
                 "runpy.run_module('ordersum.cli', run_name='__main__', alter_sys=True)\n",
    "script": f"from ordersum.cli import {console_entry()}\n"
              f"sys.exit({console_entry()}())\n",
}


def fresh_outcome(launch: str, argv: list[str], patch) -> tuple[tuple[int, str, str], list]:
    """The exit code, stdout and stderr of a fresh process started as by
    launch, and what it saw of its collector: whether it was on when main
    parsed its arguments, and whether objects were frozen at exit."""
    probe = (
        "import argparse, atexit, gc, importlib, sys\n"
        "def note(*seen):\n"
        "    print('probe:', *seen, file=sys.stderr)\n"
        "parse = argparse.ArgumentParser.parse_args\n"
        "def parse_args(self, *args):\n"
        "    note('enabled', gc.isenabled())\n"
        "    return parse(self, *args)\n"
        "argparse.ArgumentParser.parse_args = parse_args\n"
        "atexit.register(lambda: note('frozen', gc.get_freeze_count() > 0))\n"
    )
    if patch:
        module, name, value = patch
        probe += (inspect.getsource(value) + f"setattr(importlib.import_module({module!r}), "
                  f"{name!r}, {value.__name__})\n")
    probe += f"sys.argv = ['ordersum', *{argv!r}]\n" + LAUNCHES[launch]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    lines = done.stderr.splitlines(keepends=True)
    seen = [line.split()[1:] for line in lines if line.startswith("probe:")]
    err = "".join(line for line in lines if not line.startswith("probe:"))
    return (done.returncode, done.stdout, err), seen


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("launch", LAUNCHES)
def test_process_runs_main_without_the_collector(monkeypatch, case, launch):
    argv, patch = CASES[case]
    ran, seen = fresh_outcome(launch, argv, patch)
    assert seen == [["enabled", "False"], ["frozen", "True"]]
    apply(monkeypatch, patch)
    code, out, err = outcome(argv)
    assert ran[:2] == (code, out) and code == EXITS[case]
    if case == "crash":  # each traceback names where its process defined the patch
        assert out == "" and err.startswith("Traceback") and ran[2].startswith("Traceback")
        assert [errors(text) for text in (ran[2], err)] == [["error: KeyError: 'boom'"]] * 2
    else:
        assert ran[2] == err
    if case == "usage":
        assert err.splitlines()[-1] == (
            "ordersum psi: error: the following arguments are required: spec")


def errors(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("error:")]
