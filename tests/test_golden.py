"""Golden gate: CLI output, exit codes, cache files and demo output stay byte-identical.

`tests/golden/cases.json` lists each recorded command with its exit code;
`tests/golden/out/<name>.txt` holds its standard output, and
`tests/golden/catalog/` the cache files the commands wrote.  Every command
runs with `tests/golden/inputs` as the working directory, so the `table:`
and `perm:` specs (and the spec echoed in the output) are relative paths.
`tests/golden/demos/<script>.txt` holds the standard output of each
`demos/*.py` script, run in a fresh interpreter.

Re-record only after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ordersum import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
CACHED_ORDERS = range(2, 17)
CACHE = "{cache}"  # replaced by a fresh cache directory on every run

COMMANDS = {
    "psi_Q8": ["psi", "Q8"],
    "psi_C12": ["psi", "C12"],
    "psi_SD5_4_2": ["psi", "SD(5,4,2)"],
    "psi_C2xC2xC3": ["psi", "C2xC2xC3"],
    "psi_table": ["psi", "table:c6.json"],
    "psi_perm": ["psi", "perm:a4.json"],
    "psi_malformed": ["psi", "Z99"],
    "spectrum_8": ["spectrum", "8", "--cache-dir", CACHE],
    "spectrum_12": ["spectrum", "12", "--cache-dir", CACHE],
    "catalog_8": ["catalog", "8", "--cache-dir", CACHE],
    "catalog_12": ["catalog", "12", "--cache-dir", CACHE],
    "catalog_over_bound": ["catalog", "14"],
    "verify_max_cyclic": ["verify", "max_cyclic", "--nmax", "12", "--cache-dir", CACHE],
    "verify_max_cyclic_16": [
        "verify", "max_cyclic", "--nmax", "16", "--enum-bound", "16", "--acknowledge-slow",
        "--cache-dir", CACHE,
    ],
    "verify_upper_bound_Q8": ["verify", "upper_bound", "--spec", "Q8", "--q", "2"],
    "verify_upper_bound_eq": ["verify", "upper_bound", "--spec", "C2xC2xC3", "--q", "2"],
    "verify_upper_bound_nospec": ["verify", "upper_bound", "--q", "2"],
    "verify_equality": ["verify", "equality", "--nmax", "12", "--cache-dir", CACHE],
    "verify_equality_family": ["verify", "equality", "--n", "100", "--family-only"],
    "verify_thm4_q2": ["verify", "thm4", "--q", "2", "--kmax", "12"],
    "verify_thm4_q3": ["verify", "thm4", "--q", "3", "--kmax", "10"],
    "verify_mqr": ["verify", "mqr"],
    "verify_mqr_3_3": ["verify", "mqr", "--q", "3", "--r", "3"],
    "verify_lemma5": ["verify", "lemma5", "--mkmax", "40"],
    "verify_lemma6": ["verify", "lemma6", "--mkmax", "40"],
    "verify_lemma5_200": ["verify", "lemma5", "--mkmax", "200"],
    "verify_lemma6_200": ["verify", "lemma6", "--mkmax", "200"],
    "verify_thm4_q5_60": ["verify", "thm4", "--q", "5", "--kmax", "60"],
    "psi_C2048": ["psi", "C2048"],
    "psi_Q2048": ["psi", "Q2048"],
    "psi_D2048": ["psi", "D2048"],
    "psi_M2_11": ["psi", "M(2,11)"],
    "psi_C2xQ1024": ["psi", "C2xQ1024"],
    "psi_A4_8_64": ["psi", "A[4,8,64]"],
    "verify_lemma7": ["verify", "lemma7", "--nmax", "12", "--cache-dir", CACHE],
    "audit": ["audit"],
    "audit_small": ["audit", "--qmax", "5", "--pmax", "11", "--smax", "2"],
}
FORMATS = ("table", "json", "csv")


def run_all() -> tuple[dict, dict, dict]:
    """(exit codes, stdouts, cache files) of every command in every format."""
    codes, outs, caches = {}, {}, {}
    cache = tempfile.mkdtemp(prefix="ordersum-golden-")
    cwd = os.getcwd()
    os.chdir(GOLDEN / "inputs")
    try:
        for name, argv in COMMANDS.items():
            for fmt in FORMATS:
                args = [cache if a == CACHE else a for a in argv] + ["--format", fmt]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = cli.main(args)
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
                codes[f"{name}.{fmt}"] = code
                outs[f"{name}.{fmt}"] = out.getvalue()
        for n in CACHED_ORDERS:
            caches[n] = (Path(cache) / "catalog" / f"n={n}.json").read_bytes()
    finally:
        os.chdir(cwd)
        shutil.rmtree(cache, ignore_errors=True)
    return codes, outs, caches


def run_demo(script: Path) -> str:
    """Standard output of one demo script, run in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(script)], env=env, check=True,
                          capture_output=True, text=True).stdout


def record() -> None:
    codes, outs, caches = run_all()
    shutil.rmtree(GOLDEN / "demos", ignore_errors=True)
    (GOLDEN / "demos").mkdir()
    for script in DEMOS:
        (GOLDEN / "demos" / f"{script.stem}.txt").write_bytes(run_demo(script).encode())
    shutil.rmtree(GOLDEN / "out", ignore_errors=True)
    shutil.rmtree(GOLDEN / "catalog", ignore_errors=True)
    (GOLDEN / "out").mkdir()
    (GOLDEN / "catalog").mkdir()
    for key, text in outs.items():
        (GOLDEN / "out" / f"{key}.txt").write_bytes(text.encode())
    for n, data in caches.items():
        (GOLDEN / "catalog" / f"n={n}.json").write_bytes(data)
    (GOLDEN / "cases.json").write_text(json.dumps(codes, indent=1) + "\n")


@pytest.mark.filterwarnings("ignore:enumerating order:RuntimeWarning")
def test_golden_outputs_byte_identical():
    codes, outs, caches = run_all()
    assert codes == json.loads((GOLDEN / "cases.json").read_text())
    for key, text in outs.items():
        assert text.encode() == (GOLDEN / "out" / f"{key}.txt").read_bytes(), key
    for n, data in caches.items():
        assert data == (GOLDEN / "catalog" / f"n={n}.json").read_bytes(), n


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_output_byte_identical(script):
    assert run_demo(script).encode() == (GOLDEN / "demos" / f"{script.stem}.txt").read_bytes()


if __name__ == "__main__":
    sys.exit(record())
