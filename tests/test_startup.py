"""Start-up contract: importing the package loads no layer, each command
loads only the layers it runs, no catalog command loads numpy, with a
cached catalog or without, and numpy is loaded only to build a perm:
closure, one group of order above TABLE_BUDGET, or the groups of a scan
(`thm4`, `lemma5`, `lemma6`) above HARD_CAP.  No command loads
`dataclasses` or `traceback`, one that loads no numpy loads no `inspect`
either, `psi`, `catalog` and `spectrum` load no `fractions` or `typing`,
and only the catalog commands and those that load numpy load `pathlib`.
A command that builds only numpy laws, of groups above TABLE_BUDGET or of a
scan's groups above HARD_CAP, loads no `tables`.

Each case runs in a fresh interpreter and reports the `ordersum` modules,
numpy and the WATCHED standard modules that it left in `sys.modules` beyond
those the interpreter's start-up loaded, so a module-level import added
anywhere on a command's path shows up here.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordersum
from ordersum.enumeration import catalog

SRC = str(Path(ordersum.__file__).resolve().parents[1])
LAYERS = {"ordersum.arith", "ordersum.tables", "ordersum.groups", "ordersum.enumeration",
          "ordersum.theorems", "ordersum.cli"}

# Standard modules that no command, or not every command, needs: each is run
# at import, and `dataclasses` brings `inspect`, `ast` and `dis`.  numpy
# imports `inspect` itself.  Where `site` imports `typing` or `pathlib` at
# start-up, as some installations do, no command can load it and its check
# passes vacuously; test_commands_without_site checks them without `site`.
WATCHED = {"dataclasses", "traceback", "inspect", "fractions", "typing", "pathlib"}

# The public names of `ordersum`, each under the module it resolves to.
PUBLIC = {
    "arith": ["Factorization", "divisors", "euler_phi", "f_ratio", "factorize", "is_prime",
              "least_prime_factor", "multiplicative_order", "psi_cyclic", "psi_cyclic_oracle",
              "psi_cyclic_prime_power", "semidirect_actions"],
    "groups": ["Abelian", "Cyclic", "Dihedral", "DirectProduct", "FromPermutations",
               "FromTable", "GeneralizedQuaternion", "Group", "GroupSpecError", "Modular",
               "SemidirectCyclic", "TableError", "build_group", "format_spec",
               "kernel_of_action", "parse_spec"],
    "enumeration": ["CatalogClass", "EnumerationBoundError", "SpectrumEntry",
                    "canonical_form", "catalog", "psi_spectrum"],
    "theorems": ["VerificationReport", "lemma5_check", "lemma6_check", "lemma7_check",
                 "mqr_formula_check", "proof_inequality_audit", "thm4_family_check",
                 "verify_equality_classification", "verify_max_cyclic",
                 "verify_upper_bound"],
}


def loaded_after(code: str, *flags: str) -> set[str]:
    """The numpy, ordersum and WATCHED modules that running `code` in a fresh
    interpreter, started with `flags`, loads."""
    probe = "import sys\n_before = set(sys.modules)\n" + code + (
        f"\nimport json\nwatched = {sorted(WATCHED | {'numpy'})!r}\n"
        "print(json.dumps([m for m in set(sys.modules) - _before\n"
        "                  if m in watched or m.startswith('ordersum')]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, *flags, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def loaded_by_command(argv: list[str], exit_code: int = 0, *flags: str) -> set[str]:
    code = ("import contextlib, io\n"
            "from ordersum import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == {exit_code}\n")
    return loaded_after(code, *flags)


def test_import_ordersum_loads_no_module():
    assert loaded_after("import ordersum") == {"ordersum"}


def test_import_cli_loads_no_layer():
    assert loaded_after("import ordersum.cli") == {"ordersum", "ordersum.cli"}


@pytest.mark.parametrize("layer,below", [("theorems", {"fractions"}),
                                         ("enumeration", {"ordersum.tables"})],
                         ids=["theorems", "enumeration"])
def test_import_layer_loads_no_groups(layer, below):
    assert loaded_after(f"import ordersum.{layer}") == {
        "ordersum", "ordersum.arith", f"ordersum.{layer}"} | below


# Command -> (argv, modules it must not load).  One generated group of order
# up to TABLE_BUDGET is built by the list rules of `tables`, without numpy:
# as rows up to HARD_CAP, and as a list law above.
# Only the catalog layer needs `pathlib`; what numpy imports is its own.
COMMANDS = {
    "audit": (["audit", "--qmax", "5", "--pmax", "11", "--smax", "2"],
              {"numpy", "pathlib", "typing", "ordersum.groups", "ordersum.enumeration"}),
    "psi": (["psi", "Q8"], {"numpy", "fractions", "typing", "pathlib", "ordersum.enumeration",
                            "ordersum.theorems"}),
    "catalog": (["catalog", "6"],
                {"numpy", "fractions", "typing", "ordersum.groups", "ordersum.theorems"}),
    "spectrum": (["spectrum", "6"],
                 {"numpy", "fractions", "typing", "ordersum.groups", "ordersum.theorems"}),
    "lemma5": (["verify", "lemma5", "--mkmax", "20"], {"ordersum.enumeration"}),
    "lemma6": (["verify", "lemma6", "--mkmax", "20"], {"ordersum.enumeration"}),
    "thm4": (["verify", "thm4", "--q", "2", "--kmax", "4"],
             {"numpy", "pathlib", "ordersum.enumeration"}),
    "mqr": (["verify", "mqr", "--q", "3", "--r", "3"],
            {"numpy", "pathlib", "ordersum.enumeration"}),
    "upper_bound": (["verify", "upper_bound", "--spec", "Q8", "--q", "2"],
                    {"numpy", "pathlib", "ordersum.enumeration"}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_layers(command):
    argv, absent = COMMANDS[command]
    loaded = loaded_by_command(argv)
    assert "ordersum.cli" in loaded
    assert not loaded & (absent | {"dataclasses", "traceback"})
    assert "inspect" not in loaded or "numpy" in loaded


@pytest.mark.parametrize("argv", [["verify", "thm4", "--q", "2"], ["verify", "mqr", "--q", "2"]],
                         ids=lambda argv: argv[1])
def test_usage_error_loads_no_groups(argv):
    # A claim's missing arguments are reported before any layer is imported.
    assert loaded_by_command(argv, exit_code=2) == {"ordersum", "ordersum.cli"}


def test_cold_catalog_claim_loads_no_groups():
    # With no cache the classes are named by the families' pure-Python tables.
    loaded = loaded_by_command(["verify", "max_cyclic", "--n", "6"])
    assert loaded == LAYERS - {"ordersum.groups"} | {"ordersum", "fractions"}


@pytest.mark.parametrize("argv", [["catalog", "6"], ["spectrum", "6"],
                                  ["verify", "max_cyclic", "--n", "6"],
                                  ["verify", "equality", "--nmax", "6"],
                                  ["verify", "lemma7", "--nmax", "6"]])
def test_warm_catalog_reads_load_no_groups(argv, tmp_path):
    # A cached catalog is checked and walked on its tables in pure Python; the
    # equality witness and the lemma7 candidates are pure-Python tables too.
    for n in range(2, 7):
        catalog(n, cache_dir=tmp_path)
    loaded = loaded_by_command(["--cache-dir", str(tmp_path), *argv])
    assert "ordersum.enumeration" in loaded
    assert not loaded & {"numpy", "ordersum.groups"}


@pytest.mark.parametrize("argv,loads_numpy", [
    pytest.param(["psi", "Q8"], False, id="psi Q8"),
    pytest.param(["psi", "C2"], False, id="psi C2"),
    pytest.param(["psi", "C17"], False, id="psi C17"),
    pytest.param(["psi", "C2048"], False, id="psi C2048"),
    pytest.param(["psi", "Q2048"], False, id="psi Q2048"),
    pytest.param(["psi", "A[4,8,64]"], False, id="psi A[4,8,64]"),
    pytest.param(["psi", "C4096"], True, id="psi C4096"),
    pytest.param(["verify", "upper_bound", "--spec", "Q8", "--q", "2"], False,
                 id="verify upper_bound"),
    pytest.param(["verify", "upper_bound", "--spec", "D2048", "--q", "2"], False,
                 id="verify upper_bound D2048"),
    pytest.param(["verify", "equality", "--n", "12", "--family-only"], False,
                 id="verify equality"),
    pytest.param(["verify", "thm4", "--q", "2", "--kmax", "4"], False, id="verify thm4"),
    pytest.param(["verify", "thm4", "--q", "5", "--kmax", "2"], True, id="verify thm4 q5"),
    pytest.param(["verify", "mqr", "--q", "3", "--r", "3"], False, id="verify mqr"),
    pytest.param(["verify", "lemma5", "--mkmax", "20"], True, id="verify lemma5"),
    pytest.param(["verify", "lemma6", "--mkmax", "20"], True, id="verify lemma6"),
])
def test_law_walks_load_groups(argv, loads_numpy):
    # Every group is built by `groups`.  One group of order HARD_CAP + 1 (C17)
    # to TABLE_BUDGET is walked on Python lists; numpy is loaded for one
    # above TABLE_BUDGET, and for a scan's groups above HARD_CAP.
    loaded = loaded_by_command(argv)
    assert "ordersum.groups" in loaded
    assert ("numpy" in loaded) == loads_numpy


def test_perm_file_loads_numpy(tmp_path):
    # A perm: closure is a numpy table, whatever its order.
    path = tmp_path / "s3.json"
    path.write_text("[[1, 0, 2], [1, 2, 0]]")
    assert "numpy" in loaded_by_command(["psi", f"perm:{path}"])


@pytest.mark.parametrize("argv", [["verify", "thm4", "--q", "5", "--kmax", "2"],
                                  ["psi", "C4096"]],
                         ids=lambda argv: " ".join(argv[:2]))
def test_law_only_commands_load_no_tables(argv):
    # Every group these build is a numpy law, a scan's group above HARD_CAP
    # or one group above TABLE_BUDGET, and its order, checked from the spec
    # before anything is built, chooses that law: no rows or list law.
    assert "ordersum.tables" not in loaded_by_command(argv)


@pytest.mark.parametrize("argv", [
    pytest.param(["audit", "--qmax", "5", "--pmax", "11", "--smax", "2"], id="audit"),
    pytest.param(["psi", "C2048"], id="psi C2048"),
    pytest.param(["verify", "mqr", "--q", "3", "--r", "3"], id="verify mqr"),
])
def test_commands_without_site(argv):
    # Without `site`, which may import typing and pathlib itself, and without
    # its site-packages, so with no numpy to load: these still run, and load
    # neither module.
    loaded = loaded_by_command(argv, 0, "-S")
    assert "ordersum.cli" in loaded
    assert not loaded & {"numpy", "typing", "pathlib"}


def test_list_law_peak_memory():
    # A fresh `psi C2048` process walks its law on Python lists and loads no
    # numpy: it peaked at 31.2 MB with numpy's law, and at about 18 MB without.
    # The peak is read from VmHWM, which starts afresh at exec; ru_maxrss
    # would carry over the RSS of this forking test process.
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("no /proc/self/status to read the peak RSS from")
    code = ("import contextlib, io\n"
            "from ordersum import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['psi', 'C2048']) == 0\n"
            f"print(next(line.split()[1] for line in open({str(status)!r})\n"
            "           if line.startswith('VmHWM:')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) <= 24 * 1024  # VmHWM is in kB


def test_table_file_loads_no_numpy(tmp_path):
    # A table: file is checked and walked as Python rows, whatever its order.
    path = tmp_path / "c17.json"
    path.write_text(json.dumps([[(i + j) % 17 for j in range(17)] for i in range(17)]))
    loaded = loaded_by_command(["psi", f"table:{path}"])
    assert "ordersum.groups" in loaded
    assert not loaded & {"numpy", "ordersum.enumeration", "ordersum.theorems"}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve(module):
    home = importlib.import_module(f"ordersum.{module}")
    for name in PUBLIC[module]:
        assert name in dir(ordersum), name
        assert getattr(ordersum, name) is getattr(home, name), name


def test_public_names_are_the_exports():
    # An export cannot be added or vanish without PUBLIC listing it.
    assert set().union(*PUBLIC.values()) == set(ordersum.__all__)


def test_from_import_and_unknown_name():
    from ordersum import DEFAULT_BOUND, HARD_CAP, build_group, psi_spectrum  # noqa: F401
    from ordersum.enumeration import DEFAULT_BOUND as bound, HARD_CAP as cap

    assert (bound, cap) == (DEFAULT_BOUND, HARD_CAP)
    with pytest.raises(AttributeError, match="no_such_name"):
        ordersum.no_such_name
