"""Start-up contract: importing the package loads no layer, each command
loads only the layers it runs, no catalog command loads numpy, with a
cached catalog or without, and numpy is loaded only to build a group of
order above HARD_CAP or a perm: closure.  No command loads `dataclasses` or
`traceback`, one that loads no numpy loads no `inspect` either, and `psi`,
`catalog` and `spectrum` load no `fractions` or `typing`.  A command that
builds only groups of order above HARD_CAP loads no `tables`.

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
# imports `inspect` itself.  Where `site` imports `typing` at start-up, as
# some installations do, no command can load it and its check passes vacuously.
WATCHED = {"dataclasses", "traceback", "inspect", "fractions", "typing"}

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


def loaded_after(code: str) -> set[str]:
    """The numpy, ordersum and WATCHED modules that running `code` in a fresh
    interpreter loads."""
    probe = "import sys\n_before = set(sys.modules)\n" + code + (
        f"\nimport json\nwatched = {sorted(WATCHED | {'numpy'})!r}\n"
        "print(json.dumps([m for m in set(sys.modules) - _before\n"
        "                  if m in watched or m.startswith('ordersum')]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def loaded_by_command(argv: list[str], exit_code: int = 0) -> set[str]:
    code = ("import contextlib, io\n"
            "from ordersum import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == {exit_code}\n")
    return loaded_after(code)


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


# Command -> (argv, modules it must not load).  A group of order up to
# HARD_CAP is built as rows by the family rules of `tables`, without numpy.
COMMANDS = {
    "audit": (["audit", "--qmax", "5", "--pmax", "11", "--smax", "2"],
              {"numpy", "ordersum.groups", "ordersum.enumeration"}),
    "psi": (["psi", "Q8"],
            {"numpy", "fractions", "typing", "ordersum.enumeration", "ordersum.theorems"}),
    "catalog": (["catalog", "6"],
                {"numpy", "fractions", "typing", "ordersum.groups", "ordersum.theorems"}),
    "spectrum": (["spectrum", "6"],
                 {"numpy", "fractions", "typing", "ordersum.groups", "ordersum.theorems"}),
    "lemma5": (["verify", "lemma5", "--mkmax", "20"], {"ordersum.enumeration"}),
    "lemma6": (["verify", "lemma6", "--mkmax", "20"], {"ordersum.enumeration"}),
    "thm4": (["verify", "thm4", "--q", "2", "--kmax", "4"], {"numpy", "ordersum.enumeration"}),
    "mqr": (["verify", "mqr", "--q", "3", "--r", "3"], {"ordersum.enumeration"}),
    "upper_bound": (["verify", "upper_bound", "--spec", "Q8", "--q", "2"],
                    {"numpy", "ordersum.enumeration"}),
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


@pytest.mark.parametrize("argv,walks_law", [
    pytest.param(["psi", "Q8"], False, id="psi Q8"),
    pytest.param(["psi", "C2"], False, id="psi C2"),
    pytest.param(["psi", "C17"], True, id="psi C17"),
    pytest.param(["psi", "C2048"], True, id="psi C2048"),
    pytest.param(["verify", "upper_bound", "--spec", "Q8", "--q", "2"], False,
                 id="verify upper_bound"),
    pytest.param(["verify", "equality", "--n", "12", "--family-only"], False,
                 id="verify equality"),
    pytest.param(["verify", "thm4", "--q", "2", "--kmax", "4"], False, id="verify thm4"),
    pytest.param(["verify", "mqr", "--q", "3", "--r", "3"], True, id="verify mqr"),
    pytest.param(["verify", "lemma5", "--mkmax", "20"], True, id="verify lemma5"),
    pytest.param(["verify", "lemma6", "--mkmax", "20"], True, id="verify lemma6"),
])
def test_law_walks_load_groups(argv, walks_law):
    # Every group is built by `groups`; numpy is loaded only where one of
    # order above HARD_CAP (C17 is the first) is built as a law.
    loaded = loaded_by_command(argv)
    assert "ordersum.groups" in loaded
    assert ("numpy" in loaded) == walks_law


@pytest.mark.parametrize("argv", [["psi", "A[4,8,64]"],
                                  ["verify", "thm4", "--q", "5", "--kmax", "2"],
                                  ["verify", "mqr", "--q", "3", "--r", "3"]],
                         ids=lambda argv: " ".join(argv[:2]))
def test_law_only_commands_load_no_tables(argv):
    # Every group these build is above HARD_CAP, and its order, checked from
    # the spec before anything is built, chooses the law: no rows are built.
    loaded = loaded_by_command(argv)
    assert "numpy" in loaded and "ordersum.tables" not in loaded


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
