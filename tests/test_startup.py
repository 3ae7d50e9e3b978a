"""Start-up contract: importing the package loads no layer, and each command
loads only the layers it runs.

Each case runs in a fresh interpreter and reports the `ordersum` modules and
numpy left in `sys.modules`, so a module-level import added anywhere on a
command's path shows up here.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordersum

SRC = str(Path(ordersum.__file__).resolve().parents[1])
LAYERS = {"ordersum.arith", "ordersum.groups", "ordersum.enumeration", "ordersum.theorems",
          "ordersum.cli"}

# The public names `ordersum` imported eagerly from its modules before it
# resolved them on first use.
PUBLIC = {
    "arith": ["Factorization", "cyclic_lower_bound", "divisors", "euler_phi", "f_ratio",
              "factorize", "is_prime", "least_prime_factor", "multiplicative_order",
              "psi_cyclic", "psi_cyclic_oracle", "psi_cyclic_prime_power"],
    "groups": ["Abelian", "Cyclic", "Dihedral", "DirectProduct", "FromPermutations",
               "FromTable", "GeneralizedQuaternion", "Group", "GroupSpecError", "Modular",
               "SemidirectCyclic", "TableError", "build_group", "format_spec",
               "kernel_of_action", "parse_spec", "semidirect_actions"],
    "enumeration": ["CatalogClass", "EnumerationBoundError", "SpectrumEntry",
                    "canonical_form", "catalog", "psi_spectrum"],
    "theorems": ["VerificationReport", "lemma5_check", "lemma6_check", "lemma7_check",
                 "mqr_formula_check", "proof_inequality_audit", "thm4_family_check",
                 "verify_equality_classification", "verify_max_cyclic",
                 "verify_upper_bound"],
}


def loaded_after(code: str) -> set[str]:
    """The numpy and ordersum modules loaded after running `code` in a fresh interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m == 'numpy' or m.startswith('ordersum')]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def loaded_by_command(argv: list[str]) -> set[str]:
    code = ("import contextlib, io\n"
            "from ordersum import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")
    return loaded_after(code)


def test_import_ordersum_loads_no_module():
    assert loaded_after("import ordersum") == {"ordersum"}


def test_import_cli_loads_no_layer():
    assert loaded_after("import ordersum.cli") == {"ordersum", "ordersum.cli"}


@pytest.mark.parametrize("layer", ["theorems", "enumeration"])
def test_import_layer_loads_no_groups(layer):
    assert loaded_after(f"import ordersum.{layer}") == {
        "ordersum", "ordersum.arith", f"ordersum.{layer}"}


# Command -> (argv, modules it must not load).
COMMANDS = {
    "audit": (["audit", "--qmax", "5", "--pmax", "11", "--smax", "2"],
              {"numpy", "ordersum.groups", "ordersum.enumeration"}),
    "psi": (["psi", "Q8"], {"ordersum.enumeration", "ordersum.theorems"}),
    "catalog": (["catalog", "6"], {"ordersum.theorems"}),
    "spectrum": (["spectrum", "6"], {"ordersum.theorems"}),
    "lemma5": (["verify", "lemma5", "--mkmax", "20"], {"ordersum.enumeration"}),
    "lemma6": (["verify", "lemma6", "--mkmax", "20"], {"ordersum.enumeration"}),
    "thm4": (["verify", "thm4", "--q", "2", "--kmax", "4"], {"ordersum.enumeration"}),
    "mqr": (["verify", "mqr", "--q", "3", "--r", "3"], {"ordersum.enumeration"}),
    "upper_bound": (["verify", "upper_bound", "--spec", "Q8", "--q", "2"],
                    {"ordersum.enumeration"}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_layers(command):
    argv, absent = COMMANDS[command]
    loaded = loaded_by_command(argv)
    assert "ordersum.cli" in loaded
    assert not loaded & absent


def test_catalog_claim_loads_every_layer():
    assert loaded_by_command(["verify", "max_cyclic", "--n", "6"]) >= LAYERS | {"numpy"}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve(module):
    home = importlib.import_module(f"ordersum.{module}")
    for name in PUBLIC[module]:
        assert name in dir(ordersum), name
        assert getattr(ordersum, name) is getattr(home, name), name


def test_from_import_and_unknown_name():
    from ordersum import DEFAULT_BOUND, HARD_CAP, build_group, psi_spectrum  # noqa: F401
    from ordersum.enumeration import DEFAULT_BOUND as bound, HARD_CAP as cap

    assert (bound, cap) == (DEFAULT_BOUND, HARD_CAP)
    with pytest.raises(AttributeError, match="no_such_name"):
        ordersum.no_such_name
