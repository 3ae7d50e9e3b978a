"""ordersum: exact computation with the sum-of-element-orders invariant.

The package computes psi(G), the sum of the orders of all elements of a
finite group G, three independent ways (closed forms, a divisor-sum oracle,
and brute force over each group's multiplication law), enumerates every group
of a small order up to isomorphism, and machine-checks the classification of
the groups attaining the largest and second-largest values of psi.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a command pays only for
the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# The enumeration bound's default and hard cap.  They are defined here rather
# than in the enumerator so that the command-line parser reads them without
# loading it; `enumeration` re-exports both.
DEFAULT_BOUND = 12
HARD_CAP = 16

_EXPORTS = {
    "arith": (
        "Factorization",
        "cyclic_lower_bound",
        "divisors",
        "euler_phi",
        "f_ratio",
        "factorize",
        "is_prime",
        "least_prime_factor",
        "multiplicative_order",
        "psi_cyclic",
        "psi_cyclic_oracle",
        "psi_cyclic_prime_power",
    ),
    "groups": (
        "Abelian",
        "Cyclic",
        "Dihedral",
        "DirectProduct",
        "FromPermutations",
        "FromTable",
        "GeneralizedQuaternion",
        "Group",
        "GroupSpecError",
        "Modular",
        "SemidirectCyclic",
        "TableError",
        "build_group",
        "format_spec",
        "kernel_of_action",
        "parse_spec",
        "semidirect_actions",
    ),
    "enumeration": (
        "CatalogClass",
        "EnumerationBoundError",
        "SpectrumEntry",
        "canonical_form",
        "catalog",
        "psi_spectrum",
    ),
    "theorems": (
        "VerificationReport",
        "lemma5_check",
        "lemma6_check",
        "lemma7_check",
        "mqr_formula_check",
        "proof_inequality_audit",
        "thm4_family_check",
        "verify_equality_classification",
        "verify_max_cyclic",
        "verify_upper_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
