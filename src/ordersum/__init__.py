"""ordersum: exact computation with the sum-of-element-orders invariant.

The package computes psi(G), the sum of the orders of all elements of a
finite group G, three independent ways (closed forms, a divisor-sum oracle,
and brute force over each group's multiplication law), enumerates every group
of a small order up to isomorphism, and machine-checks the classification of
the groups attaining the largest and second-largest values of psi.
"""

from .arith import (
    Factorization,
    cyclic_lower_bound,
    divisors,
    euler_phi,
    f_ratio,
    factorize,
    is_prime,
    least_prime_factor,
    multiplicative_order,
    psi_cyclic,
    psi_cyclic_oracle,
    psi_cyclic_prime_power,
)
from .groups import (
    Abelian,
    Cyclic,
    Dihedral,
    DirectProduct,
    FromPermutations,
    FromTable,
    GeneralizedQuaternion,
    Group,
    GroupSpecError,
    Modular,
    SemidirectCyclic,
    TableError,
    build_group,
    format_spec,
    kernel_of_action,
    parse_spec,
    semidirect_actions,
)
from .enumeration import (
    CatalogClass,
    EnumerationBoundError,
    SpectrumEntry,
    canonical_form,
    catalog,
    psi_spectrum,
)
from .theorems import (
    VerificationReport,
    lemma5_check,
    lemma6_check,
    lemma7_check,
    mqr_formula_check,
    proof_inequality_audit,
    thm4_family_check,
    verify_equality_classification,
    verify_max_cyclic,
    verify_upper_bound,
)

__version__ = "0.1.0"
