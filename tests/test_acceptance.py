"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass/fail line (run pytest with -s to see them).
All tolerances are zero: every quantity is an integer or a Fraction.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

from ordersum import arith, theorems
from ordersum.arith import f_ratio, psi_cyclic, psi_cyclic_oracle
from ordersum.enumeration import canonical_form, catalog
from ordersum.groups import (
    Cyclic,
    DirectProduct,
    GeneralizedQuaternion,
    build_group,
    parse_spec,
)

PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({description}): PASS")


def test_criterion_1_psi_closed_forms():
    with criterion(1, "psi closed forms vs group sum and divisor oracle, n <= 300"):
        for n in range(1, 301):
            brute = build_group(Cyclic(n)).psi()
            assert brute == psi_cyclic(n) == psi_cyclic_oracle(n), n
        assert psi_cyclic(8) == 43


def test_criterion_2_quaternion_comparison():
    with criterion(2, "psi(Q8) = 27 < (7/11) * 43"):
        assert build_group(GeneralizedQuaternion(8)).psi() == 27
        assert Fraction(27) < Fraction(7, 11) * 43


def test_criterion_3_max_cyclic_catalog(cache_dir):
    with criterion(3, "psi(G) < psi(C_n) for every non-cyclic class, n <= 12"):
        for n in range(2, 13):
            report = theorems.verify_max_cyclic(n, cache_dir=cache_dir)
            assert report.verdict == "holds", (n, report)
            for case in report.cases:
                assert case.lhs < case.rhs


def test_criterion_4_equality_classification_exhaustive(cache_dir):
    with criterion(4, "equality exactly at (C2xC2)xC_k for n in {4, 12}"):
        for n, expected_spec in ((4, "C2xC2"), (12, "C2xC2xC3")):
            report = theorems.verify_equality_classification(n, 2, cache_dir=cache_dir)
            assert report.verdict == "holds"
            equalities = [c for c in report.cases if c.verdict == "equality"]
            assert len(equalities) == 1
            by_desc = {c.description: c.table for c in catalog(n, cache_dir=cache_dir)}
            witness = by_desc[equalities[0].params["class"]]
            assert witness == canonical_form(build_group(parse_spec(expected_spec)).table.tolist())


def test_criterion_5_equality_family_q2():
    with criterion(5, "psi((C2xC2)xC_k) = (7/11) psi(C_4k) for odd k <= 99"):
        for k in range(1, 100, 2):
            parts = [Cyclic(2), Cyclic(2)] + ([Cyclic(k)] if k > 1 else [])
            lhs = build_group(DirectProduct(parts)).psi()
            rhs = Fraction(7, 11) * build_group(Cyclic(4 * k)).psi()
            assert lhs == rhs, k


def test_criterion_6_equality_family_q3():
    with criterion(6, "f(3) = 25/61; equality iff gcd(k, 6) = 1, k <= 60"):
        assert f_ratio(3) == Fraction(25, 61)
        report = theorems.thm4_family_check(3, 60)
        assert report.verdict == "holds"
        for case in report.cases:
            k = case.params["k"]
            if math.gcd(k, 6) == 1:
                assert case.expected == "equality" and case.verdict == "equality", k
            else:
                # Not second maximal: psi differs from f(q*) psi(C_n) at the
                # true least prime divisor q* of n = 9k.
                assert case.expected == "not_equality" and case.verdict != "equality", k


def test_criterion_7_f_monotonicity():
    with criterion(7, "f strictly decreasing over primes up to 97"):
        values = [f_ratio(q) for q in PRIMES_TO_97]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_8_modular_group_formula():
    with criterion(8, "psi(M_{q^r}) = psi(C_q x C_{q^(r-1)}) = closed form"):
        for q, r in ((2, 4), (2, 5), (3, 3), (3, 4), (5, 3)):
            report = theorems.mqr_formula_check(q, r)
            assert report.verdict == "holds", (q, r)


def test_criterion_9_proof_audit():
    with criterion(9, "proof inequality audit, q <= 97, p <= 199, s <= 6"):
        report = theorems.proof_inequality_audit(97, 199, 6)
        assert report.verdict == "holds"
        c_cases = {c.params["q"]: c for c in report.cases if c.params.get("item") == "c"}
        assert (c_cases[2].params["cross_lhs"], c_cases[2].params["cross_rhs"]) == (341, 336)
        assert c_cases[2].verdict == "fails"  # 341 < 336 is false, as required
        assert (c_cases[3].params["cross_lhs"], c_cases[3].params["cross_rhs"]) == (4087, 4375)
        assert c_cases[3].verdict == "holds"


def test_criterion_10_semidirect_bounds():
    with criterion(10, "semidirect bound suites over mk <= 200"):
        r5 = theorems.lemma5_check(200)
        assert r5.verdict == "holds"
        # Equality exactly at central actions: one a = 1 per (m, k) pair.
        central = sum(1 for m, k, a in theorems._sylow_semidirect_parameters(200) if a == 1)
        assert r5.params["equalities"] == central
        r6 = theorems.lemma6_check(200)
        assert r6.verdict == "holds"
