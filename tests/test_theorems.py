import json
import math
from fractions import Fraction

import pytest

from ordersum import HARD_CAP, arith, theorems
from ordersum.arith import f_ratio, psi_cyclic
from ordersum.enumeration import canonical_form, catalog
from ordersum.groups import (
    Abelian,
    Cyclic,
    DirectProduct,
    FromPermutations,
    FromTable,
    GeneralizedQuaternion,
    GroupSpecError,
    SemidirectCyclic,
    build_group,
    format_spec,
    parse_spec,
)
from ordersum.theorems import (
    Case,
    VerificationReport,
    lemma5_check,
    lemma6_check,
    lemma7_check,
    mqr_formula_check,
    proof_inequality_audit,
    report_to_dict,
    reports_to_csv,
    reports_to_text,
    thm4_family_check,
    verify_equality_classification,
    verify_max_cyclic,
    verify_upper_bound,
    _witness_cofactor,
    _witness_spec,
)
from test_enumeration import ABOVE_DEFAULT

V4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


class TestMaxCyclic:
    def test_order_8(self, cache_dir):
        report = verify_max_cyclic(8, cache_dir=cache_dir)
        assert report.verdict == "holds"
        assert sorted(c.lhs for c in report.cases) == [15, 19, 23, 27]
        assert all(c.rhs == 43 for c in report.cases)

    def test_order_2_vacuous(self, cache_dir):
        report = verify_max_cyclic(2, cache_dir=cache_dir)
        assert report.verdict == "holds" and not report.cases
        assert "vacuous" in report.note

    def test_order_12(self, cache_dir):
        report = verify_max_cyclic(12, cache_dir=cache_dir)
        assert report.verdict == "holds"
        assert sorted(c.lhs for c in report.cases) == [31, 33, 45, 49]


class TestUpperBound:
    def test_equality_case(self):
        g = build_group(DirectProduct([Abelian([2, 2]), Cyclic(3)]))
        report = verify_upper_bound(g, 2)
        assert report.verdict == "equality"
        assert report.lhs == 49 and report.rhs == Fraction(7, 11) * 77

    def test_strict_case_q8(self):
        report = verify_upper_bound(build_group(GeneralizedQuaternion(8)), 2)
        assert report.verdict == "holds"
        assert report.lhs == 27 and report.rhs == Fraction(301, 11)

    def test_equality_case_q3(self):
        g = build_group(parse_spec("C3xC3xC5"))
        report = verify_upper_bound(g, 3)
        assert report.verdict == "equality"
        assert report.rhs == Fraction(25, 61) * psi_cyclic(45)

    def test_rejects_cyclic(self):
        with pytest.raises(ValueError):
            verify_upper_bound(build_group(Cyclic(8)), 2)

    @pytest.mark.parametrize("spec,label", [
        (FromTable(V4), "order-4 table"),
        (FromPermutations(4, ((1, 0, 3, 2), (2, 3, 0, 1))), "order-4 table"),
    ], ids=["table", "perm"])
    def test_in_memory_spec_labelled_as_table(self, spec, label):
        # format_spec cannot print a spec with no path; the report names the
        # group as it names a bare Group table.
        with pytest.raises(GroupSpecError):
            format_spec(spec)
        report = verify_upper_bound(build_group(spec), 2)
        assert report.verdict == "equality"
        assert report.params["group"] == label == report.witnesses[0]

    def test_rejects_wrong_prime(self):
        with pytest.raises(ValueError):
            verify_upper_bound(build_group(GeneralizedQuaternion(8)), 3)


def equality_witnesses(n, q, cache_dir):
    """The catalog groups on which the exhaustive report finds equality."""
    report = verify_equality_classification(n, q, cache_dir=cache_dir)
    assert report.verdict == "holds"
    by_desc = {cls.description: cls.table for cls in catalog(n, cache_dir=cache_dir)}
    return [by_desc[c.params["class"]] for c in report.cases if c.verdict == "equality"]


class TestEqualityClassification:
    def test_n4(self, cache_dir):
        witnesses = equality_witnesses(4, 2, cache_dir)
        assert witnesses == [canonical_form(build_group(parse_spec("C2xC2")).table.tolist())]

    def test_n12(self, cache_dir):
        witnesses = equality_witnesses(12, 2, cache_dir)
        assert witnesses == [canonical_form(build_group(parse_spec("C2xC2xC3")).table.tolist())]
        report = verify_equality_classification(12, 2, cache_dir=cache_dir)
        strict = [c for c in report.cases if c.expected == "holds"]
        assert len(strict) == 3 and all(c.verdict == "holds" for c in strict)

    def test_n8_no_witness(self, cache_dir):
        assert equality_witnesses(8, 2, cache_dir) == []

    def test_exhaustive_all_orders(self, cache_dir):
        for n in range(2, 13):
            report = verify_equality_classification(n, cache_dir=cache_dir)
            assert report.verdict == "holds", n

    @ABOVE_DEFAULT
    def test_witness_matches_numpy_engine(self, cache_dir):
        # The report builds and canonicalizes its witness on pure-Python
        # tables; the numpy engine's canonical form of the witness spec must
        # be the one class at which it expects equality.
        for n in range(2, HARD_CAP + 1):
            q = arith.least_prime_factor(n)
            k = _witness_cofactor(n, q)
            report = verify_equality_classification(n, bound=HARD_CAP, cache_dir=cache_dir)
            assert report.verdict == "holds", n
            tables = {c.description: c.table for c in catalog(n, bound=HARD_CAP,
                                                                cache_dir=cache_dir)}
            expected = [tables[c.params["class"]] for c in report.cases
                        if c.expected == "equality"]
            if k is None:
                assert expected == [], n
            else:
                canon = canonical_form(build_group(_witness_spec(q, k)).table.tolist())
                assert expected == [canon], n

    def test_family_mode_flagged(self):
        report = verify_equality_classification(4 * 25, 2, family_only=True)
        assert report.params["mode"] == "family-restricted"
        assert report.verdict == "holds"
        assert report.cases[0].verdict == "equality"

    def test_bound_exceeded_without_family_flag(self):
        from ordersum.enumeration import EnumerationBoundError

        with pytest.raises(EnumerationBoundError):
            verify_equality_classification(100)

    def test_bound_checked_before_the_witness_is_built(self, monkeypatch):
        # a bound above the hard cap must fail before an n x n witness table exists
        from ordersum import enumeration

        def unreachable(*args):
            raise AssertionError("witness table built before the bound check")

        monkeypatch.setattr(enumeration, "_abelian_table", unreachable)
        with pytest.raises(enumeration.EnumerationBoundError, match="hard cap"):
            verify_equality_classification(8196, bound=8196)

    def test_rejects_wrong_prime(self):
        with pytest.raises(ValueError):
            verify_equality_classification(12, 3)


class TestThm4Family:
    def test_q2_small(self):
        report = thm4_family_check(2, 20)
        assert report.verdict == "holds"
        eq = {c.params["k"] for c in report.cases if c.expected == "equality"}
        assert eq == {k for k in range(1, 21) if k % 2 == 1}
        sharp = [c for c in report.cases if c.expected == "not_equality"]
        assert all(c.verdict != "equality" for c in sharp)
        assert "family-restricted" in report.note

    def test_q3_small(self):
        from ordersum.arith import least_prime_factor

        report = thm4_family_check(3, 14)
        assert report.verdict == "holds"
        eq = {c.params["k"] for c in report.cases if c.expected == "equality"}
        assert eq == {k for k in range(1, 15) if math.gcd(k, 6) == 1}
        # For k sharing a factor with 6 the f(q*) identity must not hold.
        for c in report.cases:
            if c.expected == "not_equality":
                k = c.params["k"]
                assert c.params["q_star"] == min(3, least_prime_factor(k))
                assert c.verdict != "equality"

    def test_q5_full_invariant_range(self):
        # Groups up to order 25 * 60 = 1500, both sides by brute force.
        report = thm4_family_check(5, 60)
        assert report.verdict == "holds"
        eq = {c.params["k"] for c in report.cases if c.expected == "equality"}
        assert eq == {k for k in range(1, 61) if math.gcd(k, 30) == 1}

    def test_rejects_composite_q(self):
        with pytest.raises(ValueError):
            thm4_family_check(4, 5)


class TestMqr:
    @pytest.mark.parametrize(
        "q,r,closed",
        [(2, 4, 87), (2, 5, 343), (3, 3, 187), (3, 4, 1645), (5, 3, 2621)],
    )
    def test_stock_pairs(self, q, r, closed):
        report = mqr_formula_check(q, r)
        assert report.verdict == "holds"
        assert report.params["closed_form"] == closed
        both = [c for c in report.cases if c.expected == "equality"]
        assert len(both) == 2 and all(c.lhs == closed for c in both)

    def test_below_second_max_ratio(self):
        report = mqr_formula_check(2, 4)
        below = [c for c in report.cases if c.expected == "holds"][0]
        assert below.lhs == 87 and below.rhs == Fraction(7, 11) * psi_cyclic(16)

    def test_domain_violation(self):
        from ordersum.groups import GroupSpecError

        with pytest.raises(GroupSpecError):
            mqr_formula_check(2, 3)


class TestLemmas:
    def test_lemma5_small(self):
        report = lemma5_check(80)
        assert report.verdict == "holds"
        central = sum(
            1 for m, k, a in theorems._sylow_semidirect_parameters(80) if a == 1
        )
        assert report.params["equalities"] == central

    def test_lemma6_small(self):
        report = lemma6_check(80)
        assert report.verdict == "holds"
        assert report.params["groups_checked"] > 0

    def test_lemma7_examples(self, cache_dir):
        r6 = lemma7_check(6, cache_dir=cache_dir)
        assert r6.verdict == "holds"
        assert any(c.params.get("m") == 3 and c.lhs == 2 for c in r6.cases)

        r10 = lemma7_check(10, cache_dir=cache_dir)
        assert r10.verdict == "holds"
        assert any(c.params.get("m") == 5 and c.lhs == 2 for c in r10.cases)

        r12 = lemma7_check(12, cache_dir=cache_dir)
        assert r12.verdict == "holds"
        assert all(c.verdict == "not_applicable" for c in r12.cases)

    @ABOVE_DEFAULT
    def test_lemma7_matches_numpy_engine(self, cache_dir):
        # The matches of SD(m,k,a) tables built in pure Python equal those of
        # the numpy engine's groups, compared by canonical form.
        matched = 0
        for n in range(2, HARD_CAP + 1):
            report = lemma7_check(n, bound=HARD_CAP, cache_dir=cache_dir)
            got = [(c.params["class"], c.params["m"], c.params["k"], c.params["a"])
                   for c in report.cases if "m" in c.params]
            classes = catalog(n, bound=HARD_CAP, cache_dir=cache_dir)
            values = sorted({cls.psi for cls in classes}, reverse=True)
            expected = []
            for cls in classes:
                if len(values) < 2 or cls.psi != values[1]:
                    continue
                for p, e in arith.factorize(n):
                    m, k = p**e, n // p**e
                    for a in arith.semidirect_actions(m, k):
                        sd = canonical_form(build_group(SemidirectCyclic(m, k, a)).table.tolist())
                        if sd == cls.table:
                            expected.append((cls.description, m, k, a))
            assert got == expected, n
            matched += len(got)
        assert matched

    def test_lemma7_prime_order(self, cache_dir):
        report = lemma7_check(5, cache_dir=cache_dir)
        assert report.verdict == "not_applicable"


def case(i, lhs, rhs, verdict, expected="holds"):
    return Case(params={"i": i}, lhs=lhs, rhs=rhs, verdict=verdict, expected=expected)


class TestShownCases:
    def test_violations_first_in_scan_order(self):
        cases = [case(0, 1, 2, "holds"), case(1, 5, 4, "fails"), case(2, 3, 4, "holds"),
                 case(3, 2, 2, "equality")]
        shown = theorems._shown_cases(cases)
        assert [c.params["i"] for c in shown] == [1, 3, 2]

    def test_tie_keeps_the_first(self):
        cases = [case(0, 1, 3, "holds"), case(1, 2, 3, "holds"), case(2, 4, 6, "holds")]
        assert [c.params["i"] for c in theorems._shown_cases(cases)] == [1]

    def test_holds_where_equality_expected_is_a_violation_only(self):
        # A trivial action (a = 1) whose psi fell below the bound: not ok, and
        # its ratio beats every strict case, yet it must not be the tightest.
        cases = [case(0, 1, 3, "holds"), case(1, 9, 10, "holds", expected="equality")]
        shown = theorems._shown_cases(cases)
        assert [c.params["i"] for c in shown] == [1, 0]

    def test_no_strict_case(self):
        cases = [case(0, 2, 2, "equality", expected="equality"), case(1, 3, 2, "fails")]
        assert [c.params["i"] for c in theorems._shown_cases(cases)] == [1]
        assert theorems._shown_cases(cases[:1]) == []


class TestAudit:
    def test_expected_pattern(self):
        report = proof_inequality_audit(29, 61, 4)
        assert report.verdict == "holds"

    def test_q2_failure_integers(self):
        report = proof_inequality_audit(7, 13, 2)
        c2 = next(c for c in report.cases if c.params.get("item") == "c" and c.params["q"] == 2)
        assert (c2.params["cross_lhs"], c2.params["cross_rhs"]) == (341, 336)
        assert c2.verdict == "fails" and c2.ok

    def test_q3_near_miss_integers(self):
        report = proof_inequality_audit(7, 13, 2)
        c3 = next(c for c in report.cases if c.params.get("item") == "c" and c.params["q"] == 3)
        assert (c3.params["cross_lhs"], c3.params["cross_rhs"]) == (4087, 4375)
        assert c3.verdict == "holds" and c3.ok

    def test_b_boundary(self):
        report = proof_inequality_audit(7, 13, 3)
        b = next(c for c in report.cases if c.params.get("item") == "b"
                 and c.params["r"] == 3 and c.params["s"] == 1)
        assert b.verdict == "equality"
        assert b.lhs == Fraction(4, 28) == Fraction(1, 7) == b.rhs

    def test_d_exact(self):
        report = proof_inequality_audit(5, 7, 1)
        d = next(c for c in report.cases if c.params.get("item") == "d")
        assert d.lhs == Fraction(43, 75) and d.rhs == Fraction(7, 11)
        assert d.verdict == "holds"

    def test_e_boundary(self):
        report = proof_inequality_audit(5, 7, 3)
        for c in report.cases:
            if c.params.get("item") == "e":
                assert c.verdict == "holds"


class TestSerialization:
    def test_rationals_as_strings(self):
        report = verify_upper_bound(build_group(GeneralizedQuaternion(8)), 2)
        doc = report_to_dict(report)
        assert doc["rhs"] == "301/11" and doc["lhs"] == 27
        json.dumps(doc)  # must be JSON-serializable

    def test_csv_shape(self):
        report = verify_max_cyclic(8)
        csv = reports_to_csv([report])
        lines = csv.strip().split("\n")
        assert lines[0] == "claim_id,params,lhs,rhs,verdict,witness"
        assert len(lines) == 1 + len(report.cases)

    def test_text_marks_failures(self):
        bad = VerificationReport(
            claim_id="max_cyclic",
            params={"n": 0},
            verdict="fails",
            cases=[Case(params={}, lhs=2, rhs=1, verdict="fails", expected="holds")],
        )
        text = reports_to_text([bad])
        assert "BAD" in text and "[FAILS]" in text

    def test_verdict_recomputable(self):
        report = verify_max_cyclic(12)
        for case in report.cases:
            assert case.verdict == ("holds" if case.lhs < case.rhs else
                                    "equality" if case.lhs == case.rhs else "fails")
