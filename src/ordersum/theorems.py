"""Executable verification of the extremal classification for psi.

Each checker returns a VerificationReport whose verdict is recomputable
from the recorded exact values.  All comparisons are between integers and
``Fraction`` values; there are no tolerances anywhere in this module.

The claims of ``ordersum verify``, by id (the keys of ``cli.CLAIMS``):

* ``max_cyclic``   the cyclic group is the unique maximizer of psi among
                   groups of its order (checked over the exhaustive catalog);
* ``upper_bound``  psi(G) <= f(q) * psi(C_n) for one non-cyclic group G whose
                   order n has least prime divisor q;
* ``equality``     over the catalog of order n, equality in the bound above
                   is attained exactly by (C_q x C_q) x C_k when n = q^2 k
                   with every prime divisor of k exceeding q, and by nothing
                   else;
* ``thm4``         the same equality law over the construction family
                   (C_q x C_q) x C_k for a range of k (family-restricted);
* ``mqr``          the modular group of order q^r and C_q x C_{q^(r-1)} share
                   the value (q^(2r) + q^3 - q^2 + 1) / (q + 1), which stays
                   strictly below f(q) * psi(C_{q^r});
* ``lemma5``       psi(C_m x| C_k) <= psi(C_m) psi(C_k) for prime-power m
                   coprime to k, with equality exactly for the trivial action;
* ``lemma6``       the strict kernel-weighted bound for non-central actions;
* ``lemma7``       when a second-maximal class splits as a cyclic Sylow
                   semidirect a cyclic complement, the action kernel has prime
                   index in the complement.

``ordersum audit`` runs proof_inequality_audit (report id ``audit``): the
standalone numeric inequalities used in the proofs of the two bounding
propositions, including the q = 2 failure 341 < 336 and the q = 3 near-miss
4087 < 4375.

``groups`` and ``enumeration`` are imported inside the checkers that build
groups or read a catalog, so the audit loads neither.  The catalog claims
``max_cyclic``, ``equality`` and ``lemma7`` work on the classes'
pure-Python tables: the equality witness and the ``SD(m,k,a)`` candidates
are rows from the list rules of ``tables``, each checked as a class and
matched to catalog classes by ``isomorphic_to_canonical``, so these claims
load no ``groups`` or numpy, with a cached catalog or without.  The
family-scale claims, ``upper_bound`` and ``equality --family-only`` build
groups with ``groups``: as checked pure-Python rows up to order HARD_CAP and
as laws above it.  ``upper_bound``, ``mqr`` and ``equality --family-only``
build one or two groups each with ``build_group``, which walks a law of
order up to 2048 on Python lists, without numpy; the scans ``thm4``,
``lemma5`` and ``lemma6`` build theirs with ``build_groups``, whose laws
are numpy's.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import DEFAULT_BOUND, arith
from .arith import f_ratio, psi_cyclic

# typing and pathlib are not imported at run time: the annotations are
# strings, and the records are collections.namedtuple classes.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path

    from .groups import Group


class Case(namedtuple("Case", ("params", "lhs", "rhs", "verdict", "expected", "witnesses",
                               "note"), defaults=((), ""))):
    """One exact comparison inside a report.

    ``params`` is a dict; ``lhs`` and ``rhs`` are ints, Fractions or None.
    ``verdict`` states the raw outcome of comparing lhs against rhs, one of
    "holds", "equality", "fails" and "not_applicable"; ``expected`` states
    what the claim asserts that outcome must be, in the same vocabulary
    plus "not_equality", so an inequality that is supposed to fail (and
    does) leaves the report green.  ``witnesses`` is a tuple of labels.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        if self.expected == "not_equality":
            return self.verdict != "equality"
        return self.verdict == self.expected


class VerificationReport(namedtuple("VerificationReport", (
        "claim_id", "params", "verdict", "lhs", "rhs", "witnesses", "cases", "note"),
        defaults=(None, None, (), (), ""))):
    """Outcome of one claim check: parameters, exact values, verdict.

    ``verdict`` is one of "holds", "equality", "fails" and
    "not_applicable"; ``cases`` is a sequence of Case.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.verdict != "fails"


def _verdict_from_cases(cases: list[Case]) -> str:
    return "fails" if any(not c.ok for c in cases) else "holds"


def _compare(lhs, rhs) -> str:
    if lhs == rhs:
        return "equality"
    return "holds" if lhs < rhs else "fails"


def _witness_spec(q: int, k: int):
    from .groups import Cyclic, DirectProduct

    parts = [Cyclic(q), Cyclic(q)]
    if k > 1:
        parts.append(Cyclic(k))
    return DirectProduct(parts)


def _witness_cofactor(n: int, q: int) -> int | None:
    """The k of the witness (C_q x C_q) x C_k the classification predicts for
    order n, if there is one.

    Requires q to be the least prime divisor of n.  A witness exists exactly
    when q divides n to the second power exactly: then n = q^2 k with every
    prime divisor of k exceeding q.
    """
    if n % (q * q) or n // (q * q) % q == 0:
        return None
    return n // (q * q)


def _require_least_prime(n: int, q: int) -> None:
    if n < 2:
        raise ValueError(f"need a group order n >= 2, got {n}")
    if arith.least_prime_factor(n) != q:
        raise ValueError(f"{q} is not the least prime divisor of {n}")


# ---------------------------------------------------------------------------
# Catalog-backed checks
# ---------------------------------------------------------------------------


def verify_max_cyclic(
    n: int, *, bound: int = DEFAULT_BOUND, cache_dir: str | Path | None = None
) -> VerificationReport:
    """psi(G) < psi(C_n) for every non-cyclic class of order n."""
    from .enumeration import catalog

    classes = catalog(n, bound=bound, cache_dir=cache_dir)
    top = psi_cyclic(n)
    cases = []
    for cls in classes:
        if cls.is_cyclic():
            continue
        cases.append(
            Case(
                params={"n": n, "class": cls.description},
                lhs=cls.psi,
                rhs=top,
                verdict="holds" if cls.psi < top else "fails",
                expected="holds",
                witnesses=(cls.description,),
            )
        )
    return VerificationReport(
        claim_id="max_cyclic",
        params={"n": n},
        verdict=_verdict_from_cases(cases),
        rhs=top,
        cases=cases,
        note="" if cases else "vacuous: every group of this order is cyclic",
    )


def verify_upper_bound(g: Group, q: int) -> VerificationReport:
    """psi(G) <= f(q) * psi(C_n) for one non-cyclic group, exactly."""
    if g.is_cyclic():
        raise ValueError("the upper bound claim concerns non-cyclic groups only")
    _require_least_prime(g.order, q)
    lhs = g.psi()
    rhs = f_ratio(q) * psi_cyclic(g.order)
    return VerificationReport(
        claim_id="upper_bound",
        params={"n": g.order, "q": q, "group": g.label},
        verdict=_compare(lhs, rhs),
        lhs=lhs,
        rhs=rhs,
        witnesses=(g.label,),
    )


def verify_equality_classification(
    n: int,
    q: int | None = None,
    *,
    bound: int = DEFAULT_BOUND,
    cache_dir: str | Path | None = None,
    family_only: bool = False,
) -> VerificationReport:
    """Equality in psi(G) <= f(q) psi(C_n) holds exactly at the predicted class.

    Exhaustive for n within the enumeration bound: every non-cyclic class is
    compared against f(q) * psi(C_n); the single expected witness (when n has
    the right shape) must land on equality and everything else strictly
    below.  Above the bound, family_only restricts the check to the predicted
    construction and the report is flagged family-restricted.
    """
    from .enumeration import EnumerationBoundError, catalog, isomorphic_to_canonical
    from .tables import _checked_class, _rows

    if q is None:
        q = arith.least_prime_factor(n)
    _require_least_prime(n, q)
    k = _witness_cofactor(n, q)
    target = f_ratio(q) * psi_cyclic(n)

    cases = []
    if family_only and k is None:
        cases.append(
            Case(
                params={"n": n, "q": q},
                lhs=None,
                rhs=target,
                verdict="not_applicable",
                expected="not_applicable",
                note="n is not of the form q^2 k with k free of primes <= q",
            )
        )
    elif family_only:
        from .groups import build_group, format_spec

        expected = _witness_spec(q, k)
        g = build_group(expected)
        label = format_spec(expected)
        cases.append(
            Case(
                params={"n": n, "q": q, "class": label},
                lhs=g.psi(),
                rhs=target,
                verdict=_compare(g.psi(), target),
                expected="equality",
                witnesses=(label,),
            )
        )
    elif n > bound:
        raise EnumerationBoundError(
            f"order {n} exceeds the enumeration bound {bound}; "
            "pass family_only=True for a family-restricted check"
        )
    else:
        classes = catalog(n, bound=bound, cache_dir=cache_dir)  # bound-checked before any table
        witness = (None if k is None
                   else _checked_class(_rows([("cyclic", q), ("cyclic", q * k)]), n))
        for cls in classes:
            if cls.is_cyclic():
                continue  # psi(C_n) > target since f(q) < 1
            cases.append(
                Case(
                    params={"n": n, "q": q, "class": cls.description},
                    lhs=cls.psi,
                    rhs=target,
                    verdict=_compare(cls.psi, target),
                    expected=("equality" if witness is not None
                              and isomorphic_to_canonical(witness, cls) else "holds"),
                    witnesses=(cls.description,),
                )
            )
    return VerificationReport(
        claim_id="equality",
        params={"n": n, "q": q, "mode": "family-restricted" if family_only else "exhaustive"},
        verdict=_verdict_from_cases(cases),
        rhs=target,
        cases=cases,
        witnesses=tuple(c.witnesses[0] for c in cases if c.verdict == "equality"),
        note=("family-restricted: only the predicted construction was examined"
              if family_only else ""),
    )


def lemma7_check(
    n: int, *, bound: int = DEFAULT_BOUND, cache_dir: str | Path | None = None
) -> VerificationReport:
    """Second-maximal classes that split as C_m x| C_k have prime action index.

    For each catalog class of order n with the second-largest psi, every
    realization as SemidirectCyclic(m, k, a) with m the full p-part of n and
    gcd(m, k) = 1 (cyclic Sylow subgroup, cyclic complement) must have
    [C_k : kernel] = multiplicative order of a mod m equal to a prime.  The
    clause is vacuous for classes without such a realization.
    """
    from .enumeration import catalog, isomorphic_to_canonical
    from .tables import _checked_class, _rows

    classes = catalog(n, bound=bound, cache_dir=cache_dir)
    values = sorted({cls.psi for cls in classes}, reverse=True)
    if len(values) < 2:
        return VerificationReport(
            claim_id="lemma7",
            params={"n": n},
            verdict="not_applicable",
            note="fewer than two distinct psi values at this order",
        )
    second = values[1]
    cases = []
    for cls in classes:
        if cls.psi != second:
            continue
        matches = []
        for p, e in arith.factorize(n):
            m = p**e
            k = n // m
            for a in arith.semidirect_actions(m, k):
                sd = _checked_class(_rows([("semidirect", m, k, a)]), n)
                if isomorphic_to_canonical(sd, cls):
                    matches.append((m, k, a))
        if not matches:
            cases.append(
                Case(
                    params={"n": n, "class": cls.description, "psi": cls.psi},
                    lhs=None,
                    rhs=None,
                    verdict="not_applicable",
                    expected="not_applicable",
                    note="no realization as a cyclic Sylow semidirect a cyclic complement",
                )
            )
            continue
        for m, k, a in matches:
            index = arith.multiplicative_order(a, m)
            cases.append(
                Case(
                    params={"n": n, "class": cls.description, "m": m, "k": k, "a": a},
                    lhs=index,
                    rhs=None,
                    verdict="holds" if arith.is_prime(index) else "fails",
                    expected="holds",
                    witnesses=(f"SD({m},{k},{a})",),
                    note=f"[C_{k} : kernel] = {index}",
                )
            )
    return VerificationReport(
        claim_id="lemma7",
        params={"n": n, "second_psi": second},
        verdict=_verdict_from_cases(cases),
        cases=cases,
    )


# ---------------------------------------------------------------------------
# Family-scale checks
# ---------------------------------------------------------------------------


def thm4_family_check(q: int, k_max: int) -> VerificationReport:
    """Equality law over the family (C_q x C_q) x C_k for all k <= k_max.

    For k whose least prime factor exceeds q, brute-force psi of the witness
    equals f(q) * psi(C_{q^2 k}) exactly, both sides computed from realized
    groups.  Every other k makes the group fail to be second maximal: its
    psi must differ from f(q*) * psi(C_n), where q* is the least prime
    divisor of n = q^2 k.  Family-restricted by construction.
    """
    from .groups import Cyclic, build_groups, format_spec

    if not arith.is_prime(q):
        raise ValueError(f"{q} is not prime")
    cases = []
    built = build_groups(spec for k in range(1, k_max + 1)
                         for spec in (_witness_spec(q, k), Cyclic(q * q * k)))
    for k in range(1, k_max + 1):
        n = q * q * k
        group, cyclic = next(built), next(built)
        witness = group.spec
        lhs = group.psi()
        cyc = cyclic.psi()
        params = {"q": q, "k": k, "n": n}
        note = ""
        small = None if k == 1 else arith.least_prime_factor(k)
        law = small is None or small > q
        if not law:
            params["q_star"] = small  # the least prime divisor of n
            note = (f"k has the prime factor {small} <= q, so n is a "
                    f"{small}*-order; the group must not be second maximal")
        rhs = f_ratio(q if law else small) * cyc
        cases.append(
            Case(
                params=params,
                lhs=lhs,
                rhs=rhs,
                verdict=_compare(lhs, rhs),
                expected="equality" if law else "not_equality",
                witnesses=(format_spec(witness),),
                note=note,
            )
        )
    return VerificationReport(
        claim_id="thm4",
        params={"q": q, "k_max": k_max},
        verdict=_verdict_from_cases(cases),
        cases=cases,
        witnesses=tuple(
            c.witnesses[0] for c in cases if c.expected == "equality" and c.ok
        ),
        note="family-restricted: only groups of the form (CqxCq)xCk are examined",
    )


def mqr_formula_check(q: int, r: int) -> VerificationReport:
    """Both maximal non-cyclic order-q^r classes share the closed-form psi.

    Brute-force psi of the modular group of order q^r and of
    C_q x C_{q^(r-1)} both equal (q^(2r) + q^3 - q^2 + 1) / (q + 1), and the
    value stays strictly below f(q) * psi(C_{q^r}).
    """
    from .groups import Abelian, Modular, build_group, format_spec

    num = q ** (2 * r) + q**3 - q * q + 1
    assert num % (q + 1) == 0
    closed = num // (q + 1)
    cases = []
    # The modular group comes first: building it validates the (q, r) domain.
    for spec in (Modular(q, r), Abelian([q, q ** (r - 1)])):
        psi = build_group(spec).psi()
        cases.append(
            Case(
                params={"q": q, "r": r, "group": format_spec(spec)},
                lhs=psi,
                rhs=closed,
                verdict=_compare(psi, closed),
                expected="equality",
            )
        )
    bound = f_ratio(q) * psi_cyclic(q**r)
    cases.append(
        Case(
            params={"q": q, "r": r, "comparison": "closed form below f(q) psi(C_n)"},
            lhs=closed,
            rhs=bound,
            verdict=_compare(closed, bound),
            expected="holds",
        )
    )
    return VerificationReport(
        claim_id="mqr",
        params={"q": q, "r": r, "closed_form": closed},
        verdict=_verdict_from_cases(cases),
        cases=cases,
    )


def _sylow_semidirect_parameters(mk_max: int):
    """All (m, k, a) with m a prime power coprime to k, mk <= mk_max, valid a."""
    for m in range(2, mk_max + 1):
        if len(arith.factorize(m)) != 1:
            continue
        for k in range(1, mk_max // m + 1):
            if math.gcd(m, k) != 1:
                continue
            for a in arith.semidirect_actions(m, k):
                yield m, k, a


def _shown_cases(cases: list[Case]) -> list[Case]:
    """Every violation in scan order, then the tightest case that holds.

    The tightest has the largest lhs/rhs among the ok cases whose verdict is
    "holds"; on a tie the first one scanned wins.
    """
    shown = [c for c in cases if not c.ok]
    strict = [c for c in cases if c.ok and c.verdict == "holds"]
    if strict:
        shown.append(max(strict, key=lambda c: Fraction(c.lhs) / c.rhs))
    return shown


def lemma5_check(mk_max: int = 200) -> VerificationReport:
    """psi(C_m x| C_k) <= psi(C_m) psi(C_k), equality exactly for a = 1.

    Ranges over every SemidirectCyclic(m, k, a) with m a prime power coprime
    to k and mk <= mk_max, so that C_m is a cyclic normal Sylow subgroup and
    the quotient is C_k.
    """
    from .groups import SemidirectCyclic, build_groups

    cases = []
    params = list(_sylow_semidirect_parameters(mk_max))
    for (m, k, a), g in zip(params, build_groups(SemidirectCyclic(*p) for p in params)):
        lhs = g.psi()
        rhs = psi_cyclic(m) * psi_cyclic(k)
        cases.append(
            Case(
                params={"m": m, "k": k, "a": a},
                lhs=lhs,
                rhs=rhs,
                verdict=_compare(lhs, rhs),
                expected="equality" if a == 1 else "holds",
                witnesses=(f"SD({m},{k},{a})",),
            )
        )
    equalities = sum(c.verdict == "equality" for c in cases)
    return VerificationReport(
        claim_id="lemma5",
        params={"mk_max": mk_max, "groups_checked": len(cases), "equalities": equalities},
        verdict=_verdict_from_cases(cases),
        cases=_shown_cases(cases),
        note="cases shown: violations plus the tightest strict instance",
    )


def lemma6_check(mk_max: int = 200) -> VerificationReport:
    """Strict kernel-weighted bound for non-central actions.

    For every SemidirectCyclic(m, k, a) with m a prime power coprime to k,
    k > 1 and a != 1 (non-central action with kernel C_z):

        psi(G) < psi(C_m) psi(C_k) (psi(C_z)/psi(C_k) + m/psi(C_m))

    exactly, in rational arithmetic.
    """
    from .groups import SemidirectCyclic, build_groups, kernel_of_action

    cases = []
    params = [(m, k, a) for m, k, a in _sylow_semidirect_parameters(mk_max)
              if k > 1 and a != 1]
    for (m, k, a), g in zip(params, build_groups(SemidirectCyclic(*p) for p in params)):
        z = kernel_of_action(m, k, a)
        lhs = g.psi()
        rhs = (
            psi_cyclic(m)
            * psi_cyclic(k)
            * (Fraction(psi_cyclic(z), psi_cyclic(k)) + Fraction(m, psi_cyclic(m)))
        )
        cases.append(
            Case(
                params={"m": m, "k": k, "a": a, "kernel": z},
                lhs=lhs,
                rhs=rhs,
                verdict="holds" if lhs < rhs else "fails",
                expected="holds",
                witnesses=(f"SD({m},{k},{a})",),
            )
        )
    return VerificationReport(
        claim_id="lemma6",
        params={"mk_max": mk_max, "groups_checked": len(cases)},
        verdict=_verdict_from_cases(cases),
        cases=_shown_cases(cases),
        note="cases shown: violations plus the tightest instance",
    )


# ---------------------------------------------------------------------------
# Proof inequality audit
# ---------------------------------------------------------------------------


def proof_inequality_audit(
    q_max: int = 97, p_max: int = 199, s_max: int = 6
) -> VerificationReport:
    """Audit of the standalone numeric inequalities inside the proofs.

    (a) (q^4 - q^3 + q - 1) p > q^5 + 1 for primes q >= 3 and primes
        p >= q + 2;
    (b) (r^(2s-1) + 1) / (r^(2s+1) + 1) <= 1 / (r^2 - r + 1) for primes
        r >= 3, with equality exactly at s = 1;
    (c) 1/(q^2 - q + 1) + (q + 3)/(q + 2)^2 < f(q) for primes q >= 3, and
        the failure of the same inequality at q = 2; the cross-multiplied
        integer forms are 341 < 336 (false) at q = 2 and 4087 < 4375 (true)
        at q = 3;
    (d) 1/3 + 6/25 = 43/75 < 7/11;
    (e) (q^2 + q - 1)/(q^2 (q + 1)) n^2 + 1/(q + 1) <= f(q) (q n^2 + 1)/(q + 1)
        if and only if q^4 <= n^2, checked along n = q^s.
    """
    cases: list[Case] = []
    primes = arith.primes_up_to(max(q_max, p_max))
    qs = [p for p in primes if p <= q_max]
    ps = [p for p in primes if p <= p_max]

    for q in qs:
        if q < 3:
            continue
        shown = False
        for p in ps:
            if p < q + 2:
                continue
            lhs = (q**4 - q**3 + q - 1) * p
            rhs = q**5 + 1
            holds = lhs > rhs
            if not holds or not shown:
                cases.append(
                    Case(
                        params={"item": "a", "q": q, "p": p},
                        lhs=rhs,  # recorded as rhs < lhs to reuse _compare
                        rhs=lhs,
                        verdict="holds" if holds else "fails",
                        expected="holds",
                        note="smallest admissible p shown" if holds else "",
                    )
                )
                shown = True

    for r in ps:
        if r < 3:
            continue
        for s in range(1, s_max + 1):
            lhs = Fraction(r ** (2 * s - 1) + 1, r ** (2 * s + 1) + 1)
            rhs = Fraction(1, r * r - r + 1)
            verdict = _compare(lhs, rhs)
            expected = "equality" if s == 1 else "holds"
            if verdict != expected or (r == 3 and s == 1):
                cases.append(
                    Case(
                        params={"item": "b", "r": r, "s": s},
                        lhs=lhs,
                        rhs=rhs,
                        verdict=verdict,
                        expected=expected,
                        note="boundary: both sides coincide at s = 1" if s == 1 else "",
                    )
                )

    for q in qs:
        lhs = Fraction(1, q * q - q + 1) + Fraction(q + 3, (q + 2) ** 2)
        rhs = f_ratio(q)
        cross_lhs = lhs.numerator * rhs.denominator
        cross_rhs = rhs.numerator * lhs.denominator
        strict = lhs < rhs
        assert strict == (cross_lhs < cross_rhs)
        cases.append(
            Case(
                params={"item": "c", "q": q, "cross_lhs": cross_lhs, "cross_rhs": cross_rhs},
                lhs=lhs,
                rhs=rhs,
                verdict="holds" if strict else "fails",
                expected="fails" if q == 2 else "holds",
                note=f"cross-multiplied form: {cross_lhs} < {cross_rhs}",
            )
        )

    total = Fraction(1, 3) + Fraction(6, 25)
    assert total == Fraction(43, 75)
    cases.append(
        Case(
            params={"item": "d"},
            lhs=total,
            rhs=Fraction(7, 11),
            verdict=_compare(total, Fraction(7, 11)),
            expected="holds",
            note="1/3 + 6/25 = 43/75",
        )
    )

    for q in qs:
        for s in range(1, s_max + 1):
            n = q**s
            lhs = Fraction(q * q + q - 1, q * q * (q + 1)) * n * n + Fraction(1, q + 1)
            rhs = f_ratio(q) * Fraction(q * n * n + 1, q + 1)
            bound_holds = lhs <= rhs
            reduction_holds = q**4 <= n * n
            verdict = "holds" if bound_holds == reduction_holds else "fails"
            if verdict == "fails" or s <= 2:
                cases.append(
                    Case(
                        params={"item": "e", "q": q, "s": s, "n": n},
                        lhs=lhs,
                        rhs=rhs,
                        verdict=verdict,
                        expected="holds",
                        note=(
                            f"bound {'<=' if bound_holds else '>'} observed and "
                            f"q^4 {'<=' if reduction_holds else '>'} n^2"
                        ),
                    )
                )

    return VerificationReport(
        claim_id="audit",
        params={"q_max": q_max, "p_max": p_max, "s_max": s_max},
        verdict=_verdict_from_cases(cases),
        cases=cases,
        note="cases shown: all of (c) and (d), boundaries of (a), (b), (e), plus any violation",
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def exact_to_json(v):
    """Exact values for JSON: ints stay ints, rationals become 'num/den'."""
    if v is None:
        return None
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return int(v)


def case_to_dict(case: Case) -> dict:
    return {
        "params": case.params,
        "lhs": exact_to_json(case.lhs),
        "rhs": exact_to_json(case.rhs),
        "verdict": case.verdict,
        "expected": case.expected,
        "witnesses": list(case.witnesses),
        "note": case.note,
    }


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "claim_id": report.claim_id,
        "params": report.params,
        "verdict": report.verdict,
        "lhs": exact_to_json(report.lhs),
        "rhs": exact_to_json(report.rhs),
        "witnesses": list(report.witnesses),
        "note": report.note,
        "cases": [case_to_dict(c) for c in report.cases],
    }


def reports_to_csv(reports: list[VerificationReport]) -> str:
    def fmt_params(d: dict) -> str:
        return ";".join(f"{k}={v}" for k, v in d.items())

    def fmt_val(v) -> str:
        out = exact_to_json(v)
        return "" if out is None else str(out)

    lines = ["claim_id,params,lhs,rhs,verdict,witness"]
    for r in reports:
        for c in r.cases or [r]:  # a report without cases is its own row
            lines.append(
                ",".join(
                    [r.claim_id, fmt_params({**r.params, **c.params}), fmt_val(c.lhs),
                     fmt_val(c.rhs), c.verdict, "|".join(c.witnesses)]
                )
            )
    return "\n".join(lines) + "\n"


def reports_to_text(reports: list[VerificationReport]) -> str:
    out = []
    for r in reports:
        out.append(f"[{r.verdict.upper()}] {r.claim_id}  {r.params}")
        if r.note:
            out.append(f"    note: {r.note}")
        if r.lhs is not None:
            out.append(f"    lhs={r.lhs}  rhs={r.rhs}")
        elif r.rhs is not None:
            out.append(f"    rhs={r.rhs}")
        if r.witnesses:
            out.append(f"    witnesses: {', '.join(r.witnesses)}")
        for c in r.cases:
            mark = "ok " if c.ok else "BAD"
            vals = ""
            if c.lhs is not None or c.rhs is not None:
                vals = f"  lhs={c.lhs}  rhs={c.rhs}"
            note = f"  ({c.note})" if c.note else ""
            out.append(f"    {mark} {c.params}  {c.verdict}{vals}{note}")
    return "\n".join(out) + "\n"
