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

The checkers of ``thm4``, ``mqr``, ``lemma5``, ``lemma6`` and the audit
read no catalog and live in ``families``.  This module serves their names
on first use (PEP 562) and binds each one here, so the catalog claims and
``upper_bound`` compile none of them, and ``fractions`` (with ``decimal``)
is loaded only where a rational is built: by ``arith.f_ratio`` and by
``families``, so ``max_cyclic`` and ``lemma7`` load neither.

``groups`` and ``enumeration`` are imported inside the checkers that build
groups or read a catalog, so the audit loads neither.  The catalog claims
``max_cyclic``, ``equality`` and ``lemma7`` work on the classes'
pure-Python tables: the equality witness and the ``SD(m,k,a)`` candidates
are rows from the list rules of ``tables``, each checked as a class and
matched to catalog classes by ``isomorphic_to_canonical``, so these claims
load no ``groups`` or numpy, with a cached catalog or without.  The
family-scale claims, ``upper_bound`` and ``equality --family-only`` build
groups with ``groups``: as checked pure-Python rows up to order HARD_CAP and
as laws above it.  ``upper_bound`` and ``mqr`` build one or two groups each
with ``build_group``, which walks a law of order up to 2048 on Python
lists, without numpy.  The scans ``thm4``, ``lemma5`` and ``lemma6``, and
``equality_family_reports`` (``equality --family-only`` over a range),
list their specs and hand them to ``build_groups``, which walks the groups
on every CPU, on numpy laws above HARD_CAP, and returns their psi in their
order.  A scan's range is refused before any spec is listed where it would
reach past the law budget: ``thm4`` at its first witness past it,
``lemma5`` and ``lemma6`` at an mk_max past it.
"""

from __future__ import annotations

from collections import namedtuple

from . import DEFAULT_BOUND, arith
from .arith import f_ratio, psi_cyclic

# typing and pathlib are not imported at run time: the annotations are
# strings, and the records are collections.namedtuple classes.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path

    from .groups import Group

# The names that ``families`` defines and this module serves (``__getattr__``).
_FAMILIES = ("thm4_family_check", "mqr_formula_check", "lemma5_check", "lemma6_check",
             "proof_inequality_audit", "_sylow_semidirect_parameters", "_shown_cases")


def __getattr__(name: str):
    """A name of ``families``, imported on first use and bound here, where
    later lookups, and whatever patches this module, find it."""
    if name not in _FAMILIES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import families

    value = globals()[name] = getattr(families, name)
    return value


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


def equality_prime(n: int, q: int | None) -> int:
    """The prime of the equality claim at order n: q, which must be the least
    prime divisor of n, or that divisor when q is None."""
    if q is None:
        q = arith.least_prime_factor(n)
    _require_least_prime(n, q)
    return q


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
    construction and the report is flagged family-restricted
    (``equality_family_reports``).
    """
    if family_only:
        return equality_family_reports([n], q)[0]
    from .enumeration import EnumerationBoundError, catalog, isomorphic_to_canonical
    from .tables import _checked_class, _rows

    q = equality_prime(n, q)
    if n > bound:
        raise EnumerationBoundError(
            f"order {n} exceeds the enumeration bound {bound}; "
            "pass family_only=True for a family-restricted check"
        )
    k = _witness_cofactor(n, q)
    target = f_ratio(q) * psi_cyclic(n)
    classes = catalog(n, bound=bound, cache_dir=cache_dir)
    witness = (None if k is None
               else _checked_class(_rows([("cyclic", q), ("cyclic", q * k)]), n))
    cases = []
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
    return _equality_report(n, q, target, cases, family_only=False)


def equality_family_reports(orders, q: int | None = None) -> list[VerificationReport]:
    """``verify_equality_classification(n, q, family_only=True)`` for each n
    in orders, in their order.

    Every order is checked and its witness (C_q x C_q) x C_k listed first, so
    a bad q raises before anything is built; the witnesses are then built and
    walked at once by ``groups.build_groups``, on every CPU, largest first.
    """
    from .groups import build_groups

    plan = []
    for n in orders:
        qn = equality_prime(n, q)
        k = _witness_cofactor(n, qn)
        plan.append((n, qn, None if k is None else _witness_spec(qn, k)))
    psi = iter(build_groups(spec for _, _, spec in plan if spec is not None))
    reports = []
    for n, qn, spec in plan:
        target = f_ratio(qn) * psi_cyclic(n)
        if spec is None:
            case = Case(
                params={"n": n, "q": qn},
                lhs=None,
                rhs=target,
                verdict="not_applicable",
                expected="not_applicable",
                note="n is not of the form q^2 k with k free of primes <= q",
            )
        else:
            lhs = next(psi)
            case = Case(
                params={"n": n, "q": qn, "class": spec.text},
                lhs=lhs,
                rhs=target,
                verdict=_compare(lhs, target),
                expected="equality",
                witnesses=(spec.text,),
            )
        reports.append(_equality_report(n, qn, target, [case], family_only=True))
    return reports


def _equality_report(n: int, q: int, target, cases: list[Case], *,
                     family_only: bool) -> VerificationReport:
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
    # Every SD(m, k, a) with m a full prime-power part of n, built and
    # checked once for all the second-maximal classes.
    sylows = [(p**e, n // p**e) for p, e in arith.factorize(n)]
    candidates = [((m, k, a), _checked_class(_rows([("metacyclic", m, k, a)]), n))
                  for m, k in sylows for a in arith.semidirect_actions(m, k)]
    cases = []
    for cls in classes:
        if cls.psi != second:
            continue
        matches = [mka for mka, sd in candidates if isomorphic_to_canonical(sd, cls)]
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
# Serialization
# ---------------------------------------------------------------------------


def exact_to_json(v):
    """Exact values for JSON: ints stay ints, rationals become 'num/den'."""
    if v is None:
        return None
    if isinstance(v, int):
        return int(v)
    return f"{v.numerator}/{v.denominator}"


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
