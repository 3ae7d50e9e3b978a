"""The benchmark's workloads: the CLI commands of one round and their checks.

Every check compares an output with values from `oracles`, never with a
stored copy of an earlier output.  A check raises CheckError on a mismatch.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles as o

FORMATS = ("table", "json", "csv")
VERDICTS = ("holds", "equality", "fails", "not_applicable")
MQR_STOCK = {(2, 4), (2, 5), (3, 3), (3, 4), (5, 3)}  # `verify mqr` with no --q/--r


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's oracles."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    """One CLI invocation and the check of its standard output."""

    argv: list[str]
    check: Callable[[str], None]


class Context:
    """Paths of one run, plus psi spectra already validated by the oracles."""

    def __init__(self, work: Path):
        self.warm = work / "warm"          # catalogs n <= 12, filled in set-up
        self.fresh = work / "fresh"        # emptied before every round
        self.tampered = work / "tampered"  # catalog/n=8.json with a psi set to 999
        self.missing = work / "missing"    # catalog/n=8.json without "classes"
        self.warm_spectra: dict[int, list[tuple[int, bool]]] = {}
        self.round_spectra: dict[int, list[tuple[int, bool]]] | None = None


# ---------------------------------------------------------------------------
# Catalog files written by the program, walked by the oracles
# ---------------------------------------------------------------------------


def catalog_file(cache_dir: Path, n: int) -> Path:
    return cache_dir / "catalog" / f"n={n}.json"


def walk_catalogs(cache_dir: Path, nmax: int) -> dict[int, list[tuple[int, bool]]]:
    """(psi, is_cyclic) of every cached class n = 2..nmax, after checking each table."""
    spectra = {}
    for n in range(2, nmax + 1):
        classes = json.loads(catalog_file(cache_dir, n).read_text())["classes"]
        expect(len(classes) == o.A000001[n],
               f"order {n}: {len(classes)} classes, A000001 says {o.A000001[n]}")
        entries = []
        for cls in classes:
            rows = cls["table"]
            expect(o.is_group_table(rows), f"order {n}: a cached table is not a group")
            orders = o.table_orders(rows)
            expect(sum(orders) == cls["psi"],
                   f"order {n}: cached psi {cls['psi']}, walked {sum(orders)}")
            entries.append((sum(orders), max(orders) == n))
        expect(sum(cyclic for _, cyclic in entries) == 1, f"order {n}: not one cyclic class")
        if n in (8, 12):
            expect(sorted(p for p, _ in entries) == o.known_spectrum(n),
                   f"order {n}: psi values differ from the known groups")
        spectra[n] = entries
    return spectra


# ---------------------------------------------------------------------------
# Parsing reports in all three formats into one row shape
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One case of a report (or the report itself when it has no cases)."""

    params: dict
    lhs: Fraction | None
    rhs: Fraction | None
    verdict: str


def exact(v) -> Fraction | None:
    return None if v in (None, "", "None") else Fraction(str(v))


def _str_params(params: dict) -> dict:
    return {k: str(v) for k, v in params.items()}


def _rows_from_reports(reports) -> list[Row]:
    """reports: (params, lhs, rhs, verdict, cases) with cases as row tuples."""
    rows = []
    for params, lhs, rhs, verdict, cases in reports:
        if not cases:
            rows.append(Row(params, exact(lhs), exact(rhs), verdict))
        for cparams, clhs, crhs, cverdict in cases:
            rows.append(Row({**params, **cparams}, exact(clhs), exact(crhs), cverdict))
    return rows


_HEADER = re.compile(r"^\[([A-Z_]+)\] (\w+)  (\{.*\})$")
_REPORT_VALUES = re.compile(r"^    (?:lhs=(\S+)  )?rhs=(\S+)$")
_CASE = re.compile(r"^    (?:ok |BAD) (\{.*\})  (holds|equality|fails|not_applicable)"
                   r"(?:  lhs=(\S+)  rhs=(\S+))?")


def report_rows(out: str, fmt: str) -> list[Row]:
    if fmt == "json":
        doc = json.loads(out)
        return _rows_from_reports(
            (_str_params(r["params"]), r["lhs"], r["rhs"], r["verdict"],
             [(_str_params(c["params"]), c["lhs"], c["rhs"], c["verdict"]) for c in r["cases"]])
            for r in doc["reports"])
    lines = out.splitlines()
    if fmt == "csv":
        expect(lines[0] == "claim_id,params,lhs,rhs,verdict,witness", "csv header")
        rows = []
        for line in lines[1:]:
            # Fields are not quoted and descriptions such as A[2,6] hold commas,
            # so locate the verdict from the right; lhs and rhs precede it.
            f = line.split(",")
            i = max(j for j, x in enumerate(f) if x in VERDICTS)
            params = dict(kv.split("=", 1) for kv in ",".join(f[1:i - 2]).split(";"))
            rows.append(Row(params, exact(f[i - 2]), exact(f[i - 1]), f[i]))
        return rows
    reports = []
    for line in lines:
        if m := _HEADER.match(line):
            reports.append([_str_params(ast.literal_eval(m[3])), None, None, m[1].lower(), []])
        elif m := _CASE.match(line):
            reports[-1][4].append((_str_params(ast.literal_eval(m[1])), m[3], m[4], m[2]))
        elif m := _REPORT_VALUES.match(line):
            reports[-1][1], reports[-1][2] = m[1], m[2]
    return _rows_from_reports(reports)


def by_order(rows: list[Row]) -> dict[int, list[Row]]:
    out = defaultdict(list)
    for r in rows:
        out[int(r.params["n"])].append(r)
    return out


# ---------------------------------------------------------------------------
# Checks shared by several commands
# ---------------------------------------------------------------------------


def _noncyclic(spectra, n: int) -> list[int]:
    return sorted(p for p, cyclic in spectra[n] if not cyclic)


def check_max_cyclic(rows: list[Row], spectra, orders) -> None:
    groups = by_order(rows)
    expect(sorted(groups) == list(orders), "max_cyclic: wrong set of orders")
    for n, rs in groups.items():
        expect(sorted(int(r.lhs) for r in rs if r.lhs is not None) == _noncyclic(spectra, n),
               f"max_cyclic n={n}: psi values differ from the walked catalog")
        expect(all(r.rhs == o.psi_cyclic(n) and r.verdict == "holds" for r in rs),
               f"max_cyclic n={n}: wrong bound or verdict")


def check_equality(rows: list[Row], spectra, nmax: int) -> None:
    groups = by_order(rows)
    expect(sorted(groups) == list(range(2, nmax + 1)), "equality: wrong set of orders")
    for n, rs in groups.items():
        target = o.f_ratio(o.least_prime(n)) * o.psi_cyclic(n)
        expect(all(r.rhs == target and r.verdict in ("holds", "equality") for r in rs),
               f"equality n={n}: wrong target or verdict")
        expect(sorted(int(r.lhs) for r in rs if r.lhs is not None) == _noncyclic(spectra, n),
               f"equality n={n}: psi values differ from the walked catalog")
        equal = [r for r in rs if r.verdict == "equality"]
        expect(len(equal) == (n in o.equality_orders(nmax)) and
               all(r.lhs == target for r in equal),
               f"equality n={n}: witnesses differ from the classification")


def check_lemma7(rows: list[Row], spectra, nmax: int) -> None:
    groups = by_order(rows)
    expect(sorted(groups) == list(range(2, nmax + 1)), "lemma7: wrong set of orders")
    for n, rs in groups.items():
        values = sorted({p for p, _ in spectra[n]}, reverse=True)
        if len(values) < 2:
            expect(all(r.verdict == "not_applicable" for r in rs), f"lemma7 n={n}: verdict")
            continue
        expect(all(int(r.params["second_psi"]) == values[1] for r in rs),
               f"lemma7 n={n}: second psi is not {values[1]}")
        for r in rs:
            if r.verdict == "not_applicable":
                continue
            m, k, a = (int(r.params[x]) for x in "mka")
            index = k // o.action_kernel(m, k, a)
            expect(r.verdict == "holds" and r.lhs == index and o.is_prime(index),
                   f"lemma7 n={n}: action index of SD({m},{k},{a})")


def expected_spectrum(values) -> list[tuple[int, int]]:
    return sorted(Counter(values).items(), reverse=True)


def spectrum_entries(out: str, fmt: str) -> list[tuple[int, int]]:
    if fmt == "json":
        return [(e["psi"], e["count"]) for e in json.loads(out)["entries"]]
    if fmt == "csv":
        lines = out.splitlines()
        expect(lines[0] == "psi,count,witnesses", "csv header")
        return [tuple(int(x) for x in line.split(",")[:2]) for line in lines[1:]]
    return [(int(m[1]), int(m[2])) for m in re.finditer(r"^psi=(\d+)  classes=(\d+)", out, re.M)]


# ---------------------------------------------------------------------------
# enumerate: compute and write every catalog 2..16, then read them back
# ---------------------------------------------------------------------------


def enumerate_ops(ctx: Context) -> tuple[list[Op], list[Op]]:
    base = ["--cache-dir", str(ctx.fresh), "--enum-bound", "16", "--acknowledge-slow",
            "--format", "json"]

    def spectra():
        expect(ctx.round_spectra is not None, "catalogs of this round were not written")
        return ctx.round_spectra

    def max_cyclic(out):
        ctx.round_spectra = walk_catalogs(ctx.fresh, 16)
        check_max_cyclic(report_rows(out, "json"), ctx.round_spectra, range(2, 17))

    def spectrum(out):
        entries = spectrum_entries(out, "json")
        expect(entries[0] == (o.psi_cyclic(16), 1) and entries[0][0] == 171, "top of spectrum 16")
        expect(entries == expected_spectrum(p for p, _ in spectra()[16]), "spectrum 16")

    first = [Op(base + ["verify", "max_cyclic", "--nmax", "16"], max_cyclic)]
    rest = [
        Op(base + ["verify", "equality", "--nmax", "16"],
           lambda out: check_equality(report_rows(out, "json"), spectra(), 16)),
        Op(base + ["verify", "lemma7", "--nmax", "16"],
           lambda out: check_lemma7(report_rows(out, "json"), spectra(), 16)),
        Op(base + ["spectrum", "16"], spectrum),
    ]
    return first, rest


# ---------------------------------------------------------------------------
# family_scan: generated groups up to order 1500, no enumeration
# ---------------------------------------------------------------------------


def _lemma5(out):
    rows = report_rows(out, "json")
    triples = o.sylow_semidirect_triples(200)
    params = rows[0].params
    expect(int(params["groups_checked"]) == len(triples), "lemma5 groups_checked")
    expect(int(params["equalities"]) == sum(a == 1 for _, _, a in triples), "lemma5 equalities")
    expect(len(rows) == 1, "lemma5: violations reported")
    m, k, a = (int(params[x]) for x in "mka")
    expect((m, k, a) in triples and a != 1 and rows[0].verdict == "holds", "lemma5 tightest case")
    expect(rows[0].lhs == o.psi_semidirect(m, k, a), f"lemma5 psi of SD({m},{k},{a})")
    expect(rows[0].rhs == o.psi_cyclic(m) * o.psi_cyclic(k), "lemma5 bound")


def _lemma6(out):
    rows = report_rows(out, "json")
    triples = [t for t in o.sylow_semidirect_triples(200) if t[1] > 1 and t[2] != 1]
    params = rows[0].params
    expect(int(params["groups_checked"]) == len(triples), "lemma6 groups_checked")
    expect(len(rows) == 1, "lemma6: violations reported")
    m, k, a = (int(params[x]) for x in "mka")
    expect((m, k, a) in triples and rows[0].verdict == "holds", "lemma6 tightest case")
    expect(int(params["kernel"]) == o.action_kernel(m, k, a), "lemma6 kernel")
    expect(rows[0].lhs == o.psi_semidirect(m, k, a), f"lemma6 psi of SD({m},{k},{a})")
    expect(rows[0].rhs == o.lemma6_bound(m, k, a), "lemma6 bound")


def _thm4(q: int, kmax: int):
    def check(out):
        rows = report_rows(out, "json")
        expect(sorted(int(r.params["k"]) for r in rows) == list(range(1, kmax + 1)), "thm4 k range")
        for r in rows:
            k = int(r.params["k"])
            small = None if k == 1 else o.least_prime(k)
            equal = small is None or small > q
            qstar = q if equal else min(q, small)
            expect(r.lhs == o.psi_abelian([q, q, k]), f"thm4 psi of C{q}xC{q}xC{k}")
            expect(r.rhs == o.f_ratio(qstar) * o.psi_cyclic(q * q * k), f"thm4 bound k={k}")
            expect((r.verdict == "equality") == equal, f"thm4 verdict k={k}")
    return check


def _mqr(out):
    rows = report_rows(out, "json")
    pairs = defaultdict(list)
    for r in rows:
        pairs[int(r.params["q"]), int(r.params["r"])].append(r)
    expect(set(pairs) == MQR_STOCK, "mqr: wrong (q, r) pairs")
    for (q, r), (modular, abelian, bound) in pairs.items():
        closed = Fraction(q ** (2 * r) + q**3 - q * q + 1, q + 1)
        expect(modular.params["group"] == f"M({q},{r})" and modular.verdict == "equality" and
               modular.lhs == o.psi_semidirect(q ** (r - 1), q, q ** (r - 2) + 1) == closed,
               f"mqr q={q} r={r}: psi of the modular group")
        expect(abelian.params["group"] == f"A[{q},{q ** (r - 1)}]" and
               abelian.verdict == "equality" and
               abelian.lhs == o.psi_abelian([q, q ** (r - 1)]) == closed,
               f"mqr q={q} r={r}: psi of the abelian group")
        expect(bound.lhs == closed and bound.rhs == o.f_ratio(q) * o.psi_cyclic(q**r) and
               bound.verdict == "holds", f"mqr q={q} r={r}: bound")


def _audit(out):
    rows = [r for r in report_rows(out, "json") if r.params["item"] == "c"]
    expect({int(r.params["q"]) for r in rows} >= {2, 3}, "audit: item (c) rows")
    for r in rows:
        q = int(r.params["q"])
        cross = (int(r.params["cross_lhs"]), int(r.params["cross_rhs"]))
        expect(cross == o.audit_cross(q), f"audit (c) q={q}: cross-multiplied values")
        expect(r.verdict == ("holds" if cross[0] < cross[1] else "fails"), f"audit (c) q={q}")
    expect(o.audit_cross(2) == (341, 336) and o.audit_cross(3) == (4087, 4375), "audit oracle")


def family_scan_ops(ctx: Context) -> tuple[list[Op], list[Op]]:
    j = ["--format", "json"]
    return [], [
        Op(j + ["verify", "lemma5", "--mkmax", "200"], _lemma5),
        Op(j + ["verify", "lemma6", "--mkmax", "200"], _lemma6),
        Op(j + ["verify", "thm4", "--q", "2", "--kmax", "60"], _thm4(2, 60)),
        Op(j + ["verify", "thm4", "--q", "5", "--kmax", "60"], _thm4(5, 60)),
        Op(j + ["verify", "mqr"], _mqr),
        Op(j + ["audit"], _audit),
    ]


# ---------------------------------------------------------------------------
# interactive: short commands on a warm cache, in every output format
# ---------------------------------------------------------------------------


def _psi(fmt: str, spec: str, n: int, value: int):
    def check(out):
        if fmt == "json":
            doc = json.loads(out)
            expect((doc["order"], doc["psi"]) == (n, value), f"psi {spec} ({fmt})")
        elif fmt == "csv":
            expect(out == f"spec,order,psi\n{spec},{n},{value}\n", f"psi {spec} ({fmt})")
        else:
            expect(out == f"{value}\n", f"psi {spec} ({fmt})")
    return check


def _catalog12(fmt: str):
    def check(out):
        lines = out.splitlines()
        if fmt == "json":
            classes = json.loads(out)["classes"]
            for cls in classes:
                expect(o.is_group_table(cls["table"]) and
                       sum(o.table_orders(cls["table"])) == cls["psi"], "catalog 12 table psi")
            psis = [cls["psi"] for cls in classes]
        elif fmt == "csv":
            expect(lines[0] == "index,psi,order_profile,description", "csv header")
            psis = [int(line.split(",")[1]) for line in lines[1:]]
        else:
            expect(lines[0] == "5 isomorphism classes of order 12", "catalog 12 header")
            psis = [int(re.search(r"psi=(\d+)", line)[1]) for line in lines[1:]]
        expect(sorted(psis) == o.known_spectrum(12), f"catalog 12 ({fmt})")
    return check


def interactive_ops(ctx: Context) -> tuple[list[Op], list[Op]]:
    ops = []
    for fmt in FORMATS:
        base = ["--cache-dir", str(ctx.warm), "--format", fmt]

        def rows_check(check, *args, fmt=fmt):
            return lambda out: check(report_rows(out, fmt), ctx.warm_spectra, *args)

        def upper_bound(out, fmt=fmt):
            rows = report_rows(out, fmt)
            expect(len(rows) == 1 and rows[0].verdict == "equality", "upper_bound verdict")
            expect(rows[0].lhs == o.psi_abelian([2, 2, 3]) == 49, "upper_bound psi")
            expect(rows[0].rhs == o.f_ratio(2) * o.psi_cyclic(12), "upper_bound bound")

        def spectrum12(out, fmt=fmt):
            expect(spectrum_entries(out, fmt) == expected_spectrum(o.known_spectrum(12)),
                   f"spectrum 12 ({fmt})")

        ops += [
            Op(base + ["psi", "Q8"], _psi(fmt, "Q8", 8, o.psi_quaternion(8))),
            Op(base + ["psi", "C2048"], _psi(fmt, "C2048", 2048, o.psi_cyclic(2048))),
            Op(base + ["psi", "Q2048"], _psi(fmt, "Q2048", 2048, o.psi_quaternion(2048))),
            Op(base + ["catalog", "12"], _catalog12(fmt)),
            Op(base + ["spectrum", "12"], spectrum12),
            Op(base + ["verify", "equality", "--nmax", "12"], rows_check(check_equality, 12)),
            Op(base + ["verify", "lemma7", "--nmax", "12"], rows_check(check_lemma7, 12)),
            Op(base + ["verify", "upper_bound", "--spec", "C2xC2xC3", "--q", "2"], upper_bound),
        ]
    # Kept failing: the program trusts a cache file it should validate.
    for cache in (ctx.tampered, ctx.missing):
        ops.append(Op(["--cache-dir", str(cache), "--format", "json", "verify", "max_cyclic",
                       "--n", "8"],
                      lambda out: check_max_cyclic(report_rows(out, "json"), ctx.warm_spectra, [8])))
    return [], ops


WORKLOADS = {
    "enumerate": enumerate_ops,
    "family_scan": family_scan_ops,
    "interactive": interactive_ops,
}
