"""Command-line front end.

Subcommands: psi, spectrum, catalog, verify, audit.  Exit status is 0 when
everything checked holds, 1 when some claim fails (reports are still
emitted), and 2 for usage or environment errors.  JSON output is stable
ordered and exact: rationals appear as "num/den" strings and the document
carries a top-level schema version.

Importing this module loads no layer of the package.  Each command imports
the layers it runs when it runs: ``psi`` the groups, ``catalog`` and
``spectrum`` the enumerator, ``verify`` and ``audit`` the theorems (which
load the groups and the enumerator only where a claim needs them).  The
enumerator checks, walks and names catalog classes on pure-Python tables,
so ``catalog``, ``spectrum`` and ``verify max_cyclic``/``equality``/
``lemma7`` load neither the groups nor numpy, with a cached catalog or
without.  The groups build every generated group of order at most
HARD_CAP, and every ``table:`` file, as pure-Python rows, checked in full,
and one generated group of order up to TABLE_BUDGET as a law on lists, by
the list rules of ``tables``, so ``psi Q8``, ``psi C2048``, ``psi
table:FILE``, ``upper_bound``, ``mqr``, ``equality --family-only`` and
the scans on small groups (``thm4 --q 2 --kmax 4``) load no numpy.  Numpy
is loaded where a group above TABLE_BUDGET, a ``perm:`` closure or a
scan's groups above HARD_CAP are built as a law: ``psi C4096``, and
``lemma5``, ``lemma6`` and ``thm4`` at their usual ranges.

Of the standard library, no command imports ``dataclasses`` (which
brings ``inspect``, ``ast`` and ``dis``): the group specs are ``__slots__``
classes and the value records named tuples.  ``traceback`` is imported only
when a command crashes, and ``fractions`` (with ``decimal``) only by
``theorems`` and ``arith.f_ratio``, so ``psi``, ``catalog`` and
``spectrum`` load neither.  Where no bytecode cache is kept (a read-only
install, or ``PYTHONDONTWRITEBYTECODE`` set), every process compiles each
of the package's modules it imports from source, and runs every module it
imports, so the number and size of the modules a command loads are part of
its start-up time.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import DEFAULT_BOUND, HARD_CAP

SCHEMA = 1

MQR_STOCK = ((2, 4), (2, 5), (3, 3), (3, 4), (5, 3))


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags live on the main parser (with real defaults) and on each
    # subparser (defaulting to SUPPRESS), so they are accepted on either side
    # of the subcommand without a subparser default clobbering a given value.
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--format", choices=("table", "json", "csv"),
        default=d if suppress else "table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--cache-dir", default=d, help="directory for catalog persistence"
    )
    parser.add_argument(
        "--enum-bound", type=int, default=d if suppress else DEFAULT_BOUND,
        help=f"enumeration bound (default {DEFAULT_BOUND}, hard cap {HARD_CAP})",
    )
    parser.add_argument(
        "--acknowledge-slow", action="store_true",
        default=d if suppress else False,
        help="required to raise --enum-bound above the default",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordersum",
        description="Exact computation and verification for sums of element orders.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_global_flags(p, suppress=True)
        return p

    p = add_command("psi", "sum of element orders of one group")
    p.add_argument("spec", help="group spec, e.g. C12, Q8, SD(5,4,2), C2xC2xC3, table:FILE")

    p = add_command("spectrum", "distinct psi values of all order-n groups")
    p.add_argument("n", type=int)

    p = add_command("catalog", "all isomorphism classes of order n")
    p.add_argument("n", type=int)

    p = add_command("verify", "run one verification claim")
    p.add_argument("claim", choices=CLAIMS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--mkmax", type=int, default=200)
    p.add_argument("--spec", default=None, help="group spec (for upper_bound)")
    p.add_argument(
        "--family-only", action="store_true",
        help="restrict the equality claim to the construction family",
    )

    p = add_command("audit", "audit the proof-level numeric inequalities")
    p.add_argument("--qmax", type=int, default=97)
    p.add_argument("--pmax", type=int, default=199)
    p.add_argument("--smax", type=int, default=6)

    return parser


def _emit(args, command: str, render: dict) -> None:
    """Write one command's result in the --format asked for.

    ``render`` maps each format to a function building that output, so only
    the requested one is rendered; the json function returns the document
    body that follows the schema and command keys.
    """
    out = render[args.format]()
    if args.format == "json":
        out = json.dumps({"schema": SCHEMA, "command": command, **out}, indent=2) + "\n"
    sys.stdout.write(out)


def _emit_reports(args, reports, command: str, extra: dict) -> int:
    from . import theorems

    ok = all(r.ok for r in reports)
    _emit(args, command, {
        "json": lambda: {**extra, "ok": ok,
                         "reports": [theorems.report_to_dict(r) for r in reports]},
        "csv": lambda: theorems.reports_to_csv(reports),
        "table": lambda: theorems.reports_to_text(reports),
    })
    return 0 if ok else 1


def _orders_in_play(args) -> list[int] | range:
    if args.n is None and args.nmax is None:
        raise ValueError("this claim needs --n or --nmax")
    if args.n is not None:
        return [args.n]
    if args.nmax < 2:
        raise ValueError(f"--nmax {args.nmax} leaves no order to check: it must be at least 2")
    return range(2, args.nmax + 1)  # lazy: the bound check stops a huge --nmax


def _mk_max(args, least: int = 2) -> int:
    if args.mkmax < least:
        raise ValueError(
            f"--mkmax {args.mkmax} leaves no (m, k) to check: it must be at least {least}")
    return args.mkmax


def _run_psi(args) -> int:
    from .groups import build_group, parse_spec

    g = build_group(parse_spec(args.spec))
    _emit(args, "psi", {
        "json": lambda: {"spec": args.spec, "order": g.order, "psi": g.psi()},
        "csv": lambda: f"spec,order,psi\n{args.spec},{g.order},{g.psi()}\n",
        "table": lambda: f"{g.psi()}\n",
    })
    return 0


def _run_spectrum(args) -> int:
    from .enumeration import psi_spectrum

    entries = psi_spectrum(args.n, bound=args.enum_bound, cache_dir=args.cache_dir)
    _emit(args, "spectrum", {
        "json": lambda: {"n": args.n, "entries": [
            {"psi": e.psi, "count": e.count, "witnesses": list(e.witnesses)}
            for e in entries]},
        "csv": lambda: "psi,count,witnesses\n" + "".join(
            f"{e.psi},{e.count},{'|'.join(e.witnesses)}\n" for e in entries),
        "table": lambda: "".join(
            f"psi={e.psi}  classes={e.count}  {', '.join(e.witnesses)}\n" for e in entries),
    })
    return 0


def _run_catalog(args) -> int:
    from .enumeration import catalog, class_to_dict

    classes = catalog(args.n, bound=args.enum_bound, cache_dir=args.cache_dir)
    profiles = [c.order_profile() for c in classes]
    _emit(args, "catalog", {
        "json": lambda: {"n": args.n, "classes": [class_to_dict(c) for c in classes]},
        "csv": lambda: "index,psi,order_profile,description\n" + "".join(
            f"{i},{c.psi},{';'.join(f'{d}:{k}' for d, k in p.items())},{c.description}\n"
            for i, (c, p) in enumerate(zip(classes, profiles))),
        "table": lambda: f"{len(classes)} isomorphism classes of order {args.n}\n" + "".join(
            f"  psi={c.psi:<6} profile={p}  {c.description}\n"
            for c, p in zip(classes, profiles)),
    })
    return 0


def _theorems():
    """The theorems module, imported on first use.  Callers look a checker up
    on it at each call, so a checker patched there (as benchmark tracing
    does) is the one that runs.
    """
    from . import theorems

    return theorems


def _upper_bound(args) -> list:
    if args.spec is None or args.q is None:
        raise ValueError("upper_bound needs --spec and --q")
    from .groups import build_group, parse_spec

    return [_theorems().verify_upper_bound(build_group(parse_spec(args.spec)), args.q)]


def _thm4(args) -> list:
    if args.q is None or args.kmax is None:
        raise ValueError("thm4 needs --q and --kmax")
    if args.kmax < 1:
        raise ValueError(f"--kmax {args.kmax} leaves no k to check: it must be at least 1")
    return [_theorems().thm4_family_check(args.q, args.kmax)]


def _equality(args) -> list:
    reports = []
    for n in _orders_in_play(args):
        if n > args.enum_bound and not args.family_only:  # theorems names the keyword
            raise ValueError(f"order {n} exceeds the enumeration bound {args.enum_bound}; "
                             "pass --family-only for a family-restricted check")
        reports.append(_theorems().verify_equality_classification(
            n, args.q, bound=args.enum_bound, cache_dir=args.cache_dir,
            family_only=args.family_only))
    return reports


def _mqr(args) -> list:
    if (args.q is None) != (args.r is None):
        raise ValueError("mqr needs both --q and --r, or neither")
    pairs = MQR_STOCK if args.q is None else ((args.q, args.r),)
    return [_theorems().mqr_formula_check(q, r) for q, r in pairs]


# Claim id -> the claim's reports for the parsed arguments.
CLAIMS = {
    "max_cyclic": lambda args: [
        _theorems().verify_max_cyclic(n, bound=args.enum_bound, cache_dir=args.cache_dir)
        for n in _orders_in_play(args)],
    "upper_bound": _upper_bound,
    "equality": _equality,
    "thm4": _thm4,
    "mqr": _mqr,
    "lemma5": lambda args: [_theorems().lemma5_check(_mk_max(args))],
    # SD(3,2,2), at mk = 6, is the first non-central action.
    "lemma6": lambda args: [_theorems().lemma6_check(_mk_max(args, 6))],
    "lemma7": lambda args: [
        _theorems().lemma7_check(n, bound=args.enum_bound, cache_dir=args.cache_dir)
        for n in _orders_in_play(args)],
}


def _run_verify(args) -> int:
    return _emit_reports(args, CLAIMS[args.claim](args), "verify", {"claim": args.claim})


def _run_audit(args) -> int:
    report = _theorems().proof_inequality_audit(args.qmax, args.pmax, args.smax)
    return _emit_reports(args, [report], "audit", {})


COMMANDS = {
    "psi": _run_psi,
    "spectrum": _run_spectrum,
    "catalog": _run_catalog,
    "verify": _run_verify,
    "audit": _run_audit,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.enum_bound > DEFAULT_BOUND and not args.acknowledge_slow:
        parser.error(
            f"--enum-bound {args.enum_bound} exceeds the default {DEFAULT_BOUND}; "
            "pass --acknowledge-slow to confirm"
        )
    if args.enum_bound > HARD_CAP:
        parser.error(f"--enum-bound {args.enum_bound} exceeds the hard cap {HARD_CAP}")
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # bad specs, tables, bounds and files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is never a failed claim (exit 1)
        import traceback

        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
