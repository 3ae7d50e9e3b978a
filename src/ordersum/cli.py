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
without.  Those three claims check every order of their range before any
search, then search the orders not yet cached on all allowed CPUs, largest
first, with no option (``enumeration.search_ahead``).  The groups build
every generated group of order at most HARD_CAP, and every ``table:``
file, as pure-Python rows, checked in full, and one generated group of
order up to TABLE_BUDGET as a law on lists, by the list rules of
``tables``, so ``psi Q8``, ``psi C2048``, ``psi table:FILE``,
``upper_bound``, ``mqr``, ``equality --family-only`` and the scans on
small groups (``thm4 --q 2 --kmax 4``) load no numpy.  Numpy is loaded
where a group above TABLE_BUDGET, a ``perm:`` closure or a scan's groups
above HARD_CAP are built as a law: ``psi C4096``, and ``lemma5``,
``lemma6`` and ``thm4`` at their usual ranges.  The scans walk their
groups on all allowed CPUs too, largest first, with no option
(``groups.build_groups``), on the same worker pool as the search
(``pool.run``).  On any number of CPUs, a failed search or walk exits 2
with the error of the first failing order or group in the command's own
order, the one a run on one CPU gives.  A range that reaches past its
budget is refused before anything is built: ``thm4`` and
``lemma5``/``lemma6`` past the element budget of a group law, and
``equality --family-only`` past an ``--nmax`` of TABLE_BUDGET.

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

A process runs ``entry``: the ``ordersum`` console script and ``python -m
ordersum.cli`` alike.  It turns the cyclic collector off, runs ``main`` and,
however main ends, freezes every object then alive.  No collection set off
by a command's imports, and not the one the interpreter runs as it
finalizes, then walks every object the process has loaded, which took about
a tenth of a short command's time.  The package's hot paths make no
reference cycle, so memory stays bounded without the collector.  Exit
handlers still run and stdout is still flushed, and forked workers inherit
the setting.  ``main(argv)`` itself never touches the collector: called
in-process, by the tests or the benchmark's traced run, it leaves the
caller's collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
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


def _at_least(args, flag: str, least: int, what: str) -> int:
    """The value of --flag, a usage error below least, which leaves what."""
    value = getattr(args, flag)
    if value < least:
        raise ValueError(f"--{flag} {value} leaves {what}: it must be at least {least}")
    return value


def _orders_in_play(args) -> list[int] | range:
    if args.n is None and args.nmax is None:
        raise ValueError("this claim needs --n or --nmax")
    if args.n is not None and args.nmax is not None:
        raise ValueError("--n and --nmax cannot be given together")
    if args.n is not None:
        return [args.n]
    return range(2, _at_least(args, "nmax", 2, "no order to check") + 1)


def _catalog_reports(args, checker: str, check=lambda n: None, **kwargs) -> list:
    """The report of the theorems checker for each order in play, once
    check(n) has passed on all.

    Every usage error comes before any search: the orders are checked in
    turn, and the first over the bound stops a huge --nmax.  Then the
    catalogs not yet cached are all searched at once, on every CPU
    (``enumeration.search_ahead``), and each report reads its own.
    """
    from . import enumeration

    orders = []
    for n in _orders_in_play(args):
        check(n)
        enumeration._check_bound(n, args.enum_bound)
        orders.append(n)
    try:
        enumeration.search_ahead(orders, args.cache_dir)
        return [getattr(_theorems(), checker)(
            n, bound=args.enum_bound, cache_dir=args.cache_dir, **kwargs) for n in orders]
    finally:
        enumeration._searched.clear()


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
    return [_theorems().thm4_family_check(args.q, _at_least(args, "kmax", 1, "no k to check"))]


def _equality(args) -> list:
    if args.family_only:
        # One family report per order, each witness walked on list laws up to
        # TABLE_BUDGET: --nmax 1000 took 2.4 s, 2000 took 10.2 s and 8000
        # took 28.4 s (2-vCPU Xeon), so a range stops at that budget.
        from .groups import TABLE_BUDGET

        orders = _orders_in_play(args)
        if args.nmax is not None and args.nmax > TABLE_BUDGET:
            raise ValueError(f"--nmax {args.nmax} exceeds {TABLE_BUDGET}, the largest "
                             "--family-only range")
        return [_theorems().verify_equality_classification(n, args.q, family_only=True)
                for n in orders]

    def check(n):
        if n > args.enum_bound:  # theorems names the keyword
            raise ValueError(f"order {n} exceeds the enumeration bound {args.enum_bound}; "
                             "pass --family-only for a family-restricted check")
        _theorems().equality_prime(n, args.q)

    return _catalog_reports(args, "verify_equality_classification", check, q=args.q)


def _mqr(args) -> list:
    if (args.q is None) != (args.r is None):
        raise ValueError("mqr needs both --q and --r, or neither")
    pairs = MQR_STOCK if args.q is None else ((args.q, args.r),)
    return [_theorems().mqr_formula_check(q, r) for q, r in pairs]


# Claim id -> the claim's reports for the parsed arguments.
CLAIMS = {
    "max_cyclic": lambda args: _catalog_reports(args, "verify_max_cyclic"),
    "upper_bound": _upper_bound,
    "equality": _equality,
    "thm4": _thm4,
    "mqr": _mqr,
    "lemma5": lambda args: [_theorems().lemma5_check(
        _at_least(args, "mkmax", 2, "no (m, k) to check"))],
    # SD(3,2,2), at mk = 6, is the first non-central action.
    "lemma6": lambda args: [_theorems().lemma6_check(
        _at_least(args, "mkmax", 6, "no (m, k) to check"))],
    "lemma7": lambda args: _catalog_reports(args, "lemma7_check"),
}


def _run_verify(args) -> int:
    return _emit_reports(args, CLAIMS[args.claim](args), "verify", {"claim": args.claim})


def _run_audit(args) -> int:
    # Item (a) needs primes q >= 3 and p >= q + 2; items (b) and (e) need s >= 1.
    ranges = [_at_least(args, "qmax", 3, "item (a) with no instance"),
              _at_least(args, "pmax", 5, "item (a) with no instance"),
              _at_least(args, "smax", 1, "items (b) and (e) with no instance")]
    report = _theorems().proof_inequality_audit(*ranges)
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


def entry() -> None:
    """The ``ordersum`` process: main() with the cyclic collector off, and
    every object alive at its end frozen, on every path, a usage error's
    SystemExit and a crash too (see the module docstring)."""
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
