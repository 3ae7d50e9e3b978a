"""Exhaustive enumeration of groups of a small order, up to isomorphism.

The enumerator is an independent oracle: it imports no group catalog.  It
performs orderly generation over Cayley tables with the identity pinned at
index 0, using five ingredients:

* a fixed "shell" ordering of the interior table cells: for t = 1, 2, ...
  the cells (t,1),(1,t),(t,2),(2,t),...,(t,t).  A table is flattened to the
  sequence of its values along this ordering, and tables are compared
  lexicographically on those flattenings.  ``shell_cells`` is the one
  definition of the order: ``flatten``, the labeling scan and the search all
  walk its cells by position;

* breadth-first (BFS) labelings: a labeling of a group is determined by an
  ordered choice of generators.  Starting from the identity (label 0), the
  shell cells are scanned in order and every product that has no label yet
  receives the next free one; when the labeled set closes into a proper
  subgroup, the next generator gets the next label.  The canonical form of
  a table is the lexicographically least flattening over all BFS labelings,
  which is a complete isomorphism invariant;

* automorphism pruning of that scan, as in nauty/Traces (McKay & Piperno,
  "Practical graph isomorphism II", 2014): two complete labelings with equal
  flattenings differ by an automorphism, which the scan records.  Before
  choosing the next generator it merges the unlabeled elements into orbits
  under the recorded automorphisms that fix every generator chosen so far
  (none until one does), and tries one candidate per orbit, since an
  automorphism maps the subtree of one candidate onto that of another with
  equal flattenings.  The least flattening, and so the canonical form, is
  the same as without pruning.  Each run resumes where its parent stalled.
  A test against a target class gives labels only to elements of the
  target's color there; ``_is_canonical`` and ``canonical_form`` look for
  labelings below a table, which need not keep colors, so stay uncolored;

* a backtracking search that builds tables directly in BFS-labeled form,
  propagating associativity constraints after every cell assignment and
  pruning any branch whose closed partial subgroup is not itself canonical
  (a prefix of a canonical table is always canonical).  Surviving leaves
  are exactly the canonical tables, one per isomorphism class;

* pruning by partial canonicity, as in orderly generation (Read; Faradzev;
  McKay, "Isomorph-free exhaustive generation", 1998): between closures,
  BFS labelings that keep the last closed subgroup, relabeled by one of its
  recorded automorphisms, and take another next generator are run through
  the cells the partial table already determines.  Such a run is a prefix
  of a labeling of every completion, so when it flattens strictly below
  the table no completion is canonical and the branch dies.  The check at
  each closure still decides, so the search returns the same tables.

A catalog class is its canonical table as a tuple of tuples, checked and
walked in pure Python (``tables._checked_class``): the tables are at most
``HARD_CAP`` square, and the search and the scan already read them as
lists.  The classes are named by matching them against the tables of the
construction families, ``tables._rows``: the list rules of ``tables``, which
``groups`` walks its list laws by too, applied to the grid of all pairs,
so they give the same tables as the laws of ``groups``; ``isomorphic_to_canonical``
is the one test of whether a table is a given class.  ``_classes`` is the
one rule for a complete catalog, searched or cached, and a cache file must
also be the file ``_save_catalog`` writes, its names compared last.  This
module does not import ``groups``: every function, ``canonical_form`` too,
takes tables as rows and returns them as tuples of tuples, so no catalog,
computed or read from a cache file, loads numpy.

The search itself is the module ``search``, which ``_search_groups``
imports when it is called, so a command that reads every catalog from its
cache file compiles none of it.  Each order's search is independent of
every other's.  ``search_ahead`` searches the orders whose catalog is not
cached on all the CPUs this process may run on, largest order first, with
no option to turn it off, on the package's one worker pool
(``pool.run``), which forks one worker less than there are CPUs (or
orders), runs jobs itself too, and reaps every worker before it returns.
``catalog`` then takes those tables in place of a search of its own.
"""

from __future__ import annotations

import json
import os
import warnings
from collections import namedtuple
from functools import lru_cache
from operator import eq
from pathlib import Path

from . import DEFAULT_BOUND, HARD_CAP, arith
from .tables import CatalogClass, _checked_class, _perm_table, _rows

GENERATOR_VERSION = 1

# The number of groups of order n up to isomorphism, for n = 0..48: OEIS
# A000001, the size of a complete catalog of order n (``_classes``).
A000001 = (0, 1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14, 1, 5, 1, 5, 2, 2, 1, 15,
           2, 2, 5, 4, 1, 4, 1, 51, 1, 2, 1, 14, 1, 2, 2, 14, 1, 6, 1, 4, 2, 2, 1, 52)


class EnumerationBoundError(ValueError):
    """Raised when an order exceeds the configured enumeration bound."""


@lru_cache(maxsize=None)
def shell_cells(n: int) -> tuple[tuple[int, int], ...]:
    """Interior cells (i, j >= 1) in the shell scan order."""
    cells: list[tuple[int, int]] = []
    for t in range(1, n):
        for s in range(1, t):
            cells.append((t, s))
            cells.append((s, t))
        cells.append((t, t))
    return tuple(cells)


def flatten(rows) -> tuple[int, ...]:
    """Flatten a complete table along the shell cell order."""
    return tuple(rows[i][j] for i, j in shell_cells(len(rows)))


def _find(root: list[int], x: int) -> int:
    """The root of x in a union-find forest, halving the path on the way."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


def _scan_labelings(rows, target: tuple | None = None, order: list | None = None,
                    colors: tuple | None = None):
    """Depth-first search over the BFS labelings of a complete table.

    Returns (best_flat, best_order, autos): the least flattening found, the
    labeling giving it (best_order lists the original element played by
    each new label) and the automorphisms recorded on the way.  Without a
    target the scan finds the least flattening.  With a target flattening
    it compares against it and stops at the first labeling that flattens
    strictly below it.  order is a labeling known to flatten to the target
    (``_is_canonical`` passes the table's own flattening and the identity);
    without one the scan also stops at the first labeling that flattens
    equal to the target, and best_order stays None when there is none.

    A run appends its generator to the run where its parent stalled (the
    labeled set closed) and continues from that cell.

    A completed labeling L that flattens equal to the best one is recorded
    as the automorphism best_order[i] -> L[i].  At each choice of the next
    generator, a candidate is skipped when the automorphisms found so far
    that fix every earlier generator map an explored candidate onto it: such
    an automorphism maps one subtree onto the other with equal flattenings.

    colors, with a target and no order, pairs a color of each element of
    rows with one of each label of the target, both kept by isomorphisms.
    A label goes only to an element of its color, so a labeling equal to
    the target is still found, and one below it may be missed.
    """
    n = len(rows)
    cells = shell_cells(n)
    ncells = len(cells)
    best_flat, best_order = target, order
    autos: list[list[int]] = []  # automorphisms found, as lists of images
    stopped = False
    color, tcolor = colors or (None, None)
    # The current run: L[label] is the element with that label, pos[x] the
    # label of x (-1 while unlabeled), gens its generators after the identity.
    L = [0]
    pos = [0] + [-1] * (n - 1)
    gens: list[int] = []

    def rec(p: int, below: bool) -> None:
        """Continue the run from cell p, its cells before p already compared
        with best_flat (below: they already flatten strictly below it)."""
        nonlocal best_flat, best_order, stopped
        flat = best_flat
        m = len(L)
        for p in range(p, ncells):
            i, j = cells[p]
            if i == m:
                break  # the shell m starts past the labeled set: a stall
            x = rows[L[i]][L[j]]
            lab = pos[x]
            if lab < 0:
                if color is not None and color[x] != tcolor[m]:
                    return
                lab = pos[x] = m
                L.append(x)
                m += 1
            if not below:
                c = flat[p]
                if lab > c:
                    return
                if lab < c:
                    below = True
        else:  # a complete labeling
            if below:  # a new best
                best_flat = tuple(pos[rows[L[i]][L[j]]] for i, j in cells)
                best_order = L[:]
                stopped = target is not None
            elif best_order is None:  # the first labeling equal to the target
                best_order = L[:]
                stopped = True
            else:
                auto = [0] * n
                for x, y in zip(best_order, L):
                    auto[x] = y
                autos.append(auto)
            return
        # Stall: orbits of the unlabeled elements under the automorphisms
        # found that fix every generator, kept as a union-find forest once
        # there is one; until then each candidate is its own orbit.
        root = None
        used = 0
        explored: list[int] = []
        for g in range(1, n):
            if pos[g] >= 0 or (color is not None and color[g] != tcolor[m]):
                continue
            for auto in autos[used:]:
                if all(auto[x] == x for x in gens):
                    if root is None:
                        root = list(range(n))
                    for x, y in enumerate(auto):
                        if x != y:
                            root[_find(root, x)] = _find(root, y)
            used = len(autos)
            if root is not None:
                r = _find(root, g)
                if any(_find(root, e) == r for e in explored):
                    continue
            explored.append(g)
            gens.append(g)
            pos[g] = m
            L.append(g)
            # A best found since this run stalled came from one of its own
            # children, so it shares the cells before p: they are not below.
            rec(p, below and best_flat is flat)
            for x in L[m:]:
                pos[x] = -1
            del L[m:]
            gens.pop()
            if stopped:
                return

    try:
        rec(0, target is None)
    finally:
        del rec  # its closure holds it: a cycle that only the collector would free
    return best_flat, best_order, autos


def _is_canonical(rows, autos: list | None = None) -> bool:
    """True when no BFS relabeling flattens strictly below the table itself.

    The automorphisms the scan records are appended to ``autos`` when it is
    given; for a canonical table each one lists the element that plays each
    label in a BFS labeling flattening equal to the table.
    """
    identity = list(range(len(rows)))
    _, best_order, found = _scan_labelings(rows, flatten(rows), identity)
    if autos is not None:
        autos.extend(found)
    return best_order == identity


def canonical_form(rows) -> tuple[tuple[int, ...], ...]:
    """The canonical table of the group whose table is rows: the rows pass
    ``_checked_class`` (ValueError when they are not a group's table) and are
    relabeled by their least flattening."""
    table = _checked_class(rows, len(rows)).table
    _, best_order, _ = _scan_labelings(table)
    posmap = {x: i for i, x in enumerate(best_order)}
    return tuple(tuple(posmap[table[x][y]] for y in best_order) for x in best_order)


def _colors(cls: CatalogClass) -> list[tuple[int, int, int]]:
    """Each element's order, centralizer size and number of square roots,
    which every isomorphism keeps."""
    table = cls.table
    roots = [0] * len(table)
    for x, row in enumerate(table):
        roots[row[x]] += 1
    return [(o, sum(map(eq, row, col)), r)
            for o, row, col, r in zip(cls.orders, table, zip(*table), roots)]


def isomorphic_to_canonical(g: CatalogClass, canon: CatalogClass) -> bool:
    """Whether the class ``g``, in any labeling, is the catalog class ``canon``.

    Classes whose element orders, or element colors (``_colors``), differ
    as multisets are not isomorphic.  Otherwise the colored BFS labelings
    of g are scanned against the flattening of canon's table: one equal to
    it is an isomorphism, and one below it shows that g is not isomorphic
    to canon, whose flattening is the least of its class.
    """
    if sorted(g.orders) != sorted(canon.orders):
        return False
    colors, tcolors = _colors(g), _colors(canon)
    if sorted(colors) != sorted(tcolors):
        return False
    target = flatten(canon.table)
    flat, order, _ = _scan_labelings(g.table, target, colors=(colors, tcolors))
    return order is not None and flat == target


# ---------------------------------------------------------------------------
# The orderly search, loaded where it runs, and the search ahead
# ---------------------------------------------------------------------------


def _search_groups(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All canonical group tables of order n, by the orderly search of ``search``."""
    from .search import search_groups

    return search_groups(n)


# Tables that search_ahead found, by order, each taken by catalog in place of
# a search of its own.  The checkers of `theorems` call catalog themselves,
# so the tables wait here; the command that searched ahead clears it.
_searched: dict[int, list] = {}


def search_ahead(orders, cache_dir: str | Path | None = None) -> None:
    """Search every order whose catalog is not cached, on all allowed CPUs.

    The orders whose cache file does not exist (every order, with no
    cache_dir) are searched by ``pool.run``, largest first; a failed search
    raises its own error, that of the first failing order in ``orders``, on
    any number of CPUs.  ``catalog`` then takes the tables from
    ``_searched`` in place of searching, and checks, names and saves them as
    ever.  The caller checks that every order is within the bound.
    """
    missing = [n for n in orders if cache_dir is None or not _cache_file(cache_dir, n).exists()]
    if not missing:
        return
    from . import pool, search  # noqa: F401  the search is compiled once, before the fork

    _searched.update(zip(missing, pool.run(missing, _search_groups, missing)))


# ---------------------------------------------------------------------------
# Catalog with persistence
# ---------------------------------------------------------------------------


def _check_bound(n: int, bound: int) -> None:
    if n < 1:
        raise EnumerationBoundError(f"order must be >= 1, got {n}")
    if bound > HARD_CAP:
        raise EnumerationBoundError(
            f"enumeration bound {bound} exceeds the hard cap {HARD_CAP}"
        )
    if n > bound:
        raise EnumerationBoundError(
            f"order {n} exceeds the enumeration bound {bound}"
        )


def _family_candidates(n: int):
    """Named construction-family tables of order n, most specific first, each
    built when it is read.

    Used to attach a readable description to each enumerated class; classes
    outside the families keep a generic profile-based description.
    """
    yield f"C{n}", _rows([("cyclic", n)])
    if n == 12:
        # The alternating group on 4 points; not a cyclic-by-cyclic product.
        yield "A4", _perm_table(((1, 2, 0, 3), (1, 0, 3, 2)))
    for chain in abelian_invariant_chains(n):
        if list(chain) != [n]:
            yield "A[" + ",".join(map(str, chain)) + "]", _rows([("cyclic", d) for d in chain])
    if n >= 8 and n & (n - 1) == 0:
        yield f"Q{n}", _rows([("metacyclic", n // 2, 2, n // 2 - 1, n // 4)])
    fac = arith.factorize(n)
    if len(fac) == 1:
        q, r = fac[0]
        if r >= 4 or (r == 3 and q > 2):
            yield f"M({q},{r})", _rows([("metacyclic", q ** (r - 1), q, q ** (r - 2) + 1)])
    if n % 2 == 0 and n >= 4:
        yield f"D{n}", _rows([("metacyclic", n // 2, 2, n // 2 - 1)])
    if n % 4 == 0 and n >= 8:
        h = n // 4
        # Dicyclic group of order 4h, realized as SD(h, 4, h-1) for odd h.
        if h % 2 == 1 and h > 1:
            yield f"Dic{h} = SD({h},4,{h - 1})", _rows([("metacyclic", h, 4, h - 1)])
    for m in range(2, n):
        if n % m:
            continue
        k = n // m
        for a in arith.semidirect_actions(m, k)[1:]:  # a = 1 is the direct product
            yield f"SD({m},{k},{a})", _rows([("metacyclic", m, k, a)])


def abelian_invariant_chains(n: int, d: int = 1) -> list[tuple[int, ...]]:
    """All invariant-factor chains d1 | d2 | ... with product n and every
    factor a multiple of d, sorted: (e, *rest), for each divisor e > 1 of n
    with d | e and each such chain rest of n/e over e."""
    if n == 1:
        return [()]
    return [(e, *rest) for e in arith.divisors(n) if e > 1 and e % d == 0
            for rest in abelian_invariant_chains(n // e, e)]


def _describe_classes(n: int, classes: list[CatalogClass]) -> list[CatalogClass]:
    """The classes, each named by the first family candidate isomorphic to
    it; every candidate table is checked as a class first."""
    descs: list[str | None] = [None] * len(classes)
    for desc, rows in _family_candidates(n):
        cand = _checked_class(rows, n)
        for idx, cls in enumerate(classes):
            if descs[idx] is None and isomorphic_to_canonical(cand, cls):
                descs[idx] = desc
                break
        if None not in descs:
            break
    return [cls._replace(description=desc or f"order-{n} class #{idx} with order "
                                          f"profile {cls.order_profile()}")
            for idx, (cls, desc) in enumerate(zip(classes, descs))]


def _classes(n: int, tables: list) -> list[CatalogClass]:
    """The classes of order n, not yet named, when tables, searched or
    cached, are a complete catalog: A000001[n] tables that pass
    ``_checked_class``, in strictly increasing flatten order, so none repeats
    (canonical ones are then every class).  Raises ValueError naming the
    first rule broken."""
    if len(tables) != A000001[n]:
        raise ValueError(f"it holds {len(tables)} classes, "
                         f"not the {A000001[n]} groups of order {n}")
    classes = [_checked_class(rows, n) for rows in tables]
    flats = [flatten(cls.table) for cls in classes]
    if any(a >= b for a, b in zip(flats, flats[1:])):
        raise ValueError("the tables are not in strictly increasing flatten order")
    return classes


def catalog(
    n: int, *, bound: int = DEFAULT_BOUND, cache_dir: str | Path | None = None
) -> list[CatalogClass]:
    """All isomorphism classes of order n with psi values and descriptions.

    With cache_dir set, results persist to ``catalog/n=<n>.json`` under it
    and are reloaded when the file is of this generator version and valid.
    """
    _check_bound(n, bound)
    path = None
    if cache_dir is not None:
        path = _cache_file(cache_dir, n)
        cached = _load_catalog(path, n)
        if cached is not None:
            return cached
    if n > DEFAULT_BOUND:
        warnings.warn(
            f"enumerating order {n} groups above the default bound "
            f"{DEFAULT_BOUND} may take a long time",
            RuntimeWarning,
            stacklevel=2,
        )
    tables = _searched.pop(n, None)
    if tables is None:
        tables = _search_groups(n)
    try:
        classes = _describe_classes(n, _classes(n, tables))
    except ValueError as exc:  # a faulty search, never a failed claim
        raise RuntimeError(f"the search's output of order {n} is faulty: {exc}") from None
    if path is not None:
        _save_catalog(path, n, classes)
    return classes


def _cache_file(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / "catalog" / f"n={n}.json"


def _load_catalog(path: Path, n: int) -> list[CatalogClass] | None:
    """The catalog cached at ``path``, or None when it has to be computed.

    Cache files are untrusted.  The stored tables must pass the rule the
    search's tables pass, ``_classes`` (A000001[n] group tables in strictly
    increasing flatten order), and be canonical, and the file must be, as
    JSON text with sorted keys, the one ``_save_catalog`` writes for those
    classes, names included.  The names are checked last: the file is
    compared with the stored names held fixed, and only a file that passes
    has its classes named and the names compared, so a wrong value is
    caught before any naming.  A file that fails is named in a warning,
    with the first rule broken or the first key that differs, and is a
    miss; so, with no warning, is a file of another generator version.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data["generator_version"] != GENERATOR_VERSION:
            return None
        entries = data["classes"]
        classes = _classes(n, [entry["table"] for entry in entries])
        if not all(_is_canonical(cls.table) for cls in classes):
            raise ValueError("a stored table is not canonical")
        stored = [cls._replace(description=entry.get("description"))
                  for cls, entry in zip(classes, entries)]
        if at := _differs_at(data, _document(n, stored)):
            raise ValueError(f"its {at} differs from the file catalog writes")
        classes = _describe_classes(n, classes)
        for i, (cls, kept) in enumerate(zip(classes, stored)):
            if cls.description != kept.description:
                raise ValueError(f"its ['classes'][{i}]['description'] differs "
                                 "from the file catalog writes")
        return classes
    except FileNotFoundError:
        return None
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        warnings.warn(
            f"ignoring invalid cache file {path} ({type(exc).__name__}: {exc}); recomputing",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _differs_at(got, want) -> str:
    """The keys and indices of the first value where the JSON value got
    differs from want as JSON text with sorted keys, where 1.0 and true
    differ from 1; empty when they are equal or differ as wholes."""
    if type(got) is type(want) is list:
        got, want = dict(enumerate(got)), dict(enumerate(want))
    if type(got) is type(want) is dict:
        for key in {**want, **got}:  # want's keys, then got's others
            if key not in got or key not in want or (
                    json.dumps(got[key], sort_keys=True) != json.dumps(want[key], sort_keys=True)):
                return f"[{key!r}]" + _differs_at(got.get(key), want.get(key))
    return ""


def class_to_dict(cls: CatalogClass) -> dict:
    """One class as cache files and ``catalog --format json`` hold it."""
    return {
        "table": [list(row) for row in cls.table],
        "psi": cls.psi,
        "order_profile": [[d, c] for d, c in cls.order_profile().items()],
        "description": cls.description,
    }


def _document(n: int, classes: list[CatalogClass]) -> dict:
    """The cache file of the catalog of order n, as JSON."""
    return {"schema": 1, "n": n, "generator_version": GENERATOR_VERSION,
            "classes": [class_to_dict(cls) for cls in classes]}


def _save_catalog(path: Path, n: int, classes: list[CatalogClass]) -> None:
    """Write the cache file atomically: a temporary file, then os.replace."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(_document(n, classes), fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


SpectrumEntry = namedtuple("SpectrumEntry", ("psi", "count", "witnesses"))


def psi_spectrum(
    n: int, *, bound: int = DEFAULT_BOUND, cache_dir: str | Path | None = None
) -> list[SpectrumEntry]:
    """Distinct psi values of order-n groups, descending, with witnesses."""
    classes = catalog(n, bound=bound, cache_dir=cache_dir)
    by_psi: dict[int, list[str]] = {}
    for cls in classes:
        by_psi.setdefault(cls.psi, []).append(cls.description)
    entries = [
        SpectrumEntry(psi=p, count=len(w), witnesses=tuple(sorted(w)))
        for p, w in sorted(by_psi.items(), reverse=True)
    ]
    # The top entry is always the cyclic group.
    assert entries[0].psi == arith.psi_cyclic(n)
    return entries
