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
also be the file ``_save_catalog`` writes.  This module does not import
``groups``: every function, ``canonical_form`` too, takes tables as rows and
returns them as tuples of tuples, so no catalog, computed or read from a
cache file, loads numpy.

Each order's search is independent of every other's.  ``search_ahead``
searches the orders whose catalog is not cached on all the CPUs this
process may run on, largest order first, with no option to turn it off,
on the package's one worker pool (``pool.run``), which forks one worker
less than there are CPUs (or orders), runs jobs itself too, and reaps
every worker before it returns.  ``catalog`` then takes those tables in
place of a search of its own.
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
# The orderly search itself
# ---------------------------------------------------------------------------


def _search_groups(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All canonical group tables of order n, via backtracking.

    Cells are assigned along the shell scan; after each assignment the four
    associativity constraint families with one undetermined cell are
    propagated to a fixpoint.  Whenever the labeled set closes into a
    subgroup its size must divide n (Lagrange) and its table must be
    canonical, otherwise the branch dies.

    Between closures the partial table is tested against relabelings that
    keep the last closed subgroup H = {0..h-1}: H is labeled by one of the
    automorphisms its canonicity scan recorded (or the identity), and label
    h goes to some label g' >= h other than the table's own choice.  Each
    such run is the BFS scan of _scan_labelings continued only through
    determined cells, so in every completion it is a prefix of a real BFS
    labeling; when it flattens strictly below the table the branch dies.
    A run is kept per node as (next cell position, labeling, positions);
    it resumes where a cell it needs was undetermined, and it is dropped
    once it goes above the table or its labeled set closes.
    """
    if n == 1:
        return [((0,),)]

    cells = shell_cells(n)
    ncells = len(cells)
    T = [[-1] * n for _ in range(n)]
    for i in range(n):
        T[i][0] = i
        T[0][i] = i
    full = (1 << n) - 1
    rowmask = [1 << i for i in range(n)]
    colmask = [1 << i for i in range(n)]
    rowmask[0] = colmask[0] = full
    preim: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    results: list[tuple[tuple[int, ...], ...]] = []
    k = 2  # labels in use: identity plus the first generator

    def force(a: int, b: int, v: int, trail, queue) -> bool:
        cur = T[a][b]
        if cur >= 0:
            return cur == v
        if (rowmask[a] >> v) & 1 or (colmask[b] >> v) & 1:
            return False
        T[a][b] = v
        rowmask[a] |= 1 << v
        colmask[b] |= 1 << v
        preim[v].append((a, b))
        trail.append((a, b, v))
        queue.append((a, b, v))
        return True

    def propagate(a0: int, b0: int, v0: int, trail) -> bool:
        queue = []
        if not force(a0, b0, v0, trail, queue):
            return False
        while queue:
            a, b, v = queue.pop()
            Ta, Tb, Tv = T[a], T[b], T[v]
            # (a, b, c):  (ab)c = a(bc)  ->  T[v][c] = T[a][T[b][c]]
            for c in range(1, k):
                w = Tb[c]
                if w >= 0:
                    u = Tv[c]
                    z = Ta[w]
                    if u >= 0:
                        if z != u and not force(a, w, u, trail, queue):
                            return False
                    elif z >= 0:
                        if not force(v, c, z, trail, queue):
                            return False
            # (c, a, b):  (ca)b = c(ab)  ->  T[T[c][a]][b] = T[c][v]
            for c in range(1, k):
                w = T[c][a]
                if w >= 0:
                    u = T[c][v]
                    z = T[w][b]
                    if u >= 0:
                        if z != u and not force(w, b, u, trail, queue):
                            return False
                    elif z >= 0:
                        if not force(c, v, z, trail, queue):
                            return False
            # (x, y, b) with xy = a:  T[a][b] = T[x][T[y][b]]
            for x, y in preim[a]:
                w = T[y][b]
                if w >= 0:
                    if T[x][w] != v and not force(x, w, v, trail, queue):
                        return False
            # (a, y, z) with yz = b:  T[a][b] = T[T[a][y]][z]
            for y, z in preim[b]:
                w = Ta[y]
                if w >= 0:
                    if T[w][z] != v and not force(w, z, v, trail, queue):
                        return False
        return True

    def undo(trail) -> None:
        for a, b, v in reversed(trail):
            T[a][b] = -1
            rowmask[a] &= ~(1 << v)
            colmask[b] &= ~(1 << v)
            preim[v].pop()

    def next_cell(p: int):
        # Shells 1..k-1, the cells among labels below k, are cells[:(k-1)**2].
        while p < (k - 1) ** 2:
            a, b = cells[p]
            if T[a][b] < 0:
                return p, a, b
            p += 1
        return p, -1, -1

    def start(alphas, g: int) -> list:
        """New runs: H labeled by each of alphas, then g as the next generator.

        Each run resumes at the first cell of shell h, the first that can
        differ from the table."""
        runs = []
        for L, pos in alphas:
            h = len(L)
            pos = pos[:]
            pos[g] = h
            runs.append(((h - 1) ** 2, L + [g], pos))
        return runs

    def resume(runs) -> list | None:
        """The runs still undecided after each is continued through the
        determined cells; None when one flattens strictly below the table."""
        live = []
        for run in runs:
            q, L, pos = run
            i, j = cells[q]
            c = T[i][j]
            x = T[L[i]][L[j]]
            if c < 0 or x < 0:
                live.append(run)
                continue
            L = L[:]
            pos = pos[:]
            m = len(L)
            while True:
                lab = pos[x]
                if lab < 0:
                    lab = pos[x] = m
                    L.append(x)
                    m += 1
                if lab != c:
                    if lab < c:
                        return None
                    break
                q += 1
                if q == ncells:
                    break
                i, j = cells[q]
                if i == m:
                    break  # closed: this run needs another generator
                c = T[i][j]
                x = T[L[i]][L[j]]
                if c < 0 or x < 0:
                    live.append((q, L, pos))
                    break
        return live

    def dfs(p: int, alphas, runs) -> None:
        nonlocal k
        p, a, b = next_cell(p)
        if a < 0:
            # Labeled set is closed: a subgroup of order k.
            if n % k:
                return
            sub = tuple(tuple(T[r][:k]) for r in range(k))
            autos: list[list[int]] = []
            if not _is_canonical(sub, autos):
                return
            if k == n:
                results.append(sub)
                return
            alphas = []
            for L in [list(range(k)), *autos]:
                pos = [-1] * n
                for label, x in enumerate(L):
                    pos[x] = label
                alphas.append((L, pos))
            k += 1
            dfs(p, alphas, start(alphas[1:], k - 1))
            k -= 1
            return
        for v in range(k + 1 if k < n else k):
            fresh = v == k
            if not fresh and ((rowmask[a] >> v) & 1 or (colmask[b] >> v) & 1):
                continue
            if fresh:
                k += 1
            trail: list[tuple[int, int, int]] = []
            if propagate(a, b, v, trail):
                live = resume(runs + start(alphas, v) if fresh else runs)
                if live is not None:
                    dfs(p + 1, alphas, live)
            undo(trail)
            if fresh:
                k -= 1

    try:
        dfs(0, [([0], [0] + [-1] * (n - 1))], [])
    finally:
        del dfs  # its closure holds it, and it every other helper: a cycle
    return results


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
    from . import pool

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
    """The named classes of order n, when tables, searched or cached, are a
    complete catalog: A000001[n] tables that pass ``_checked_class``, in
    strictly increasing flatten order, so none repeats (canonical ones are
    then every class).  Raises ValueError naming the first rule broken."""
    if len(tables) != A000001[n]:
        raise ValueError(f"it holds {len(tables)} classes, "
                         f"not the {A000001[n]} groups of order {n}")
    classes = [_checked_class(rows, n) for rows in tables]
    flats = [flatten(cls.table) for cls in classes]
    if any(a >= b for a, b in zip(flats, flats[1:])):
        raise ValueError("the tables are not in strictly increasing flatten order")
    return _describe_classes(n, classes)


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
        classes = _classes(n, tables)
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
    classes, names included.  A file that fails is named in a warning, with
    the first rule broken or the first key that differs, and is a miss; so,
    with no warning, is a file of another generator version.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data["generator_version"] != GENERATOR_VERSION:
            return None
        classes = _classes(n, [entry["table"] for entry in data["classes"]])
        if not all(_is_canonical(cls.table) for cls in classes):
            raise ValueError("a stored table is not canonical")
        if at := _differs_at(data, _document(n, classes)):
            raise ValueError(f"its {at} differs from the file catalog writes")
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
