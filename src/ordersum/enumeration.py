"""Exhaustive enumeration of groups of a small order, up to isomorphism.

The enumerator is an independent oracle: it imports no group catalog.  It
performs orderly generation over Cayley tables with the identity pinned at
index 0, using four ingredients:

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
  under the recorded automorphisms that fix every generator chosen so far,
  and tries one candidate per orbit, since an automorphism maps the subtree
  of one candidate onto that of another with equal flattenings.  The least
  flattening, and so the canonical form, is the same as without pruning;

* a backtracking search that builds tables directly in BFS-labeled form,
  propagating associativity constraints after every cell assignment and
  pruning any branch whose closed partial subgroup is not itself canonical
  (a prefix of a canonical table is always canonical).  Surviving leaves
  are exactly the canonical tables, one per isomorphism class.

``groups`` (and with it numpy) is imported where a group is built or walked,
so importing this module loads neither.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_BOUND, HARD_CAP, arith

if TYPE_CHECKING:
    from .groups import Group

GENERATOR_VERSION = 1


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


def _scan_labelings(rows, stop_below_self: bool = False):
    """Depth-first search over the BFS labelings of a complete table.

    Returns (best_flat, best_order): the least flattening found and the
    labeling giving it (best_order lists the original element played by
    each new label).  With stop_below_self the scan starts from the table's
    own labeling, the identity, and stops at the first labeling that
    flattens strictly below it, which is all the canonicity test needs.

    A completed labeling L that flattens equal to the best one is recorded
    as the automorphism best_order[i] -> L[i].  At each choice of the next
    generator, a candidate is skipped when the automorphisms found so far
    that fix every earlier generator map an explored candidate onto it: such
    an automorphism maps one subtree onto the other with equal flattenings.
    """
    n = len(rows)
    cells = shell_cells(n)
    best_flat = flatten(rows) if stop_below_self else None
    best_order = list(range(n)) if stop_below_self else None
    autos: list[list[int]] = []  # automorphisms found, as lists of images
    stopped = False

    def run(gens: list[int]):
        """Deterministic closure for one generator sequence.

        Emits flattened values in shell order, comparing against best_flat.
        Returns (status, L) with status one of "pruned", "stall", "leaf"
        (equal to best_flat), "below" (a new best).
        """
        L = [0]
        pos = {0: 0}
        rest = iter(gens)
        prefix_lt = best_flat is None
        for p, (i, j) in enumerate(cells):
            if i == len(L):
                # The shell i starts past the labeled set: the next
                # generator gets label i, or the run ends here.
                g = next(rest, None)
                if g is None:
                    break
                pos[g] = i
                L.append(g)
            x = rows[L[i]][L[j]]
            lab = pos.get(x)
            if lab is None:
                lab = len(L)
                pos[x] = lab
                L.append(x)
            if not prefix_lt:
                c = best_flat[p]
                if lab > c:
                    return "pruned", L
                if lab < c:
                    prefix_lt = True
        if len(L) < n:
            return "stall", L
        return ("below" if prefix_lt else "leaf"), L

    def rec(gens: list[int]):
        nonlocal best_flat, best_order, stopped
        status, L = run(gens)
        if status == "pruned":
            return
        if status == "leaf":
            auto = [0] * n
            for x, y in zip(best_order, L):
                auto[x] = y
            autos.append(auto)
            return
        if status == "below":
            posmap = {x: i for i, x in enumerate(L)}
            best_flat = tuple(posmap[rows[L[i]][L[j]]] for i, j in cells)
            best_order = L
            stopped = stop_below_self
            return
        # Stall: orbits of the unlabeled elements under the automorphisms
        # found that fix every generator, kept as a union-find forest.
        labeled = set(L)
        root = list(range(n))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        used = 0
        explored: list[int] = []
        for g in range(1, n):
            if g in labeled:
                continue
            for auto in autos[used:]:
                if all(auto[x] == x for x in gens):
                    for x in range(n):
                        root[find(x)] = find(auto[x])
            used = len(autos)
            r = find(g)
            if any(find(e) == r for e in explored):
                continue
            explored.append(g)
            rec(gens + [g])
            if stopped:
                return

    rec([])
    return best_flat, best_order


def _is_canonical(rows) -> bool:
    """True when no BFS relabeling flattens strictly below the table itself."""
    _, best_order = _scan_labelings(rows, stop_below_self=True)
    return best_order == list(range(len(rows)))


def canonical_form(g: Group) -> Group:
    """Canonical representative of the isomorphism class of ``g``.

    Invariant under any identity-fixing relabeling of the table; two groups
    have equal canonical forms exactly when they are isomorphic.
    """
    from .groups import Group

    rows = g.table.tolist()
    _, best_order = _scan_labelings(rows)
    posmap = {x: i for i, x in enumerate(best_order)}
    return Group([[posmap[rows[x][y]] for y in best_order] for x in best_order])


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
    """
    if n == 1:
        return [((0,),)]

    cells = shell_cells(n)
    T = [[-1] * n for _ in range(n)]
    for i in range(n):
        T[i][0] = i
        T[0][i] = i
    full = (1 << n) - 1
    rowmask = [1 << i for i in range(n)]
    colmask = [1 << i for i in range(n)]
    rowmask[0] = colmask[0] = full
    preim: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    canon_cache: dict[tuple, bool] = {}
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

    def dfs(p: int) -> None:
        nonlocal k
        p, a, b = next_cell(p)
        if a < 0:
            # Labeled set is closed: a subgroup of order k.
            if n % k:
                return
            sub = tuple(tuple(T[r][:k]) for r in range(k))
            ok = canon_cache.get(sub)
            if ok is None:
                ok = _is_canonical(sub)
                canon_cache[sub] = ok
            if not ok:
                return
            if k == n:
                results.append(sub)
                return
            k += 1
            dfs(p)
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
                dfs(p + 1)
            undo(trail)
            if fresh:
                k -= 1

    dfs(0)
    return results


def _enumerate(n: int) -> list[Group]:
    from .groups import Group

    return [Group(rows) for rows in sorted(set(_search_groups(n)), key=flatten)]


# ---------------------------------------------------------------------------
# Catalog with persistence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogClass:
    """One isomorphism class of a given order: its canonical table and a name.

    psi and the order profile are read from the group's walked orders.
    """

    group: Group
    description: str

    @property
    def psi(self) -> int:
        return self.group.psi()


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
    """Named construction-family specs of order n, most specific first.

    Used to attach a readable description to each enumerated class; classes
    outside the families keep a generic profile-based description.
    """
    from .groups import (
        Abelian,
        Cyclic,
        Dihedral,
        FromPermutations,
        GeneralizedQuaternion,
        Modular,
        SemidirectCyclic,
        format_spec,
        semidirect_actions,
    )

    cands: list[tuple[str, object]] = [(f"C{n}", Cyclic(n))]
    if n == 12:
        # The alternating group on 4 points; not a cyclic-by-cyclic product.
        cands.append(("A4", FromPermutations(4, ((1, 2, 0, 3), (1, 0, 3, 2)))))
    for chain in abelian_invariant_chains(n):
        if list(chain) != [n]:
            cands.append((format_spec(Abelian(chain)), Abelian(chain)))
    if n >= 8 and n & (n - 1) == 0:
        cands.append((f"Q{n}", GeneralizedQuaternion(n)))
    fac = arith.factorize(n)
    if len(fac) == 1:
        q, r = fac[0]
        if r >= 4 or (r == 3 and q > 2):
            cands.append((f"M({q},{r})", Modular(q, r)))
    if n % 2 == 0 and n >= 4:
        cands.append((f"D{n}", Dihedral(n)))
    if n % 4 == 0 and n >= 8:
        h = n // 4
        # Dicyclic group of order 4h, realized as SD(h, 4, h-1) for odd h.
        if h % 2 == 1 and h > 1:
            cands.append((f"Dic{h} = SD({h},4,{h - 1})", SemidirectCyclic(h, 4, h - 1)))
    for m in range(2, n):
        if n % m:
            continue
        k = n // m
        for a in semidirect_actions(m, k)[1:]:  # a = 1 is the direct product
            cands.append((f"SD({m},{k},{a})", SemidirectCyclic(m, k, a)))
    return cands


def abelian_invariant_chains(n: int) -> list[tuple[int, ...]]:
    """All invariant-factor chains d1 | d2 | ... with product n."""
    parts_per_prime = []
    for p, e in arith.factorize(n):
        parts_per_prime.append((p, _partitions(e)))
    chains = [()]
    for p, partitions in parts_per_prime:
        new_chains = []
        for chain in chains:
            for part in partitions:
                exps = sorted(part, reverse=True)
                merged = list(chain) + [1] * max(0, len(exps) - len(chain))
                merged = sorted(merged, reverse=True)
                combined = [merged[i] * (p ** exps[i] if i < len(exps) else 1) for i in range(len(merged))]
                new_chains.append(tuple(combined))
        chains = new_chains
    return sorted(set(tuple(sorted(c)) for c in chains))


def _partitions(e: int) -> list[tuple[int, ...]]:
    if e == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(e, e, [])
    return out


def _describe_classes(n: int, classes: list[Group]) -> list[str]:
    from .groups import GroupSpecError, build_group

    by_canon: dict[Group, str] = {}
    for desc, spec in _family_candidates(n):
        try:
            g = build_group(spec)
        except GroupSpecError:
            continue
        if g.order != n:
            continue
        by_canon.setdefault(canonical_form(g), desc)
    return [
        by_canon.get(g) or f"order-{n} class #{idx} with order profile {g.order_profile()}"
        for idx, g in enumerate(classes)
    ]


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
        path = Path(cache_dir) / "catalog" / f"n={n}.json"
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
    found = _enumerate(n)
    classes = [CatalogClass(g, desc) for g, desc in zip(found, _describe_classes(n, found))]
    if path is not None:
        _save_catalog(path, n, classes)
    return classes


def _load_catalog(path: Path, n: int) -> list[CatalogClass] | None:
    """The catalog cached at ``path``, or None when it has to be computed.

    Cache files are untrusted: every stored table is rebuilt as a fully
    validated Group, it must be canonical, and its stored psi and order
    profile must equal the walked ones.  The tables must be in strictly
    increasing flatten order, as _enumerate writes them, so no class is
    stored twice.  The abelian classes must be the abelian groups of order
    n, one for one: for finite abelian groups the order profile fixes the
    class, so their profiles are compared with those of the invariant-factor
    chains.  A deleted non-abelian class is not caught: only a recompute
    finds it.  A file that fails any check is reported in a warning and
    treated as a miss; a file of another generator version is a plain miss.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data["generator_version"] != GENERATOR_VERSION:
            return None
        if data["n"] != n:
            raise ValueError(f"it holds order {data['n']}")
        classes = [_load_class(entry, n) for entry in data["classes"]]
        flats = [flatten(cls.group.table) for cls in classes]
        if any(a >= b for a, b in zip(flats, flats[1:])):
            raise ValueError("the stored tables are not in strictly increasing flatten order")
        abelian = sorted(tuple(c.group.order_profile().items())
                         for c in classes if c.group.is_abelian())
        if abelian != _abelian_profiles(n):
            raise ValueError(f"the stored abelian classes are not the abelian groups of order {n}")
        return classes
    except FileNotFoundError:
        return None
    except (OSError, KeyError, TypeError, ValueError) as exc:
        warnings.warn(
            f"ignoring invalid cache file {path} ({type(exc).__name__}: {exc}); recomputing",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _abelian_profiles(n: int) -> list[tuple]:
    """The order profiles of the abelian groups of order n, one per class, sorted."""
    from .groups import Abelian, build_group

    return sorted(tuple(build_group(Abelian(chain)).order_profile().items())
                  for chain in abelian_invariant_chains(n))


def _load_class(entry: dict, n: int) -> CatalogClass:
    import numpy as np

    from .groups import Group

    table = np.array(entry["table"])
    if table.dtype.kind != "i" or table.shape != (n, n):
        raise TypeError(f"a stored table is not an {n} x {n} array of integers")
    cls = CatalogClass(Group(table), entry["description"])
    if not _is_canonical(table.tolist()):
        raise ValueError("a stored table is not canonical")
    if not isinstance(cls.description, str):
        raise TypeError("a stored description is not a string")
    if entry != class_to_dict(cls):
        raise ValueError("a stored psi or order profile differs from the walked one")
    return cls


def class_to_dict(cls: CatalogClass) -> dict:
    """One class as cache files and ``catalog --format json`` hold it."""
    return {
        "table": cls.group.table.tolist(),
        "psi": cls.psi,
        "order_profile": [[d, c] for d, c in cls.group.order_profile().items()],
        "description": cls.description,
    }


def _save_catalog(path: Path, n: int, classes: list[CatalogClass]) -> None:
    """Write the cache file atomically: a temporary file, then os.replace."""
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "schema": 1,
        "n": n,
        "generator_version": GENERATOR_VERSION,
        "classes": [class_to_dict(cls) for cls in classes],
    }
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


@dataclass(frozen=True)
class SpectrumEntry:
    psi: int
    count: int
    witnesses: tuple[str, ...]


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
