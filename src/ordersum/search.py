"""The orderly search: every canonical group table of one order, from scratch.

Only a process that searches compiles and runs this module: it is imported
by ``enumeration._search_groups(n)`` when that is called, and by
``enumeration.search_ahead`` before it forks, so every worker inherits it
compiled.  A warm catalog command, which reads each catalog from its cache
file, loads none of it.  The search walks the cells of
``enumeration.shell_cells`` and tests each closed subgroup with
``enumeration._is_canonical``, looked up on that module at each call, so a
patched or traced one is the one that runs.  The docstring of
``enumeration`` describes the method.
"""

from __future__ import annotations

from . import enumeration
from .enumeration import shell_cells


def search_groups(n: int) -> list[tuple[tuple[int, ...], ...]]:
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
            if not enumeration._is_canonical(sub, autos):
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
