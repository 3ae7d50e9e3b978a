"""Groups in pure Python: the construction families' one list rule set, the
rows it gives, and the package's one group check.

The list rules multiply lists of element indices for C_n, the metacyclic
groups C_m by C_k (the semidirect products, and with a carry the dicyclic
groups) and direct products, on the mixed-radix indices the numpy laws of
``groups`` use.  ``_list_law`` folds a spec's factors into one law, which
``groups.ListLaw`` walks, and ``_rows`` applies that law to the grid
of all pairs: a table, n rows of n element indices with the identity at 0,
the table ``groups._table_for`` gives the spec.  ``_perm_table`` closes a
permutation group as rows.  ``_checked_class`` checks any table in full
and walks its element orders.  The catalog layer (``enumeration``) builds,
checks and names its classes with these, and ``groups`` builds with them
the rows of every generated spec of order at most ``HARD_CAP``, the
ListLaw of one up to ``TABLE_BUDGET``, and checks every table: file.  This
module loads neither numpy nor ``groups``, and ``groups`` does not load the
catalog layer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import chain


# collections.namedtuple, not typing.NamedTuple: the catalog commands load
# no typing.
class CatalogClass(namedtuple("CatalogClass", ("table", "description", "orders"))):
    """One isomorphism class of a given order: its canonical table, a name, and
    the order of each element, walked on the table.

    Build one with ``_checked_class``, which checks the table and walks the
    orders.  psi, the order profile and is_cyclic read those fields.
    """

    __slots__ = ()

    @property
    def psi(self) -> int:
        """Sum of the orders of all elements."""
        return sum(self.orders)

    def order_profile(self) -> dict[int, int]:
        """Map from element order d to the number of elements of that order."""
        return {d: self.orders.count(d) for d in sorted(set(self.orders))}

    def is_cyclic(self) -> bool:
        return max(self.orders) == len(self.table)


def _generating_set(table) -> list[int]:
    """Generators of a Latin table with identity 0, whatever its labeling.

    Each generator is the least element outside the closure of the ones
    before it under right products, so every element is a product of
    generators.
    """
    n = len(table)
    gens, members, inside = [], [0], [True] + [False] * (n - 1)
    while len(members) < n:
        gens.append(inside.index(False))
        for x in members:  # members grows while it is read
            for s in gens:
                y = table[x][s]
                if not inside[y]:
                    inside[y] = True
                    members.append(y)
    return gens


def _checked_class(rows, n: int) -> CatalogClass:
    """The class of an order-n table that is a group's, with its element orders.

    The package's one group check: of catalog tables, computed or cached,
    and through ``groups.validate_table`` of every table from outside:

    * rows is n lists of n entries, each an int (not a bool) in 0..n-1;
    * element 0 is a two-sided identity;
    * every row and every column is a permutation of 0..n-1;
    * Light's associativity test: (x*s)*y = x*(s*y) for all x, y and each s
      in a generating set S (Clifford & Preston 1961, section 1.2).  It
      suffices because the elements that pass it are closed under products.
      It costs n^2 |S| products, with |S| <= log2 n for a group;
    * a brute-force walk of each element's powers: an x with x^n != e
      rejects the table.

    Raises ValueError naming the first violation.  Tuple rows are read in
    place and columns one at a time, so the check holds O(n) beyond them.
    """
    if not (isinstance(rows, (list, tuple)) and len(rows) == n and all(
            isinstance(row, (list, tuple)) and len(row) == n
            and all(type(v) is int and 0 <= v < n for v in row) for row in rows)):
        raise ValueError(f"a table is not {n} rows of {n} integers in 0..{n - 1}")
    if n < 1:
        raise ValueError("a group table needs at least the identity element")
    table = tuple(map(tuple, rows))
    identity = tuple(range(n))
    if table[0] != identity or tuple(row[0] for row in table) != identity:
        raise ValueError("element 0 is not a two-sided identity")
    if any(len(set(line)) != n for line in chain(table, zip(*table))):
        raise ValueError("some row or column is not a permutation of 0..n-1")
    for s in _generating_set(table):
        right = table[s]
        for x, row in enumerate(table):
            left = table[row[s]]
            if left != tuple(map(row.__getitem__, right)):
                y = next(y for y in range(n) if left[y] != row[right[y]])
                raise ValueError(f"associativity fails at ({x}, {s}, {y})")
    orders = []
    for x in range(n):
        y, k = x, 1  # y = x^k
        while y and k < n:
            y, k = table[y][x], k + 1
        if y or n % k:
            raise ValueError(f"element {x} to the power {n} is not the identity: not a group")
        orders.append(k)
    return CatalogClass(table, "", tuple(orders))


# The family rules on Python lists, on the mixed-radix indices of the numpy
# laws of ``groups``.  Each gives (n, mul), and mul is one list comprehension
# of gathers from lists of O(n) entries, which CPython 3.11 runs faster than
# a chain of ``map`` calls.


def _cyclic_lists(n: int):
    sums = list(range(n)) * 2
    return n, lambda x, y: [sums[a + b] for a, b in zip(x, y)]


def _product_lists(a, b):
    """Direct product on mixed-radix indices (a, b) -> a * nb + b."""
    (na, mul_a), (nb, mul_b) = a, b
    n = na * nb
    hi, lo = [x // nb for x in range(n)], [x % nb for x in range(n)]
    shifted = list(range(0, n, nb))  # shifted[a] = a * nb

    def mul(x, y):
        high = mul_a([hi[u] for u in x], [hi[v] for v in y])
        low = mul_b([lo[u] for u in x], [lo[v] for v in y])
        return [shifted[h] + w for h, w in zip(high, low)]

    return n, mul


def _metacyclic_lists(m: int, k: int, a: int, s: int = 0):
    """``groups._metacyclic_law(m, k, a, s)`` on lists, from the same tables."""
    n = m * k
    i, j = [x // k for x in range(n)], [x % k for x in range(n)]
    apow = [pow(a, e, m) for e in range(k)]
    act = [p * i2 % m * (2 * k) for p in apow for i2 in range(m)]
    prod = [(u + s * (t >= k)) % m * k + t % k for u in range(2 * m) for t in range(2 * k)]
    base, jm = [x // k * (2 * k) + x % k for x in range(n)], [x % k * m for x in range(n)]
    return n, lambda x, y: [prod[base[u] + act[jm[u] + i[v]] + j[v]] for u, v in zip(x, y)]


def _list_law(factors):
    """(n, mul) of the direct product of factors as a ``groups.GroupSpec``
    lists them, each ``("cyclic", n)`` or ``("metacyclic", m, k, a[, s])``;
    no factors are the trivial group."""
    rules = {"cyclic": _cyclic_lists, "metacyclic": _metacyclic_lists}
    factors = factors or [("cyclic", 1)]
    return reduce(_product_lists, (rules[kind](*args) for kind, *args in factors))


def _rows(factors) -> list[list[int]]:
    """The table of that product: its mul applied to the grid of all pairs, in n rows."""
    n, mul = _list_law(factors)
    flat = mul([x for x in range(n) for _ in range(n)], list(range(n)) * n)
    return [flat[x:x + n] for x in range(0, n * n, n)]


def _perm_table(gens) -> list[list[int]]:
    """The group of permutations gens generate, closed breadth first with
    x * y the composite x(y(t)), as ``groups`` closes a perm: spec."""
    elems = [tuple(range(len(gens[0])))]
    index = {elems[0]: 0}
    for x in elems:  # elems grows while it is read
        for g in gens:
            y = tuple(x[t] for t in g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return [[index[tuple(x[t] for t in y)] for y in elems] for x in elems]
