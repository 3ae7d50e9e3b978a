"""Group tables as Python rows: the construction families' table rules and
the package's one group check.

A table is n rows of n element indices with the identity at 0.  The family
rules build, on the mixed-radix indices the laws of ``groups`` use, the
tables of C_n, direct products, C_m x| C_k, the dicyclic groups and
permutation closures, so each gives the table ``groups._table_for`` gives
its spec.  ``_checked_class`` checks any table in full and walks its element
orders.  The catalog layer (``enumeration``) builds, checks and names its
classes with these, and ``groups`` realizes every spec of order at most
``HARD_CAP`` and every table: file with them: neither loads numpy for them,
and ``groups`` does not load the catalog layer.
"""

from __future__ import annotations

from collections import namedtuple
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


def _checked_class(rows, n: int, description: str = "") -> CatalogClass:
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
    return CatalogClass(table, description, tuple(orders))


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _product_table(ta, tb) -> list[list[int]]:
    """Direct product on mixed-radix indices (a, b) -> a * nb + b."""
    nb = len(tb)
    return [[x * nb + y for x in ra for y in rb] for ra in ta for rb in tb]


def _abelian_table(factors) -> list[list[int]]:
    """C_d1 x C_d2 x ..., folded factor by factor."""
    table = [[0]]
    for d in factors:
        table = _product_table(table, _cyclic_table(d))
    return table


def _semidirect_table(m: int, k: int, a: int) -> list[list[int]]:
    """C_m x| C_k on indices i*k + j: (i1 + a**j1 * i2 mod m, j1 + j2 mod k)."""
    apow = [pow(a, j, m) for j in range(k)]
    return [[(i1 + apow[j1] * i2) % m * k + (j1 + j2) % k for i2 in range(m) for j2 in range(k)]
            for i1 in range(m) for j1 in range(k)]


def _dicyclic_table(h: int) -> list[list[int]]:
    """<a, b | a^(2h) = 1, b^2 = a^h, bab^-1 = a^-1>, of order 4h, on indices
    i*2 + j for a^i b^j."""

    def mul(x: int, y: int) -> int:
        i1, j1, i2, j2 = x >> 1, x & 1, y >> 1, y & 1
        return (i1 + (1 - 2 * j1) * i2 + h * (j1 & j2)) % (2 * h) * 2 + (j1 ^ j2)

    return [[mul(x, y) for y in range(4 * h)] for x in range(4 * h)]


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
