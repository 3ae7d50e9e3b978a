"""Finite groups over index domains 0..n-1, each given by its rows or its law.

A spec is one record, ``GroupSpec``, made by a constructor that checks it
once.  A generated spec (C12, A[2,6], D8, Q8, M(2,4), SD(5,4,2) and their
direct products) holds its order and the factors it is the direct product
of, of two kinds: cyclic, and metacyclic (C_m by C_k, with a carry for Q).
Each engine maps the two kinds to its two rules and knows nothing of
families.  The order then decides how the spec is realized, on the same
mixed-radix indices every way, so every way gives the same table:

* as Python rows, for every generated spec of order at most ``HARD_CAP``
  (the catalog's table bound) and every table: file.  The list rules of
  ``tables``, applied to the grid of all pairs, give a generated spec's
  rows, the catalog's class tables included, and the catalog's full group
  check, ``validate_table`` (Latin and identity checks, Light's
  associativity test and the order walk), checks the rows and walks their
  element orders in one pass.  This way loads neither numpy nor the
  catalog layer;
* as a law, for every larger generated spec and every perm: closure.  A
  law mul(x, y) multiplies element indices elementwise, with the identity
  at index 0: closed-form on the coordinates for a generated group, a
  gather from the table for a perm: closure.  A law is spot-checked on 10n
  triples, and its element orders come from power maps, split by prime
  (``element_orders_of_table``), in O(n) memory.  Both run on either of two
  engines, with the same rules, triples and walk:

  - a ``ListLaw`` on Python lists, for one group of order up to
    ``TABLE_BUDGET`` from ``build_group``, holding only the rule that
    ``tables._list_law`` builds by the same list rules as the rows:
    ``psi``, ``verify upper_bound`` and ``verify mqr`` load ``tables`` and
    no numpy;
  - a ``Law`` on numpy arrays, for a group above ``TABLE_BUDGET``, for a
    perm: closure, and for the groups above ``HARD_CAP`` of a scan
    (``verify thm4``, ``lemma5``, ``lemma6`` and the witnesses of ``verify
    equality --family-only``), where one numpy import pays for itself.
    A scan's specs go to ``build_groups``, which checks them all first and
    then walks their groups on every CPU, largest first, in workers of
    ``pool.run`` forked after numpy is imported; each worker sends back
    psi alone and keeps no law.

numpy is imported only inside the functions that build or walk a numpy law,
and ``tables`` only where rows or a ListLaw are built.
There are no per-family order formulas to trust: orders are walked on the
rows or the law.  A Group keeps its element orders and its rows or law;
``law`` of a group made from rows or from a ListLaw is numpy's, read on
first use from the rows or built from the spec, and ``table`` builds the
n x n table from it afresh on each read.
Groups have no table equality; compare canonical forms
(``enumeration.canonical_form``) of their rows.  Every spec has an element
budget, checked when the spec is made, before anything is built.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter, namedtuple
from functools import reduce

from . import HARD_CAP, arith


class GroupSpecError(ValueError):
    """Raised for invalid group construction parameters."""


class TableError(ValueError):
    """Raised when an explicit multiplication table violates a group axiom."""


# ---------------------------------------------------------------------------
# Group specifications
# ---------------------------------------------------------------------------


class GroupSpec(namedtuple("GroupSpec", ("text", "order", "factors", "payload"))):
    """A checked group spec: its text in the grammar, its order, its factors
    and, for a group given from outside, its rows or generators.

    Each constructor below checks its parameters and the element budget and
    returns the record, so a spec that exists is valid.  A generated spec
    (C12, A[2,6], D8, Q8, M(2,4), SD(5,4,2) and their direct products) is
    the direct product of its ``factors``, in order, on mixed-radix indices,
    and its ``payload`` is None.  Each factor is ``(kind, *args)``, built by
    the rule of that kind, and there are two kinds: C_n is ``("cyclic",
    n)``, and C_m by C_k with the action x -> x**a and the carry s of
    ``_metacyclic_law`` is ``("metacyclic", m, k, a, s)``, s left out where
    it is 0.  So SD, D and M are metacyclic with s = 0, and Q of order 4h is
    ``("metacyclic", 2h, 2, 2h - 1, h)``.  A table: spec's payload is
    ``("table", rows)`` and its order the number of rows; a perm: spec's is
    ``("perm", generators)`` and its order None until the closure is built.
    Neither has factors, and ``text`` is None for one made with no path.

    Specs are equal, and hash alike, when their fields are, so ``Cyclic(8)
    != Dihedral(8)``; the spot check seeds its triples from the repr.
    """

    __slots__ = ()


def Cyclic(n: int) -> GroupSpec:
    _require(n >= 1, f"cyclic order must be >= 1, got {n}")
    _walkable(n)
    return GroupSpec(f"C{n}", n, (("cyclic", n),), None)


def Abelian(factors) -> GroupSpec:
    """Abelian group given by invariant factors d1 | d2 | ... | dr."""
    given = tuple(int(d) for d in factors)
    chain = [d for d in given if d != 1]
    _require(all(d >= 1 for d in given), f"invalid invariant factors {given}")
    for d1, d2 in zip(chain, chain[1:]):
        _require(d2 % d1 == 0, f"invariant factors must form a divisibility chain: {chain}")
    text = "A[" + ",".join(map(str, given)) + "]"
    return DirectProduct(map(Cyclic, chain))._replace(text=text)


def DirectProduct(parts) -> GroupSpec:
    """Direct product of generated specs, taken part by part: each part is
    checked as it is made, then the order of the product so far, so an
    oversized product names the first running order past the budget.  As
    in the grammar, a table: or perm: part is refused."""
    n, texts, factors = 1, [], []
    for part in parts:
        _require(part.payload is None, "a direct product cannot have a table: or perm: part")
        n *= part.order
        _walkable(n)
        texts.append(part.text)
        factors += part.factors
    return GroupSpec("x".join(texts), n, tuple(factors) or (("cyclic", 1),), None)


def SemidirectCyclic(m: int, k: int, a: int) -> GroupSpec:
    """C_m  x|  C_k where the C_k generator acts on C_m by x -> x**a."""
    factor = ("metacyclic", m, k, _check_action(m, k, a))
    _walkable(m * k)
    return GroupSpec(f"SD({m},{k},{a})", m * k, (factor,), None)


def Dihedral(order: int) -> GroupSpec:
    """Dihedral group; the argument is the group order 2m."""
    m = order // 2
    _require(order >= 2 and order % 2 == 0, f"dihedral order must be even and >= 2, got {order}")
    _walkable(order)
    factor = ("metacyclic", m, 2, (m - 1) % m if m > 1 else 0)
    return GroupSpec(f"D{order}", order, (factor,), None)


def GeneralizedQuaternion(order: int) -> GroupSpec:
    """Generalized quaternion group of order 2**m >= 8."""
    _require(
        order >= 8 and order & (order - 1) == 0,
        f"generalized quaternion order must be a power of two >= 8, got {order}",
    )
    _walkable(order)
    h = order // 4
    return GroupSpec(f"Q{order}", order, (("metacyclic", 2 * h, 2, 2 * h - 1, h),), None)


def Modular(q: int, r: int) -> GroupSpec:
    """Modular group of order q**r: <a, b | a^(q^(r-1)) = b^q = 1, a^b = a^(q^(r-2)+1)>.

    Defined for r >= 4, or r = 3 with q > 2 (the order-8 case would degenerate
    to the dihedral group and is rejected).
    """
    # The budget first: is_prime cannot decide a q past SIEVE_BOUND**2,
    # and any such q**r with r >= 2 is past the budget, prime or not.
    if q >= 2 and r >= 0:
        if r >= LAW_BUDGET.bit_length():  # q**r >= 2**r is past the budget: not computed
            raise _over_budget(f"{q}^{r}")
        _walkable(q**r)
    _require(arith.is_prime(q), f"modular group parameter q must be prime, got {q}")
    _require(
        r >= 4 or (r == 3 and q > 2),
        f"modular group needs r >= 4, or r = 3 with q > 2; got (q={q}, r={r})",
    )
    factor = ("metacyclic", q ** (r - 1), q, q ** (r - 2) + 1)
    return GroupSpec(f"M({q},{r})", q**r, (factor,), None)


def FromTable(rows, path: str | None = None) -> GroupSpec:
    """A table from outside.  build_group hands its rows to Group, which
    checks its entries in full with validate_table; here the rows need only
    be a list of lists, to be held as tuples.
    """
    _require(
        isinstance(rows, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in rows),
        f"{path or 'a table'} must hold a JSON list of lists",
    )
    text = None if path is None else f"table:{path}"
    return GroupSpec(text, len(rows), None, ("table", tuple(map(tuple, rows))))


def FromPermutations(degree, generators, path: str | None = None) -> GroupSpec:
    """Group generated by permutations of 0..degree-1 in one-line notation."""
    # Entries are checked, never converted: int(0.9) would read 0.  A bool
    # is an int subclass, so `type(v) is int` also rejects true and false.
    _require(
        isinstance(generators, (list, tuple)) and all(
            isinstance(g, (list, tuple)) and all(type(v) is int for v in g)
            for g in generators),
        f"{path or 'a permutation list'} must hold a JSON list of lists of integers",
    )
    degree, generators = int(degree), tuple(map(tuple, generators))
    _require(degree >= 1, f"degree must be >= 1, got {degree}")
    for g in generators:
        _require(
            len(g) == degree and sorted(g) == list(range(degree)),
            f"{g} is not a permutation of 0..{degree - 1}",
        )
    text = None if path is None else f"perm:{path}"
    return GroupSpec(text, None, None, ("perm", generators))


# ---------------------------------------------------------------------------
# Group laws (identity is always element 0)
# ---------------------------------------------------------------------------

# Largest order whose n x n table is built (32 MB of int64): perm: closures,
# table: files, and the grid of a law where a table is read.
TABLE_BUDGET = 2048
# Largest order a law is walked at: the walk holds a few n-element arrays.
LAW_BUDGET = 1 << 20


class Law:
    """A group law on element indices 0..n-1, with the identity at 0, on numpy arrays.

    ``law(x, y)`` multiplies integer arrays that broadcast together,
    elementwise; ``len(law)`` is the group order, which the benchmark's
    tracing reads to count the elements a walk visits.  A law read from a
    table multiplies by gathering from it.

    The other methods are the array operations of the law's engine: the
    spot check and the order walk run on them alone, so they run alike on
    this engine and on ``ListLaw``'s.
    """

    __slots__ = ("n", "mul")

    # Spot-check triples drawn and multiplied at a time.
    chunk = 1 << 16

    def __init__(self, n: int, mul):
        self.n = n
        self.mul = mul

    @classmethod
    def of_table(cls, table) -> "Law":
        """The law that gathers from a table, given as an array or as rows."""
        import numpy as np

        flat = np.asarray(table, dtype=np.int64).ravel()
        n = len(table)
        return cls(n, lambda x, y: flat[x * n + y])

    def __len__(self) -> int:
        return self.n

    def __call__(self, x, y):
        return self.mul(x, y)

    def indices(self):
        """Every element, in index order."""
        import numpy as np

        return np.arange(self.n, dtype=np.int64)

    def ones(self):
        """A 1 for every element: the orders before the walk."""
        import numpy as np

        return np.ones(self.n, dtype=np.int64)

    def triples(self, raw: bytes):
        """Elements a, b, c from 12 bytes a triple: three little-endian
        uint32 v, each scaled to v * n >> 32 (n <= LAW_BUDGET < 2**32)."""
        import numpy as np

        u = np.frombuffer(raw, dtype="<u4").astype(np.int64) * self.n >> 32
        return u.reshape(-1, 3).T

    @staticmethod
    def gather(table, idx):
        """table[x] for each x in idx."""
        return table[idx]

    @staticmethod
    def same(u, v) -> bool:
        """Whether u and v hold the same elements, in order."""
        import numpy as np

        return np.array_equal(u, v)

    @staticmethod
    def any(cur) -> bool:
        """Whether some element of cur is not the identity."""
        return cur.any()

    @staticmethod
    def times_where(orders, cur, p: int):
        """orders, each times p where cur is not the identity."""
        orders[cur != 0] *= p
        return orders


class ListLaw(Law):
    """The law of a generated spec on Python lists, for one group of order
    up to TABLE_BUDGET, where importing numpy would cost more than the walk.

    ``law(x, y)`` multiplies two equally long lists of element indices
    elementwise.  Its rule is ``tables._list_law`` of the spec's factors,
    built by the list rules the catalog's rows are built by: the numpy
    laws' rules on the same indices, each one list comprehension of gathers
    from lists of O(n) entries, so only the product list is built.
    ``_law_of`` of the same factors is the same law on numpy arrays.
    """

    __slots__ = ()

    chunk = 1 << 12  # small int lists: a chunk of triples holds about 1 MB

    def indices(self):
        return list(range(self.n))

    def ones(self):
        return array("q", [1]) * self.n

    def triples(self, raw: bytes):
        import struct

        n = self.n
        u = [v * n >> 32 for v in struct.unpack(f"<{len(raw) // 4}I", raw)]
        return u[0::3], u[1::3], u[2::3]

    @staticmethod
    def gather(table, idx):
        return [table[x] for x in idx]

    @staticmethod
    def same(u, v) -> bool:
        return u == v

    any = staticmethod(any)

    @staticmethod
    def times_where(orders, cur, p: int):
        return array("q", [o * p if c else o for o, c in zip(orders, cur)])


def _over_budget(order) -> GroupSpecError:
    return GroupSpecError(f"order {order} exceeds the element budget {LAW_BUDGET} of a group law")


def _walkable(n: int) -> None:
    """Refuse an order past the budget of a law walk."""
    if n > LAW_BUDGET:
        try:
            shown = str(n)
        except ValueError:  # more digits than int-to-str conversion allows
            shown = f"at least 2^{n.bit_length() - 1}"
        raise _over_budget(shown)


def _require_table(n: int) -> None:
    _require(n <= TABLE_BUDGET, f"an order-{n} table exceeds the element budget {TABLE_BUDGET}")


def _cyclic_law(n: int) -> Law:
    import numpy as np

    sums = np.arange(2 * n, dtype=np.int64) % n  # sums[x + y] = x + y mod n
    return Law(n, lambda x, y: sums[x + y])


def _product_law(la: Law, lb: Law) -> Law:
    """Direct product on mixed-radix indices (a, b) -> a * nb + b."""
    import numpy as np

    nb = lb.n
    hi, lo = divmod(np.arange(la.n * nb, dtype=np.int64), nb)
    return Law(la.n * nb, lambda x, y: la(hi[x], hi[y]) * nb + lb(lo[x], lo[y]))


def _metacyclic_law(m: int, k: int, a: int, s: int = 0) -> Law:
    """C_m by C_k on indices i*k + j, carrying s into C_m where j wraps:

    (i1, j1) * (i2, j2) = (i1 + a**j1 * i2 + s [j1 + j2 >= k] mod m, j1 + j2 mod k).

    With s = 0 it is C_m x| C_k, conjugation by the C_k generator sending
    the C_m generator x to x**a: SD, D and M.  With m = 2h, k = 2, a = -1
    and s = h it is the dicyclic group of order 4h: Q.
    ``tables._metacyclic_lists`` is the same rule on lists.  The law
    gathers from arrays of O(n) entries instead of dividing.  The
    unreduced sums u = i1 + a**j1 * i2 < 2m and t = j1 + j2 < 2k index
    ``prod`` at u*2k + t, and that index is the sum of three gathers: x's
    i1*2k + j1, the action a**j1 * i2 times 2k at j1*m + i2, and y's j2.
    """
    import numpy as np

    n = m * k
    i, j = divmod(np.arange(n, dtype=np.int64), k)
    apow = np.array([pow(a, e, m) for e in range(k)], dtype=np.int64)
    act = (apow[:, None] * np.arange(m, dtype=np.int64) % m * (2 * k)).ravel()
    u, t = divmod(np.arange(4 * n, dtype=np.int64), 2 * k)
    prod = (u + s * (t >= k)) % m * k + t % k
    base, jm = i * (2 * k) + j, j * m
    return Law(n, lambda x, y: prod[base[x] + act[jm[x] + i[y]] + j[y]])


def _law_of(factors) -> Law:
    """The law of the direct product of factors as ``GroupSpec.factors``
    lists them, each ``("cyclic", n)`` or ``("metacyclic", m, k, a[, s])``."""
    rules = {"cyclic": _cyclic_law, "metacyclic": _metacyclic_law}
    return reduce(_product_law, (rules[kind](*args) for kind, *args in factors))


def _table_for(law: Law) -> np.ndarray:
    """The n x n table of a law: the law applied to the grid of all pairs."""
    import numpy as np

    _require_table(law.n)
    r = np.arange(law.n, dtype=np.int64)
    return law(r[:, None], r[None, :])


def _perm_closure(gens) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Breadth-first closure of the generated permutation group, identity first.

    Products are composites, (x * y)(t) = x(y(t)).  Returns (right, parent):
    right[g][m] is the index of x_m * gens[g], and each element j > 0 was
    first reached as x_j = x_p * gens[g], where (p, g) = parent[j].

    The elements are the rows of one array, in the narrowest dtype that
    holds degree - 1 and grown by doubling, and they are looked up by the
    hash of their bytes, every hit checked against the stored row.  The
    closure then holds no per-element buffer that outlives it, so its
    memory is free again before the table is built.
    """
    import numpy as np

    degree = len(gens[0]) if gens else 1  # no generators: the trivial group
    gens = np.array(gens, dtype=np.int64).reshape(len(gens), degree)
    perms = np.empty((64, degree), dtype=np.min_scalar_type(max(degree - 1, 0)))
    perms[0] = np.arange(degree)
    count = 1
    index = {hash(perms[0].tobytes()): [0]}  # hash -> indices of the rows with it
    right = [[] for _ in gens]
    parent = [(0, 0)]
    m = 0
    while m < count:  # rows are added while they are walked: breadth-first order
        for g, y in enumerate(perms[m][gens]):
            bucket = index.setdefault(hash(y.tobytes()), [])
            j = next((j for j in bucket if np.array_equal(perms[j], y)), None)
            if j is None:
                _require(count < TABLE_BUDGET,
                         f"permutation closure exceeded the element budget {TABLE_BUDGET}")
                if count == len(perms):
                    grown = np.empty((2 * count, degree), dtype=perms.dtype)
                    grown[:count] = perms
                    perms = grown
                j = count
                count += 1
                perms[j] = y
                bucket.append(j)
                parent.append((m, g))
            right[g].append(j)
        m += 1
    return np.array(right, dtype=np.int64), parent


def _perm_table(gens) -> np.ndarray:
    """The table of a permutation group, filled column by column.

    For x_j = x_p * g, x_i * x_j = (x_i * x_p) * g, so column j is right[g]
    gathered at column p: n gathers of length n, from columns already filled.
    """
    import numpy as np

    right, parent = _perm_closure(gens)
    n = len(parent)
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for j, (p, g) in enumerate(parent[1:], 1):
        table[:, j] = right[g][table[:, p]]
    return table


def validate_table(rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The rows of a group's table as tuples, and the order of each element.

    Raises TableError unless rows, lists or tuples of ints, are a group's
    table.  The check is the package's one, ``tables._checked_class``, with
    Light's associativity test (n^2 products per generator), and it walks
    the element orders in the same pass.  An array is read through
    ``tolist()``; any other object is no table of any order.
    """
    from .tables import _checked_class

    if hasattr(rows, "tolist"):
        rows = rows.tolist()
    try:
        cls = _checked_class(rows, len(rows) if isinstance(rows, (list, tuple)) else 0)
    except ValueError as exc:
        raise TableError(str(exc)) from None
    return cls.table, cls.orders


def _spot_triples(law: Law, spec: GroupSpec):
    """The 10n triples of the spot check of a law, law.chunk at a time.

    They are seeded from the spec's repr, so every spec is always checked
    on the same triples: ``random.Random(repr(spec)).randbytes`` gives 12
    bytes a triple, read by ``law.triples``.  A draw of whole 32-bit words
    is the next words of one stream, so the chunks join up to one draw of
    120n bytes, whichever engine, and whatever chunk, draws them.
    """
    import random

    rng = random.Random(repr(spec))
    total = 10 * law.n
    for start in range(0, total, law.chunk):
        yield law.triples(rng.randbytes(12 * min(law.chunk, total - start)))


def _spot_check_associativity(law: Law, spec: GroupSpec) -> None:
    """Probabilistic associativity check of a law: (ab)c = a(bc) on 10n triples."""
    for a, b, c in _spot_triples(law, spec):
        if not law.same(law(law(a, b), c), law(a, law(b, c))):
            raise TableError(
                f"the law of {_label(spec, law.n)} failed an associativity spot check")


def _power_map(law: Law, idx, sq, e: int):
    """The map x -> x**e over all elements (e >= 1), by repeated squaring.

    ``idx`` is every element and ``sq`` the squaring map, so each square is
    one gather from it and only the multiplications for the set bits of e
    call the law.
    """
    out, base = None, idx
    while True:
        if e & 1:
            out = base if out is None else law(out, base)
        e >>= 1
        if not e:
            return out
        base = law.gather(sq, base)


def element_orders_of_table(law: Law):
    """Orders of all elements, found prime by prime from power maps of a law.

    For each p**a exactly dividing n, y = x**(n / p**a) has order the p-part of
    ord(x); applying the p-th power map to all the y at once, the p-part is
    p to the number of steps before y reaches the identity 0.  ord(x) is the
    product of its p-parts.  An element still not at 0 after a steps has
    x**n != e, so the law is not a group's.  A power map x -> x**e costs one
    law call per set bit of e, its squarings being gathers from the squaring
    map, and each p-th power step is one gather: the walk holds O(n) memory
    and calls the law a few times per prime, not once per power.  The orders
    are a numpy array for a Law and an ``array('q')`` for a ListLaw.
    """
    n = law.n
    idx = law.indices()
    sq = law(idx, idx)
    orders = law.ones()
    for p, a in arith.factorize(n):
        cur = _power_map(law, idx, sq, n // p**a)
        pth = _power_map(law, idx, sq, p)
        for _ in range(a):
            if not law.any(cur):
                break
            orders = law.times_where(orders, cur, p)
            cur = law.gather(pth, cur)
        if law.any(cur):  # a rejected law: find the offender on either engine
            x = next(x for x, c in enumerate(cur) if c)
            raise TableError(f"element {x} to the power {n} is not the identity: not a group")
    return orders


class Group:
    """A realized finite group: its order, spec and element orders, and its
    rows or its law.

    A group is given by a table (rows or an array) or by a Law.  A table
    gets validate_table, which checks it in full and walks its element
    orders in the same pass; the group keeps the checked rows.  A Law, on
    numpy arrays or a ListLaw on lists, is spot-checked and walked by
    element_orders_of_table.  The spec is never read for this: build_group
    hands Group rows for a table: spec and for every generated spec of
    order up to HARD_CAP.  ``element_orders`` is a read-only memoryview of
    ints either way.
    """

    __slots__ = ("order", "spec", "element_orders", "_rows", "_law")

    def __init__(self, law: Law | list | np.ndarray, spec: GroupSpec | None = None):
        if isinstance(law, Law):
            _spot_check_associativity(law, spec)
            orders = element_orders_of_table(law)
            self._rows, self._law = None, law
        else:
            self._rows, orders = validate_table(law)
            orders = array("q", orders)
            self._law = None
        self.element_orders = memoryview(orders).toreadonly()
        self.order = len(self.element_orders)
        self.spec = spec

    @property
    def law(self) -> Law:
        """The group's law on numpy arrays: read on first use from the rows
        of a group made from them, and built from the spec of a group made
        from a ListLaw."""
        if self._law is None:
            self._law = Law.of_table(self._rows)
        elif isinstance(self._law, ListLaw):
            self._law = _law_of(self.spec.factors)
        return self._law

    @property
    def table(self) -> np.ndarray:
        """The n x n multiplication table, a fresh array built from the law on each read."""
        return _table_for(self.law)

    def __repr__(self) -> str:
        return f"Group({self.label}, order={self.order})"

    @property
    def label(self) -> str:
        """The spec in the grammar, or ``order-n table`` where it has none."""
        return _label(self.spec, self.order)

    def psi(self) -> int:
        """Sum of the orders of all elements."""
        return sum(self.element_orders)

    def order_profile(self) -> dict[int, int]:
        """Map from element order d to the number of elements of that order."""
        return dict(sorted(Counter(self.element_orders).items()))

    def is_cyclic(self) -> bool:
        return max(self.element_orders) == self.order


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GroupSpecError(message)


def build_group(spec: GroupSpec, *, lists: bool = True) -> Group:
    """Realize a GroupSpec as a Group.

    The spec was checked when it was made.  A table: spec's rows are given
    to Group, which checks them in full with validate_table.  A perm:
    spec's generators are closed, and the law that gathers from the
    closure's table is spot-checked with 10n triples.  Either is a table of
    at most TABLE_BUDGET elements.  A generated spec's order decides: up to
    HARD_CAP, Group gets the rows of the list rules of ``tables``
    and checks them with validate_table; above it, Group gets the law of
    the factors and spot-checks it, a ListLaw by the same rules up to
    TABLE_BUDGET and a numpy law above.  Neither of the first two loads
    numpy.  With ``lists`` false every law is numpy's, as ``build_groups``
    builds them.
    """
    if spec.payload is not None:
        kind, data = spec.payload
        if kind == "table":
            _require_table(spec.order)
            return Group(data, spec)
        return Group(Law.of_table(_perm_table(data)), spec)
    if spec.order <= HARD_CAP:
        from .tables import _rows

        return Group(_rows(spec.factors), spec)
    if lists and spec.order <= TABLE_BUDGET:
        from .tables import _list_law

        return Group(ListLaw(*_list_law(spec.factors)), spec)
    return Group(_law_of(spec.factors), spec)


def build_groups(specs) -> list[int]:
    """The psi of each generated spec's group, in the specs' order.

    For a scan over many groups.  The specs are listed first, so a bad one
    raises when it is made, before anything is built.  The groups are then
    built, spot-checked and walked as by
    ``build_group(spec, lists=False)``, largest order first, on every CPU
    (``pool.run``); a worker keeps no law once its group is walked and
    sends back its psi alone.  A failed build, spot check or walk raises
    its own error, that of the first failing spec in the specs' order, on
    any number of CPUs, as a serial scan would.  numpy, which walks a law
    above HARD_CAP several times faster than lists do, is imported here
    before the fork rather than once in each worker.
    """
    from . import pool

    specs = list(specs)
    orders = [spec.order for spec in specs]
    if max(orders, default=0) > HARD_CAP:
        import numpy  # noqa: F401
    return pool.run(specs, lambda spec: build_group(spec, lists=False).psi(), orders)


def _check_action(m: int, k: int, a: int) -> int:
    """a mod m, after checking that x -> x**a makes C_m x| C_k a group:
    a must be a unit mod m with a**k == 1 (mod m), as in semidirect_actions.
    """
    _require(m >= 1 and k >= 1, f"semidirect orders must be >= 1: ({m}, {k})")
    aa = a % m
    _require(math.gcd(aa, m) == 1, f"action x -> x**{a} is not an automorphism of C_{m}")
    _require(pow(aa, k, m) == 1 % m, f"invalid semidirect action: {a}**{k} is not 1 mod {m}")
    return aa


def kernel_of_action(m: int, k: int, a: int) -> int:
    """Size of the centralizer of C_m inside C_k for SemidirectCyclic(m, k, a).

    The acting element j centralizes C_m exactly when a**j == 1 (mod m), so
    the centralizer has size k / multiplicative_order(a, m).
    """
    t = arith.multiplicative_order(_check_action(m, k, a), m)
    assert k % t == 0
    return k // t


# ---------------------------------------------------------------------------
# Text grammar: C12, A[2,6], D8, Q8, M(2,4), SD(5,4,2), C2xC2xC3,
# table:<path>, perm:<path>
# ---------------------------------------------------------------------------


def parse_spec(text: str) -> GroupSpec:
    """Parse the group-spec grammar used on the command line.

    Every atom of a product is read before any is made; then DirectProduct
    makes each part and checks the order so far.  One atom is a product of
    one part, whose record is that part's.
    """
    text = text.strip()
    if not text:
        raise GroupSpecError("empty group spec")
    if text.startswith("table:"):
        path = text[len("table:") :]
        return FromTable(_read_json(path, "table"), path=path)
    if text.startswith("perm:"):
        path = text[len("perm:") :]
        perms = _read_json(path, "permutation")
        if not perms or not all(isinstance(p, list) for p in perms):
            raise GroupSpecError(f"{path} must hold a JSON list of one-line permutations")
        return FromPermutations(len(perms[0]), perms, path=path)
    atoms = [_parse_atom(p) for p in text.split("x")]
    return DirectProduct(make(*args) for make, args in atoms)


def _read_json(path: str, kind: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise GroupSpecError(f"cannot read {kind} file {path}: {exc}") from exc
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; deep nesting
    # raises RecursionError.
    except (ValueError, RecursionError) as exc:
        raise GroupSpecError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def _parse_atom(text: str):
    """The constructor of one atom and its arguments, read but not checked:
    parse_spec reads every atom before it makes any, outside this ``try``."""
    text = text.strip()
    try:
        if text.startswith("C"):
            return Cyclic, (int(text[1:]),)
        if text.startswith("A[") and text.endswith("]"):
            return Abelian, ([int(v) for v in text[2:-1].split(",")],)
        if text.startswith("D"):
            return Dihedral, (int(text[1:]),)
        if text.startswith("Q"):
            return GeneralizedQuaternion, (int(text[1:]),)
        if text.startswith("M(") and text.endswith(")"):
            q, r = (int(v) for v in text[2:-1].split(","))
            return Modular, (q, r)
        if text.startswith("SD(") and text.endswith(")"):
            m, k, a = (int(v) for v in text[3:-1].split(","))
            return SemidirectCyclic, (m, k, a)
    except ValueError as exc:
        raise GroupSpecError(f"malformed group spec {text!r}: {exc}") from exc
    raise GroupSpecError(f"malformed group spec {text!r}")


def format_spec(spec: GroupSpec) -> str | None:
    """Inverse of parse_spec: the spec's text, None for a table: or perm:
    spec made with no path."""
    return spec.text


def _label(spec: GroupSpec | None, n: int) -> str:
    """The spec's text, or ``order-n table`` where there is none."""
    text = None if spec is None else spec.text
    return f"order-{n} table" if text is None else text
