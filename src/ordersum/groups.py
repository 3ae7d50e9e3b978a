"""Finite groups over index domains 0..n-1, each given by its rows or its law.

Every spec is realized one of two ways, after the same parameter checks
(``_construct``), on the same mixed-radix indices, so both give the same
table:

* as Python rows, for every spec of order at most ``HARD_CAP`` (the
  catalog's table bound) and every table: file.  The family rules of
  ``tables``, which the catalog names its classes by, give a generated
  spec's rows, and the catalog's full group check, ``validate_table``
  (Latin and identity checks, Light's associativity test and the order
  walk), checks the rows and walks their element orders in one pass.  This
  path loads neither numpy nor the catalog layer;
* as a law, for every larger generated spec and every perm: closure.  A
  law mul(x, y) multiplies numpy arrays of element indices elementwise,
  with the identity at index 0: closed-form on the coordinates for a
  generated group, a gather from the table for a perm: closure.  A law is
  spot-checked, and its element orders come from power maps, split by
  prime (``element_orders_of_table``), in O(n) memory.

numpy is imported only inside the functions that build or walk a law.
There are no per-family order formulas to trust: orders are walked on the
rows or the law.  A Group keeps its element orders and its rows or law;
``law`` of a group made from rows is read from them on first use, and
``table`` builds the n x n table from the law afresh on each read.  Groups
have no table equality; compare canonical forms
(``enumeration.canonical_form``) of their rows.  Every spec has an element
budget, checked before anything is built.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from . import HARD_CAP, arith


class GroupSpecError(ValueError):
    """Raised for invalid group construction parameters."""


class TableError(ValueError):
    """Raised when an explicit multiplication table violates a group axiom."""


# ---------------------------------------------------------------------------
# Group specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Abelian:
    """Abelian group given by invariant factors d1 | d2 | ... | dr."""

    factors: tuple[int, ...]

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(int(d) for d in factors))


@dataclass(frozen=True)
class DirectProduct:
    parts: tuple["GroupSpec", ...]

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class SemidirectCyclic:
    """C_m  x|  C_k where the C_k generator acts on C_m by x -> x**a."""

    m: int
    k: int
    a: int


@dataclass(frozen=True)
class Dihedral:
    """Dihedral group; the argument is the group order 2m."""

    order: int


@dataclass(frozen=True)
class GeneralizedQuaternion:
    """Generalized quaternion group of order 2**m >= 8."""

    order: int


@dataclass(frozen=True)
class Modular:
    """Modular group of order q**r: <a, b | a^(q^(r-1)) = b^q = 1, a^b = a^(q^(r-2)+1)>.

    Defined for r >= 4, or r = 3 with q > 2 (the order-8 case would degenerate
    to the dihedral group and is rejected).
    """

    q: int
    r: int


@dataclass(frozen=True)
class FromTable:
    """A table from outside.  build_group hands its rows to Group, which
    checks its entries in full with validate_table; here the rows need only
    be a list of lists, to be held as tuples.
    """

    rows: tuple[tuple[int, ...], ...]
    path: str | None = None

    def __init__(self, rows, path=None):
        _require(
            isinstance(rows, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in rows),
            f"{path or 'a table'} must hold a JSON list of lists",
        )
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "path", path)


@dataclass(frozen=True)
class FromPermutations:
    """Group generated by permutations of 0..degree-1 in one-line notation."""

    degree: int
    generators: tuple[tuple[int, ...], ...]
    path: str | None = None

    def __init__(self, degree, generators, path=None):
        # Entries are checked, never converted: int(0.9) would read 0.  A bool
        # is an int subclass, so `type(v) is int` also rejects true and false.
        _require(
            isinstance(generators, (list, tuple)) and all(
                isinstance(g, (list, tuple)) and all(type(v) is int for v in g)
                for g in generators),
            f"{path or 'a permutation list'} must hold a JSON list of lists of integers",
        )
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "generators", tuple(map(tuple, generators)))
        object.__setattr__(self, "path", path)


GroupSpec = Union[
    Cyclic,
    Abelian,
    DirectProduct,
    SemidirectCyclic,
    Dihedral,
    GeneralizedQuaternion,
    Modular,
    FromTable,
    FromPermutations,
]


# ---------------------------------------------------------------------------
# Group laws (identity is always element 0)
# ---------------------------------------------------------------------------

# Largest order whose n x n table is built (32 MB of int64): perm: closures,
# table: files, and the grid of a law where a table is read.
TABLE_BUDGET = 2048
# Largest order a law is walked at: the walk holds a few n-element arrays.
LAW_BUDGET = 1 << 20


class Law:
    """A group law on element indices 0..n-1, with the identity at 0.

    ``law(x, y)`` multiplies integer arrays that broadcast together,
    elementwise; ``len(law)`` is the group order (``_construct`` and the
    benchmark's tracing read it).  A law read from a table multiplies by
    gathering from it.
    """

    __slots__ = ("n", "mul")

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


def _walkable(n: int) -> None:
    """Refuse an order past the budget of a law walk."""
    _require(n <= LAW_BUDGET, f"order {n} exceeds the element budget {LAW_BUDGET} of a group law")


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


def _semidirect_law(m: int, k: int, a: int) -> Law:
    """C_m x| C_k on indices i*k + j.

    (i1, j1) * (i2, j2) = (i1 + a**j1 * i2 mod m, j1 + j2 mod k), which makes
    conjugation by the C_k generator send the C_m generator x to x**a.  The
    law gathers from arrays of O(n) entries instead of dividing: the
    coordinates of each index, a**j * i mod m at j*m + i, and sums mod m and k.
    """
    import numpy as np

    n = m * k
    apow = np.array([pow(a, j, m) for j in range(k)], dtype=np.int64)
    act = (apow[:, None] * np.arange(m, dtype=np.int64) % m).ravel()
    i, j = divmod(np.arange(n, dtype=np.int64), k)
    jm = j * m
    sum_m = np.arange(2 * m, dtype=np.int64) % m * k  # (i1 + i2 mod m) * k
    sum_k = np.arange(2 * k, dtype=np.int64) % k

    def mul(x, y):
        return sum_m[i[x] + act[jm[x] + i[y]]] + sum_k[j[x] + j[y]]

    return Law(n, mul)


def _dicyclic_law(h: int) -> Law:
    """Dicyclic group of order 4h, by the rule the catalog's tables share."""
    return Law(4 * h, lambda x, y: arith.dicyclic_product(h, x, y))


def _table_for(law: Law) -> np.ndarray:
    """The n x n table of a law: the law applied to the grid of all pairs."""
    import numpy as np

    _require_table(law.n)
    r = np.arange(law.n, dtype=np.int64)
    return law(r[:, None], r[None, :])


def _perm_closure(degree: int, gens) -> tuple[np.ndarray, list[tuple[int, int]]]:
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


def _perm_table(degree: int, gens) -> np.ndarray:
    """The table of a permutation group, filled column by column.

    For x_j = x_p * g, x_i * x_j = (x_i * x_p) * g, so column j is right[g]
    gathered at column p: n gathers of length n, from columns already filled.
    """
    import numpy as np

    right, parent = _perm_closure(degree, gens)
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


def _table_law(rows) -> Law:
    """The law of a table from outside, once validate_table has passed its rows."""
    table, _ = validate_table(rows)  # before numpy holds the rows
    return Law.of_table(table)


# Triples drawn and checked at a time, so the check holds O(1) extra memory.
_SPOT_CHUNK = 1 << 16


def _spot_check_associativity(law: Law, spec: GroupSpec) -> None:
    """Probabilistic associativity check of a law: 10n triples.

    The triples are splitmix64 of a counter, scaled to 0..n-1 by their top
    32 bits (n <= LAW_BUDGET < 2**32) and seeded from the spec's repr, so
    every spec is always checked on the same triples.  (Only the seed comes
    from the stdlib generator: importing hashlib or numpy.random costs more
    memory or time than a typical check.)
    """
    import random

    import numpy as np

    n = law.n
    seed = np.uint64(random.Random(repr(spec)).getrandbits(64))
    for start in range(0, 10 * n, _SPOT_CHUNK):
        stop = min(start + _SPOT_CHUNK, 10 * n)
        u = np.arange(3 * start, 3 * stop, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + seed
        u = (u ^ (u >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        u = (u ^ (u >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        u = ((u ^ (u >> np.uint64(31))) >> np.uint64(32)) * np.uint64(n) >> np.uint64(32)
        a, b, c = u.astype(np.int64).reshape(-1, 3).T
        if not np.array_equal(law(law(a, b), c), law(a, law(b, c))):
            raise TableError(f"the law of {spec!r} failed an associativity spot check")


def _power_map(law: Law, sq: np.ndarray, e: int) -> np.ndarray:
    """The map x -> x**e over all elements (e >= 1), by repeated squaring.

    ``sq`` is the squaring map, so each square is one gather from it and
    only the multiplications for the set bits of e call the law.
    """
    import numpy as np

    out, base = None, np.arange(law.n, dtype=np.int64)
    while True:
        if e & 1:
            out = base if out is None else law(out, base)
        e >>= 1
        if not e:
            return out
        base = sq[base]


def element_orders_of_table(law: Law) -> np.ndarray:
    """Orders of all elements, found prime by prime from power maps of a law.

    For each p**a exactly dividing n, y = x**(n / p**a) has order the p-part of
    ord(x); applying the p-th power map to all the y at once, the p-part is
    p to the number of steps before y reaches the identity 0.  ord(x) is the
    product of its p-parts.  An element still not at 0 after a steps has
    x**n != e, so the law is not a group's.  A power map x -> x**e costs one
    law call per set bit of e, its squarings being gathers from the squaring
    map, and each p-th power step is one gather: the walk holds O(n) memory
    and calls the law a few times per prime, not once per power.
    """
    import numpy as np

    n = law.n
    idx = np.arange(n, dtype=np.int64)
    sq = law(idx, idx)
    orders = np.ones(n, dtype=np.int64)
    for p, a in arith.factorize(n):
        cur = _power_map(law, sq, n // p**a)
        pth = _power_map(law, sq, p)
        for _ in range(a):
            live = cur != 0
            if not live.any():
                break
            orders[live] *= p
            cur = pth[cur]
        if cur.any():
            x = int(np.flatnonzero(cur)[0])
            raise TableError(f"element {x} to the power {n} is not the identity: not a group")
    return orders


class Group:
    """A realized finite group: its order, spec and element orders, and its
    rows or its law.

    A group is given by a table (rows or an array) or by a Law.  A table
    gets validate_table, which checks it in full and walks its element
    orders in the same pass; the group keeps the checked rows.  A Law is
    spot-checked and walked by element_orders_of_table.  The spec is never
    read for this: build_group hands Group rows for a table: spec and for
    every spec of order up to HARD_CAP.  ``element_orders`` is a read-only
    memoryview of ints either way.
    """

    __slots__ = ("order", "spec", "element_orders", "_rows", "_law")

    def __init__(self, law: Law | list | np.ndarray, spec: GroupSpec | None = None):
        if isinstance(law, Law):
            _spot_check_associativity(law, spec)
            orders = element_orders_of_table(law)
            orders.setflags(write=False)
            self._rows, self._law = None, law
            self.element_orders = memoryview(orders)
        else:
            self._rows, orders = validate_table(law)
            self._law = None
            self.element_orders = memoryview(array("q", orders)).toreadonly()
        self.order = len(self.element_orders)
        self.spec = spec

    @property
    def law(self) -> Law:
        """The group's law; one made from rows gathers from them, read on first use."""
        if self._law is None:
            self._law = Law.of_table(self._rows)
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
        try:
            return format_spec(self.spec)
        except GroupSpecError:  # no spec, or a table: or perm: spec it cannot print
            return f"order-{self.order} table"

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


class _Rules(NamedTuple):
    """How ``_construct`` realizes what a spec describes.

    ``fits(n)`` is called with each order before anything of that order is
    built; the other rules build C_n, the product of two built groups, C_m
    x| C_k with the action x -> x**a, the dicyclic group of order 4h, a
    table from outside and a permutation closure.
    """

    fits: Callable
    cyclic: Callable
    product: Callable
    semidirect: Callable
    dicyclic: Callable
    table: Callable
    perm: Callable


_LAWS = _Rules(_walkable, _cyclic_law, _product_law, _semidirect_law, _dicyclic_law,
               _table_law, lambda degree, gens: Law.of_table(_perm_table(degree, gens)))


class _UseLaw(Exception):
    """A construction that only the law path builds."""


def _fits_rows(n: int) -> None:
    if n > HARD_CAP:
        raise _UseLaw


def _perm_rows(degree: int, gens):
    raise _UseLaw


def _table_rule(name: str) -> Callable:
    """The family table rule of that name in ``tables``, imported when it first builds."""
    def rule(*args):
        from . import tables

        return getattr(tables, name)(*args)

    return rule


# The rules as Python rows: the family rules of ``tables``, which give the
# tables of the laws, and a table from outside as validate_table returns it.
# An order above HARD_CAP raises _UseLaw before anything of it is built, and
# so does a perm: closure, which the law path builds.
_ROWS = _Rules(_fits_rows, _table_rule("_cyclic_table"), _table_rule("_product_table"),
               _table_rule("_semidirect_table"), _table_rule("_dicyclic_table"),
               lambda rows: validate_table(rows)[0], _perm_rows)


def _construct(spec: GroupSpec, rules: _Rules):
    """Check a spec's parameters and budgets, and realize it by the rules.

    Every check comes before what it guards is built, in the same order on
    both paths, so a spec is refused with the same message on either.
    """
    if isinstance(spec, Cyclic):
        _require(spec.n >= 1, f"cyclic order must be >= 1, got {spec.n}")
        rules.fits(spec.n)
        return rules.cyclic(spec.n)

    if isinstance(spec, Abelian):
        factors = [d for d in spec.factors if d != 1]
        _require(all(d >= 1 for d in spec.factors), f"invalid invariant factors {spec.factors}")
        for d1, d2 in zip(factors, factors[1:]):
            _require(d2 % d1 == 0, f"invariant factors must form a divisibility chain: {factors}")
        return _construct(DirectProduct(Cyclic(d) for d in factors), rules)

    if isinstance(spec, DirectProduct):
        # Folded part by part, so an oversized product is refused after at
        # most one in-budget product and one part have been built.
        built = None
        for part in spec.parts:
            part_built = _construct(part, rules)
            if built is None:
                built = part_built
            else:
                rules.fits(len(built) * len(part_built))
                built = rules.product(built, part_built)
        return rules.cyclic(1) if built is None else built

    if isinstance(spec, SemidirectCyclic):
        a = _check_action(spec.m, spec.k, spec.a)
        rules.fits(spec.m * spec.k)
        return rules.semidirect(spec.m, spec.k, a)

    if isinstance(spec, Dihedral):
        _require(
            spec.order >= 2 and spec.order % 2 == 0,
            f"dihedral order must be even and >= 2, got {spec.order}",
        )
        m = spec.order // 2
        rules.fits(spec.order)
        return rules.semidirect(m, 2, (m - 1) % m if m > 1 else 0)

    if isinstance(spec, GeneralizedQuaternion):
        n = spec.order
        _require(
            n >= 8 and n & (n - 1) == 0,
            f"generalized quaternion order must be a power of two >= 8, got {n}",
        )
        rules.fits(n)
        return rules.dicyclic(n // 4)

    if isinstance(spec, Modular):
        q, r = spec.q, spec.r
        _require(arith.is_prime(q), f"modular group parameter q must be prime, got {q}")
        _require(
            r >= 4 or (r == 3 and q > 2),
            f"modular group needs r >= 4, or r = 3 with q > 2; got (q={q}, r={r})",
        )
        rules.fits(q**r)
        return rules.semidirect(q ** (r - 1), q, q ** (r - 2) + 1)

    if isinstance(spec, FromTable):  # a part of a product; build_group gives Group the rows
        _require_table(len(spec.rows))
        rules.fits(len(spec.rows))
        return rules.table(spec.rows)

    if isinstance(spec, FromPermutations):
        _require(spec.degree >= 1, f"degree must be >= 1, got {spec.degree}")
        for g in spec.generators:
            _require(
                len(g) == spec.degree and sorted(g) == list(range(spec.degree)),
                f"{g} is not a permutation of 0..{spec.degree - 1}",
            )
        return rules.perm(spec.degree, spec.generators)

    raise GroupSpecError(f"unknown group spec {spec!r}")


def _law_for(spec: GroupSpec) -> Law:
    """The law of a spec, its order checked against the budgets first."""
    return _construct(spec, _LAWS)


def build_group(spec: GroupSpec) -> Group:
    """Realize a GroupSpec as a Group.

    A table: spec's rows, and the rows the family rules of ``tables`` give
    a spec of order at most HARD_CAP, are given to Group, which checks them
    in full with validate_table; no numpy is loaded for them.  A larger
    generated spec, or one with a perm: part, is built as a law and
    spot-checked with 10n triples.  A table: or perm: spec is held as a
    table of at most TABLE_BUDGET elements; a law has at most LAW_BUDGET.
    """
    if isinstance(spec, FromTable):
        _require_table(len(spec.rows))
        return Group(spec.rows, spec)
    try:
        rows = _construct(spec, _ROWS)
    except _UseLaw:
        return Group(_law_for(spec), spec)
    return Group(rows, spec)


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
    """Parse the group-spec grammar used on the command line."""
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
    parts = [_parse_atom(p) for p in text.split("x")]
    if len(parts) == 1:
        return parts[0]
    return DirectProduct(parts)


def _read_json(path: str, kind: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise GroupSpecError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GroupSpecError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def _parse_atom(text: str) -> GroupSpec:
    text = text.strip()
    try:
        if text.startswith("C"):
            return Cyclic(int(text[1:]))
        if text.startswith("A[") and text.endswith("]"):
            return Abelian(int(v) for v in text[2:-1].split(","))
        if text.startswith("D"):
            return Dihedral(int(text[1:]))
        if text.startswith("Q"):
            return GeneralizedQuaternion(int(text[1:]))
        if text.startswith("M(") and text.endswith(")"):
            q, r = (int(v) for v in text[2:-1].split(","))
            return Modular(q, r)
        if text.startswith("SD(") and text.endswith(")"):
            m, k, a = (int(v) for v in text[3:-1].split(","))
            return SemidirectCyclic(m, k, a)
    except ValueError as exc:
        raise GroupSpecError(f"malformed group spec {text!r}: {exc}") from exc
    raise GroupSpecError(f"malformed group spec {text!r}")


def format_spec(spec: GroupSpec) -> str:
    """Inverse of parse_spec for every spec the grammar can express."""
    if isinstance(spec, Cyclic):
        return f"C{spec.n}"
    if isinstance(spec, Abelian):
        return "A[" + ",".join(str(d) for d in spec.factors) + "]"
    if isinstance(spec, DirectProduct):
        _require(not any(isinstance(p, (FromTable, FromPermutations)) for p in spec.parts),
                 "the grammar has no product with a table: or perm: part")
        return "x".join(format_spec(p) for p in spec.parts)
    if isinstance(spec, SemidirectCyclic):
        return f"SD({spec.m},{spec.k},{spec.a})"
    if isinstance(spec, Dihedral):
        return f"D{spec.order}"
    if isinstance(spec, GeneralizedQuaternion):
        return f"Q{spec.order}"
    if isinstance(spec, Modular):
        return f"M({spec.q},{spec.r})"
    if isinstance(spec, FromTable):
        if spec.path is None:
            raise GroupSpecError("cannot format an in-memory table spec")
        return f"table:{spec.path}"
    if isinstance(spec, FromPermutations):
        if spec.path is None:
            raise GroupSpecError("cannot format an in-memory permutation spec")
        return f"perm:{spec.path}"
    raise GroupSpecError(f"unknown group spec {spec!r}")
