"""Finite groups over index domains 0..n-1, each given by its multiplication law.

A law mul(x, y) multiplies arrays of element indices elementwise, with the
identity at index 0.  A generated group (cyclic, abelian, direct product,
semidirect, dihedral, quaternion, modular) has a closed-form law on
mixed-radix coordinates; a group read from outside (a table: file, a perm:
closure, rows given to Group) has a table, and its law gathers from it.
One engine then computes element orders, psi (the sum of element orders),
order profiles and the structural predicates the verification suites need.
There are no per-family order formulas to trust: orders come from power
maps of the law, split by prime (element_orders_of_table), in O(n) memory.
An n x n table of a generated group is built only where one is read: by
is_abelian, or by a caller of ``table``.  Groups have no table equality;
compare canonical forms (``enumeration.canonical_form``) of their rows.
Every spec has an element budget, checked before anything is built.
Every table from outside (a table: spec's rows, rows or an array given to
Group) gets the catalog's full group check, validate_table, on its Python
rows before numpy holds them; every other law is spot-checked.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import arith
from .arith import semidirect_actions  # noqa: F401  (a public name of this module too)


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
    """A table from outside.  build_group checks its entries in full, with
    validate_table, before numpy holds them; here the rows need only be a
    list of lists, to be held as tuples.
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
    elementwise; ``len(law)`` is the group order.  A law read from a table
    keeps it as ``law.table`` and multiplies by gathering from it.
    """

    __slots__ = ("n", "mul", "table")

    def __init__(self, n: int, mul, table: np.ndarray | None = None):
        self.n = n
        self.mul = mul
        self.table = table

    @classmethod
    def of_table(cls, table: np.ndarray) -> "Law":
        n, flat = len(table), table.ravel()
        return cls(n, lambda x, y: flat[x * n + y], table)

    def __len__(self) -> int:
        return self.n

    def __call__(self, x, y):
        return self.mul(x, y)


def _walkable(n: int) -> int:
    """n, once it is known to be within the budget of a law walk."""
    _require(n <= LAW_BUDGET, f"order {n} exceeds the element budget {LAW_BUDGET} of a group law")
    return n


def _require_table(n: int) -> None:
    _require(n <= TABLE_BUDGET, f"an order-{n} table exceeds the element budget {TABLE_BUDGET}")


def _cyclic_law(n: int) -> Law:
    sums = np.arange(2 * _walkable(n), dtype=np.int64) % n  # sums[x + y] = x + y mod n
    return Law(n, lambda x, y: sums[x + y])


def _product_law(la: Law, lb: Law) -> Law:
    """Direct product on mixed-radix indices (a, b) -> a * nb + b."""
    nb = lb.n
    hi, lo = divmod(np.arange(_walkable(la.n * nb), dtype=np.int64), nb)
    return Law(la.n * nb, lambda x, y: la(hi[x], hi[y]) * nb + lb(lo[x], lo[y]))


def _semidirect_law(m: int, k: int, a: int) -> Law:
    """C_m x| C_k on indices i*k + j.

    (i1, j1) * (i2, j2) = (i1 + a**j1 * i2 mod m, j1 + j2 mod k), which makes
    conjugation by the C_k generator send the C_m generator x to x**a.  The
    law gathers from arrays of O(n) entries instead of dividing: the
    coordinates of each index, a**j * i mod m at j*m + i, and sums mod m and k.
    """
    n = _walkable(m * k)
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
    return Law(_walkable(4 * h), lambda x, y: arith.dicyclic_product(h, x, y))


def _table_for(law: Law) -> np.ndarray:
    """The n x n table of a law: the law applied to the grid of all pairs."""
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
    right, parent = _perm_closure(degree, gens)
    n = len(parent)
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for j, (p, g) in enumerate(parent[1:], 1):
        table[:, j] = right[g][table[:, p]]
    return table


def validate_table(rows) -> None:
    """Raise TableError unless rows, lists or tuples of ints, are a group's table.

    The check is the catalog's, ``enumeration._checked_class``, with Light's
    associativity test (n^2 products per generator).  An array is read
    through ``tolist()``, so callers that hold Python rows pass those; any
    other object is no table of any order.
    """
    from .enumeration import _checked_class  # here, so `psi Q8` loads no enumeration

    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    try:
        _checked_class(rows, len(rows) if isinstance(rows, (list, tuple)) else 0)
    except ValueError as exc:
        raise TableError(str(exc)) from None


def _table_law(rows) -> Law:
    """The law of a table from outside, once validate_table has passed its rows."""
    validate_table(rows)  # before numpy holds the rows
    return Law.of_table(np.asarray(rows, dtype=np.int64))


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
    """A realized finite group: order, law, and cached element orders.

    A group is given by a table (rows or an array) or by a Law.  A table
    came from outside and gets validate_table on its rows before numpy
    holds them; a Law is spot-checked.  The spec is never read for this:
    build_group hands a table: spec's rows here, not a law.  The n x n
    table of a group given by a law is built from the law on first use of
    ``table``.  Element orders are filled eagerly, and a table built later
    is the same whichever thread builds it, so instances are safe to share
    across threads.
    """

    __slots__ = ("order", "law", "spec", "element_orders", "_table")

    def __init__(self, law: Law | list | np.ndarray, spec: GroupSpec | None = None):
        if isinstance(law, Law):
            _spot_check_associativity(law, spec)
        else:
            law = _table_law(law)
        if law.table is not None:
            law.table.setflags(write=False)
        self._table = law.table
        self.law = law
        self.order = law.n
        self.spec = spec
        self.element_orders = element_orders_of_table(law)
        self.element_orders.setflags(write=False)

    @property
    def table(self) -> np.ndarray:
        """The n x n multiplication table, built from the law on first use."""
        if self._table is None:
            table = _table_for(self.law)
            table.setflags(write=False)
            self._table = table
        return self._table

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Group({self.label}, order={self.order})"

    @property
    def label(self) -> str:
        """The spec in the grammar, or ``order-n table`` where it has none."""
        try:
            return format_spec(self.spec)
        except GroupSpecError:  # no spec, or an in-memory table: or perm: spec
            return f"order-{self.order} table"

    def element_order(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise IndexError(f"element index {x} out of range for order {self.order}")
        return int(self.element_orders[x])

    def psi(self) -> int:
        """Sum of the orders of all elements."""
        return int(self.element_orders.sum())

    def order_profile(self) -> dict[int, int]:
        """Map from element order d to the number of elements of that order."""
        vals, counts = np.unique(self.element_orders, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def is_cyclic(self) -> bool:
        return int(self.element_orders.max()) == self.order

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GroupSpecError(message)


def _law_for(spec: GroupSpec) -> Law:
    """The law of a spec, its order checked against the budgets first."""
    if isinstance(spec, Cyclic):
        _require(spec.n >= 1, f"cyclic order must be >= 1, got {spec.n}")
        return _cyclic_law(spec.n)

    if isinstance(spec, Abelian):
        factors = [d for d in spec.factors if d != 1]
        _require(all(d >= 1 for d in spec.factors), f"invalid invariant factors {spec.factors}")
        for d1, d2 in zip(factors, factors[1:]):
            _require(d2 % d1 == 0, f"invariant factors must form a divisibility chain: {factors}")
        return _law_for(DirectProduct(Cyclic(d) for d in factors))

    if isinstance(spec, DirectProduct):
        # Folded part by part, so an oversized product is refused after at
        # most one in-budget product and one part have been built.
        law = None
        for part in spec.parts:
            part_law = _law_for(part)
            law = part_law if law is None else _product_law(law, part_law)
        return _cyclic_law(1) if law is None else law

    if isinstance(spec, SemidirectCyclic):
        return _semidirect_law(spec.m, spec.k, _check_action(spec.m, spec.k, spec.a))

    if isinstance(spec, Dihedral):
        _require(
            spec.order >= 2 and spec.order % 2 == 0,
            f"dihedral order must be even and >= 2, got {spec.order}",
        )
        m = spec.order // 2
        return _semidirect_law(m, 2, (m - 1) % m if m > 1 else 0)

    if isinstance(spec, GeneralizedQuaternion):
        n = spec.order
        _require(
            n >= 8 and n & (n - 1) == 0,
            f"generalized quaternion order must be a power of two >= 8, got {n}",
        )
        return _dicyclic_law(n // 4)

    if isinstance(spec, Modular):
        q, r = spec.q, spec.r
        _require(arith.is_prime(q), f"modular group parameter q must be prime, got {q}")
        _require(
            r >= 4 or (r == 3 and q > 2),
            f"modular group needs r >= 4, or r = 3 with q > 2; got (q={q}, r={r})",
        )
        return _semidirect_law(q ** (r - 1), q, q ** (r - 2) + 1)

    if isinstance(spec, FromTable):  # a part of a product; build_group gives Group the rows
        _require_table(len(spec.rows))
        return _table_law(spec.rows)

    if isinstance(spec, FromPermutations):
        _require(spec.degree >= 1, f"degree must be >= 1, got {spec.degree}")
        for g in spec.generators:
            _require(
                len(g) == spec.degree and sorted(g) == list(range(spec.degree)),
                f"{g} is not a permutation of 0..{spec.degree - 1}",
            )
        return Law.of_table(_perm_table(spec.degree, spec.generators))

    raise GroupSpecError(f"unknown group spec {spec!r}")


def build_group(spec: GroupSpec) -> Group:
    """Realize a GroupSpec as a Group.

    A table: spec's rows are given to Group, which checks them with
    validate_table; every other law is spot-checked with 10n triples.
    A table: or perm: spec is held as a table of at most TABLE_BUDGET
    elements; a generated group is walked by its law, of at most LAW_BUDGET.
    """
    if isinstance(spec, FromTable):
        _require_table(len(spec.rows))
        return Group(spec.rows, spec)
    return Group(_law_for(spec), spec)


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
