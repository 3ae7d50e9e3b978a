"""Finite groups over index domains 0..n-1, each given by its multiplication law.

A law mul(x, y) multiplies arrays of element indices elementwise, with the
identity at index 0.  A generated group (cyclic, abelian, direct product,
semidirect, dihedral, quaternion, modular) has a closed-form law on
mixed-radix coordinates; a group read from outside (a table: file, a perm:
closure, a catalog class, a canonical form) has a table, and its law gathers
from it.  One engine then computes element orders, psi (the sum of element
orders), order profiles and the structural predicates the verification
suites need.  There are no per-family order formulas to trust: orders come
from power maps of the law, split by prime (element_orders_of_table), in
O(n) memory.  An n x n table of a generated group is built only where one
is read: canonical forms, is_abelian, equality and hashing, and catalog
JSON.  Every spec has an element budget, checked before anything is built.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import arith


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
    rows: tuple[tuple[int, ...], ...]
    path: str | None = None

    def __init__(self, rows, path=None):
        name = path or "a table"
        rows = _integer_rows(rows, f"{name} must hold a JSON list of lists of integers")
        # Checked before numpy sees them: an entry past 64 bits would overflow.
        _require(
            all(0 <= v < len(rows) for r in rows for v in r),
            f"{name} has an entry outside 0..{len(rows) - 1}",
        )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "path", path)


@dataclass(frozen=True)
class FromPermutations:
    """Group generated by permutations of 0..degree-1 in one-line notation."""

    degree: int
    generators: tuple[tuple[int, ...], ...]
    path: str | None = None

    def __init__(self, degree, generators, path=None):
        generators = _integer_rows(
            generators, f"{path or 'a permutation list'} must hold a JSON list of lists of integers"
        )
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "path", path)


def _integer_rows(rows, message: str) -> tuple[tuple[int, ...], ...]:
    """``rows`` as a tuple of tuples, if it is a list of lists of integers.

    Entries are checked, never converted: int(0.9) would read 0.  A bool is
    an int subclass, so `type(v) is int` also rejects true and false.
    """
    _require(
        isinstance(rows, (list, tuple)) and all(
            isinstance(r, (list, tuple)) and all(type(v) is int for v in r) for r in rows),
        message,
    )
    return tuple(tuple(r) for r in rows)


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


def _require_table(n: int, budget: int) -> None:
    _require(n <= budget, f"an order-{n} table exceeds the element budget {budget}")


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
    """Dicyclic group of order 4h: <a, b | a^(2h) = 1, b^2 = a^h, bab^-1 = a^-1>.

    Indices encode (i, j) with i in Z_(2h), j in {0, 1} as i*2 + j.
    """
    n2 = 2 * h

    def mul(x, y):
        i1, j1, i2, j2 = x >> 1, x & 1, y >> 1, y & 1
        return (i1 + (1 - 2 * j1) * i2 + h * (j1 & j2)) % n2 * 2 + (j1 ^ j2)

    return Law(_walkable(4 * h), mul)


def _table_for(law: Law) -> np.ndarray:
    """The n x n table of a law: the law applied to the grid of all pairs."""
    _require_table(law.n, TABLE_BUDGET)
    r = np.arange(law.n, dtype=np.int64)
    return law(r[:, None], r[None, :])


def _perm_closure(degree: int, gens, budget: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Breadth-first closure of the generated permutation group, identity first.

    Products are composites, (x * y)(t) = x(y(t)).  Returns (right, parent):
    right[g][m] is the index of x_m * gens[g], and each element j > 0 was
    first reached as x_j = x_p * gens[g], where (p, g) = parent[j].
    """
    gens = np.array(gens, dtype=np.int64).reshape(len(gens), degree)
    perms = [np.arange(degree, dtype=np.int64).tobytes()]  # element index -> bytes
    index = {perms[0]: 0}
    right = [[] for _ in gens]
    parent = [(0, 0)]
    for m, x in enumerate(perms):  # grows while it is walked: breadth-first order
        for g, y in enumerate(np.frombuffer(x, dtype=np.int64)[gens]):
            key = y.tobytes()
            j = index.get(key)
            if j is None:
                if len(perms) >= budget:
                    raise GroupSpecError(
                        f"permutation closure exceeded the element budget {budget}"
                    )
                j = index[key] = len(perms)
                perms.append(key)
                parent.append((m, g))
            right[g].append(j)
    return np.array(right, dtype=np.int64), parent


def _perm_table(degree: int, gens, budget: int) -> np.ndarray:
    """The table of a permutation group, filled column by column.

    For x_j = x_p * g, x_i * x_j = (x_i * x_p) * g, so column j is right[g]
    gathered at column p: n gathers of length n, from columns already filled.
    """
    right, parent = _perm_closure(degree, gens, budget)
    n = len(parent)
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for j, (p, g) in enumerate(parent[1:], 1):
        table[:, j] = right[g][table[:, p]]
    return table


def validate_table(rows: np.ndarray) -> None:
    """Full group-axiom check: identity at 0, Latin rows/cols, associativity.

    Raises TableError naming the first violated axiom.  O(n^3) but chunked
    row by row, so fine at the table sizes this package handles.  Inverses
    need no check of their own: a row that is a permutation of 0..n-1
    contains the identity.
    """
    n = len(rows)
    if n == 0:
        raise TableError("a group table needs at least the identity element")
    if rows.shape != (n, n):
        raise TableError(f"table is not square: shape {rows.shape}")
    if rows.min() < 0 or rows.max() >= n:
        raise TableError("table entries must be element indices in 0..n-1")
    idx = np.arange(n, dtype=np.int64)
    if not np.array_equal(rows[0], idx) or not np.array_equal(rows[:, 0], idx):
        raise TableError("element 0 is not a two-sided identity")
    if not np.array_equal(np.sort(rows, axis=1), np.tile(idx, (n, 1))):
        raise TableError("some row is not a permutation of 0..n-1")
    if not np.array_equal(np.sort(rows, axis=0), np.tile(idx[:, None], (1, n))):
        raise TableError("some column is not a permutation of 0..n-1")
    for a in range(n):
        # (a*b)*c vs a*(b*c) for all b, c at once.
        left = rows[rows[a]]  # left[b, c] = (a*b)*c
        right = rows[a][rows]  # right[b, c] = a*(b*c)
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            raise TableError(f"associativity fails at ({a}, {int(b)}, {int(c)})")


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

    A group is given by a table or by a Law.  A table with no spec, or from a
    FromTable spec, came from outside and gets the full axiom check; any
    other law is spot-checked.  The n x n table of a group given by a law is
    built from the law on first use of ``table``.  Element orders are filled
    eagerly, and a table built later is the same whichever thread builds it,
    so instances are safe to share across threads.
    """

    __slots__ = ("order", "law", "spec", "element_orders", "_table")

    def __init__(self, law: Law | np.ndarray, spec: GroupSpec | None = None):
        if not isinstance(law, Law):
            law = Law.of_table(np.asarray(law, dtype=np.int64))
        table = law.table
        if table is not None and (spec is None or isinstance(spec, FromTable)):
            validate_table(table)
        else:
            if table is not None and table.shape != (law.n, law.n):
                raise TableError(f"table is not square: shape {table.shape}")
            if law.n > 0:
                _spot_check_associativity(law, spec)
        if table is not None:
            table.setflags(write=False)
        self._table = table
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
        label = format_spec(self.spec) if self.spec is not None else "table"
        return f"Group({label}, order={self.order})"

    def __eq__(self, other) -> bool:
        """Groups are equal when their tables are; the spec is not compared."""
        if not isinstance(other, Group):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        return hash(self.table.tobytes())

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


def _law_for(spec: GroupSpec, element_budget: int) -> Law:
    """The law of a spec, its order checked against the budgets first."""
    if isinstance(spec, Cyclic):
        _require(spec.n >= 1, f"cyclic order must be >= 1, got {spec.n}")
        return _cyclic_law(spec.n)

    if isinstance(spec, Abelian):
        factors = [d for d in spec.factors if d != 1]
        _require(all(d >= 1 for d in spec.factors), f"invalid invariant factors {spec.factors}")
        for d1, d2 in zip(factors, factors[1:]):
            _require(d2 % d1 == 0, f"invariant factors must form a divisibility chain: {factors}")
        return _law_for(DirectProduct(Cyclic(d) for d in factors), element_budget)

    if isinstance(spec, DirectProduct):
        # Folded part by part, so an oversized product is refused after at
        # most one in-budget product and one part have been built.
        law = None
        for part in spec.parts:
            part_law = _law_for(part, element_budget)
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

    if isinstance(spec, FromTable):
        _require_table(len(spec.rows), element_budget)
        return Law.of_table(np.array(spec.rows, dtype=np.int64))

    if isinstance(spec, FromPermutations):
        _require(spec.degree >= 1, f"degree must be >= 1, got {spec.degree}")
        for g in spec.generators:
            _require(
                len(g) == spec.degree and sorted(g) == list(range(spec.degree)),
                f"{g} is not a permutation of 0..{spec.degree - 1}",
            )
        return Law.of_table(_perm_table(spec.degree, spec.generators, element_budget))

    raise GroupSpecError(f"unknown group spec {spec!r}")


def build_group(spec: GroupSpec, *, element_budget: int = TABLE_BUDGET) -> Group:
    """Realize a GroupSpec as a Group.

    Explicit tables get the full O(n^3) axiom check; every other law is
    spot-checked with 10n random associativity triples.  ``element_budget``
    caps the tables of table: and perm: specs; a generated group is walked
    by its law up to LAW_BUDGET elements.
    """
    return Group(_law_for(spec, element_budget), spec)


def _check_action(m: int, k: int, a: int) -> int:
    """a mod m, after checking that x -> x**a makes C_m x| C_k a group:
    a must be a unit mod m with a**k == 1 (mod m), as in semidirect_actions.
    """
    _require(m >= 1 and k >= 1, f"semidirect orders must be >= 1: ({m}, {k})")
    aa = a % m
    _require(math.gcd(aa, m) == 1, f"action x -> x**{a} is not an automorphism of C_{m}")
    _require(pow(aa, k, m) == 1 % m, f"invalid semidirect action: {a}**{k} is not 1 mod {m}")
    return aa


def semidirect_actions(m: int, k: int) -> list[int]:
    """Every a in 1..m-1 for which SemidirectCyclic(m, k, a) is a group."""
    return [a for a in range(1, m) if math.gcd(a, m) == 1 and pow(a, k, m) == 1]


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
