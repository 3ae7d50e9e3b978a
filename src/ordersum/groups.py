"""Finite group realization over index domains 0..n-1.

Every group, however it is specified, is realized as an explicit n x n
multiplication table on element indices with the identity at index 0.  One
uniform engine then computes element orders, psi (the sum of element
orders), order profiles and the structural predicates the verification
suites need.  There are no per-family order formulas to trust: orders are
always found by walking the table.
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
# Table builders (identity is always element 0)
# ---------------------------------------------------------------------------


def _cyclic_table(n: int) -> np.ndarray:
    r = np.arange(n, dtype=np.int64)
    return (r[:, None] + r[None, :]) % n


def _product_table(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Direct product on mixed-radix indices (a, b) -> a * nb + b."""
    na, nb = len(ta), len(tb)
    out = ta[:, None, :, None] * nb + tb[None, :, None, :]
    return out.reshape(na * nb, na * nb)


def _semidirect_table(m: int, k: int, a: int) -> np.ndarray:
    """Table of C_m x| C_k on indices i*k + j.

    (i1, j1) * (i2, j2) = (i1 + a**j1 * i2 mod m, j1 + j2 mod k), which makes
    conjugation by the C_k generator send the C_m generator x to x**a.
    """
    apow = np.array([pow(a, j, m) for j in range(k)], dtype=np.int64)
    e = np.arange(m * k, dtype=np.int64)
    i, j = e // k, e % k
    i1, j1 = i[:, None], j[:, None]
    i2, j2 = i[None, :], j[None, :]
    return ((i1 + apow[j][:, None] * i2) % m) * k + (j1 + j2) % k


def _dicyclic_table(h: int) -> np.ndarray:
    """Dicyclic group of order 4h: <a, b | a^(2h) = 1, b^2 = a^h, bab^-1 = a^-1>.

    Indices encode (i, j) with i in Z_(2h), j in {0, 1} as i*2 + j.
    """
    n2 = 2 * h
    e = np.arange(4 * h, dtype=np.int64)
    i, j = e // 2, e % 2
    i1, j1 = i[:, None], j[:, None]
    i2, j2 = i[None, :], j[None, :]
    sign = 1 - 2 * j1
    return ((i1 + sign * i2 + h * (j1 & j2)) % n2) * 2 + (j1 ^ j2)


def _perm_closure(degree: int, gens, budget: int) -> list[tuple[int, ...]]:
    """BFS closure of the generated permutation group, identity first."""
    ident = tuple(range(degree))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(x[g[i]] for i in range(degree))
                if y not in seen:
                    if len(elems) >= budget:
                        raise GroupSpecError(
                            f"permutation closure exceeded the element budget {budget}"
                        )
                    seen.add(y)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def validate_table(rows: np.ndarray) -> None:
    """Full group-axiom check: identity at 0, Latin rows/cols, associativity.

    Raises TableError naming the first violated axiom.  O(n^3) but chunked
    row by row, so fine at the table sizes this package handles.
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
    for a in range(n):
        if not (rows[a] == 0).any():
            raise TableError(f"element {a} has no inverse")


def _spot_check_associativity(rows: np.ndarray, spec: GroupSpec) -> None:
    """Probabilistic associativity check for generated tables: 10n triples.

    The triples come from one draw of random bytes, seeded by the spec's
    repr, so every spec is always checked on the same triples.  (The stdlib
    generator is used because importing numpy.random costs more than a
    typical check.)
    """
    n = len(rows)
    draw = random.Random(repr(spec)).randbytes(8 * 3 * 10 * n)
    a, b, c = (np.frombuffer(draw, dtype=np.uint64) % n).astype(np.int64).reshape(3, -1)
    if not np.array_equal(rows[rows[a, b], c], rows[a, rows[b, c]]):
        raise TableError(f"generated table for {spec!r} failed an associativity spot check")


def element_orders_of_table(rows: np.ndarray) -> np.ndarray:
    """Orders of all elements, by simultaneous table walks.

    cur[x] tracks x**t; an element's order is the first t with x**t == 0.
    Total work is bounded by n * max_order.
    """
    n = len(rows)
    idx = np.arange(n, dtype=np.int64)
    cur = idx.copy()
    orders = np.zeros(n, dtype=np.int64)
    orders[0] = 1
    t = 1
    while (orders == 0).any():
        t += 1
        if t > n:
            raise TableError("order walk exceeded the group order; table is not a group")
        active = orders == 0
        cur[active] = rows[idx[active], cur[active]]
        orders[(cur == 0) & active] = t
    return orders


class Group:
    """A realized finite group: order, table, and cached element orders.

    Immutable after construction; the element-order cache is filled eagerly
    so instances are safe to share across threads.
    """

    __slots__ = ("order", "table", "spec", "element_orders", "_profile")

    def __init__(self, table: np.ndarray, spec: GroupSpec | None = None, check: str = "spot"):
        table = np.asarray(table, dtype=np.int64)
        if check == "full":
            validate_table(table)
        else:
            n = len(table)
            if table.shape != (n, n):
                raise TableError(f"table is not square: shape {table.shape}")
            if check == "spot" and n > 0 and spec is not None:
                _spot_check_associativity(table, spec)
        table.setflags(write=False)
        self.table = table
        self.order = len(table)
        self.spec = spec
        self.element_orders = element_orders_of_table(table)
        self.element_orders.setflags(write=False)
        # Lagrange, kept as a runtime assertion on every construction.
        assert (self.order % self.element_orders == 0).all()
        self._profile = None

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = format_spec(self.spec) if self.spec is not None else "table"
        return f"Group({label}, order={self.order})"

    def __eq__(self, other) -> bool:
        """Groups are equal when their tables are; the spec is not compared."""
        if not isinstance(other, Group):
            return NotImplemented
        return np.array_equal(self.table, other.table)

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
        if self._profile is None:
            vals, counts = np.unique(self.element_orders, return_counts=True)
            self._profile = {int(v): int(c) for v, c in zip(vals, counts)}
        return dict(self._profile)

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


def _table_for(spec: GroupSpec, element_budget: int) -> np.ndarray:
    if isinstance(spec, Cyclic):
        _require(spec.n >= 1, f"cyclic order must be >= 1, got {spec.n}")
        return _cyclic_table(spec.n)

    if isinstance(spec, Abelian):
        factors = [d for d in spec.factors if d != 1]
        _require(all(d >= 1 for d in spec.factors), f"invalid invariant factors {spec.factors}")
        for d1, d2 in zip(factors, factors[1:]):
            _require(d2 % d1 == 0, f"invariant factors must form a divisibility chain: {factors}")
        return _table_for(DirectProduct(Cyclic(d) for d in factors), element_budget)

    if isinstance(spec, DirectProduct):
        table = _cyclic_table(1)
        for part in spec.parts:
            table = _product_table(table, _table_for(part, element_budget))
        return table

    if isinstance(spec, SemidirectCyclic):
        return _semidirect_table(spec.m, spec.k, _check_action(spec.m, spec.k, spec.a))

    if isinstance(spec, Dihedral):
        _require(
            spec.order >= 2 and spec.order % 2 == 0,
            f"dihedral order must be even and >= 2, got {spec.order}",
        )
        m = spec.order // 2
        return _semidirect_table(m, 2, (m - 1) % m if m > 1 else 0)

    if isinstance(spec, GeneralizedQuaternion):
        n = spec.order
        _require(
            n >= 8 and n & (n - 1) == 0,
            f"generalized quaternion order must be a power of two >= 8, got {n}",
        )
        return _dicyclic_table(n // 4)

    if isinstance(spec, Modular):
        q, r = spec.q, spec.r
        _require(arith.is_prime(q), f"modular group parameter q must be prime, got {q}")
        _require(
            r >= 4 or (r == 3 and q > 2),
            f"modular group needs r >= 4, or r = 3 with q > 2; got (q={q}, r={r})",
        )
        return _semidirect_table(q ** (r - 1), q, q ** (r - 2) + 1)

    if isinstance(spec, FromTable):
        return np.array(spec.rows, dtype=np.int64)

    if isinstance(spec, FromPermutations):
        _require(spec.degree >= 1, f"degree must be >= 1, got {spec.degree}")
        for g in spec.generators:
            _require(
                len(g) == spec.degree and sorted(g) == list(range(spec.degree)),
                f"{g} is not a permutation of 0..{spec.degree - 1}",
            )
        elems = _perm_closure(spec.degree, spec.generators, element_budget)
        index = {e: i for i, e in enumerate(elems)}
        n = len(elems)
        table = np.empty((n, n), dtype=np.int64)
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                table[i, j] = index[tuple(x[y[t]] for t in range(spec.degree))]
        return table

    raise GroupSpecError(f"unknown group spec {spec!r}")


def build_group(spec: GroupSpec, *, element_budget: int = 2048) -> Group:
    """Realize a GroupSpec as a Group.

    Explicit tables get the full O(n^3) axiom check; generated tables are
    spot-checked with 10n random associativity triples.
    """
    table = _table_for(spec, element_budget)
    check = "full" if isinstance(spec, FromTable) else "spot"
    return Group(table, spec=spec, check=check)


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
