import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ordersum import HARD_CAP, arith, enumeration, groups, tables
from ordersum.arith import semidirect_actions
from ordersum.enumeration import _checked_class, canonical_form, catalog
from ordersum.groups import (
    LAW_BUDGET,
    TABLE_BUDGET,
    Abelian,
    Cyclic,
    Dihedral,
    DirectProduct,
    FromPermutations,
    FromTable,
    GeneralizedQuaternion,
    Group,
    GroupSpecError,
    Law,
    ListLaw,
    Modular,
    SemidirectCyclic,
    TableError,
    build_group,
    element_orders_of_table,
    format_spec,
    kernel_of_action,
    parse_spec,
    validate_table,
)
from ordersum.theorems import _witness_spec
from test_enumeration import ABOVE_DEFAULT, relabel

# Table files that are not a JSON list of lists of integers.
MALFORMED_TABLES = ["[[0,1],[1,0.9]]", "[1,2]", "[[0,1],[1,false]]"]
# Entries outside 0..n-1, one of them past 64 bits.
OUT_OF_RANGE_TABLES = ["[[0,1],[1,99999999999999999999]]", "[[0,1],[1,-1]]", "[[0,1],[1,2]]"]
MALFORMED_PERMS = ["[[1.9, 0, 2]]", "[[true, false]]"]
# Lists of lists of integers in range that are not n rows of n entries.
MISSHAPEN_TABLES = ["[]", "[[]]", "[[0,1],[1]]"]
# JSON values that are no list at all.
NOT_LISTS = ["5", "{}", '"ab"']
# A Latin square with identity 0 but (1*1)*2 != 1*(1*2), and 1**5 != 0.
NON_ASSOCIATIVE = [[0, 1, 2, 3, 4],
                   [1, 0, 3, 4, 2],
                   [2, 4, 0, 1, 3],
                   [3, 2, 4, 0, 1],
                   [4, 3, 1, 2, 0]]


# Invalid specs of order at most HARD_CAP, each with the message the law path
# gave it before such specs were realized as rows.
INVALID_SMALL_SPECS = {
    "SD(5,2,2)": "invalid semidirect action: 2**2 is not 1 mod 5",
    "M(2,3)": "modular group needs r >= 4, or r = 3 with q > 2; got (q=2, r=3)",
    "D7": "dihedral order must be even and >= 2, got 7",
    "Q12": "generalized quaternion order must be a power of two >= 8, got 12",
    "A[2,3]": "invariant factors must form a divisibility chain: [2, 3]",
    "C0": "cyclic order must be >= 1, got 0",
}


def assert_table_rejected(text: str, spec_of, match: str) -> None:
    """The table text is refused: at spec_of() where it is not a list of
    lists, which is all FromTable holds, and otherwise by build_group's full
    check of its entries, with a TableError matching match.
    """
    rows = json.loads(text)
    if isinstance(rows, list) and all(isinstance(r, list) for r in rows):
        spec = spec_of()
        with pytest.raises(TableError, match=match):
            build_group(spec)
    else:
        with pytest.raises(GroupSpecError, match="list of lists"):
            spec_of()


def _definitional_orders(rows: np.ndarray) -> np.ndarray:
    """Orders by definition: the first t with x**t == 0, one table step per power.

    This was `element_orders_of_table` before it split orders by prime; it
    is kept as the oracle for that walk.
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


# The table builders the package used before it multiplied by laws, kept
# here as the oracle for the laws' grids and walks and for the rows of the
# list rules, tables._rows.


def _cyclic_table(n: int) -> np.ndarray:
    """Row i is 0..n-1 rotated left by i: windows of 0..n-1 repeated twice."""
    r = np.arange(n, dtype=np.int64)
    return sliding_window_view(np.concatenate([r, r]), n)[:n].copy()


def _product_table(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Direct product on mixed-radix indices (a, b) -> a * nb + b."""
    na, nb = len(ta), len(tb)
    out = ta[:, None, :, None] * nb + tb[None, :, None, :]
    return out.reshape(na * nb, na * nb)


def _semidirect_table(m: int, k: int, a: int) -> np.ndarray:
    """C_m x| C_k on indices i*k + j: (i1 + a**j1 * i2 mod m, j1 + j2 mod k)."""
    apow = np.array([pow(a, j, m) for j in range(k)], dtype=np.int64)
    e = np.arange(m * k, dtype=np.int64)
    i, j = e // k, e % k
    i1, j1 = i[:, None], j[:, None]
    i2, j2 = i[None, :], j[None, :]
    return ((i1 + apow[j][:, None] * i2) % m) * k + (j1 + j2) % k


def _dicyclic_table(h: int) -> np.ndarray:
    """Dicyclic group of order 4h on indices i*2 + j."""
    n2 = 2 * h
    e = np.arange(4 * h, dtype=np.int64)
    i, j = e // 2, e % 2
    i1, j1 = i[:, None], j[:, None]
    i2, j2 = i[None, :], j[None, :]
    sign = 1 - 2 * j1
    return ((i1 + sign * i2 + h * (j1 & j2)) % n2) * 2 + (j1 ^ j2)


def _builder_table(spec):
    """The table the old builders give a family spec or a product of them."""
    if isinstance(spec, Cyclic):
        return _cyclic_table(spec.n)
    if isinstance(spec, Abelian):
        return _builder_table(DirectProduct(Cyclic(d) for d in spec.factors if d != 1))
    if isinstance(spec, DirectProduct):
        table = _cyclic_table(1)
        for part in spec.parts:
            table = _product_table(table, _builder_table(part))
        return table
    if isinstance(spec, SemidirectCyclic):
        return _semidirect_table(spec.m, spec.k, spec.a % spec.m)
    if isinstance(spec, Dihedral):
        m = spec.order // 2
        return _semidirect_table(m, 2, (m - 1) % m if m > 1 else 0)
    if isinstance(spec, GeneralizedQuaternion):
        return _dicyclic_table(spec.order // 4)
    if isinstance(spec, Modular):
        return _semidirect_table(spec.q ** (spec.r - 1), spec.q, spec.q ** (spec.r - 2) + 1)
    raise AssertionError(f"no builder for {spec!r}")


def _loop_perm_table(degree: int, gens) -> np.ndarray:
    """The table of a perm: closure as the package built it with a Python loop.

    The breadth-first closure, then every product x * y (the composite
    x(y(t))) composed entry by entry and looked up: n**2 * degree steps.  It
    is kept as the oracle for the table built by column gathers.
    """
    ident = tuple(range(degree))
    elems, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(x[g[i]] for i in range(degree))
                if y not in seen:
                    seen.add(y)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    index = {e: i for i, e in enumerate(elems)}
    return np.array([[index[tuple(x[y[t]] for t in range(degree))] for y in elems]
                     for x in elems])


def _cubic_table_check(rows: np.ndarray) -> None:
    """The group check of a table as `validate_table` made it with numpy:
    identity, Latin rows and columns, then associativity for every triple,
    one row at a time (n**3 products).  It is kept as the oracle for the
    one check, which tests associativity on a generating set only.
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


# Permutation groups as generators in one-line notation, with their orders.
PERMUTATION_GROUPS = {
    "A4": (4, ((1, 2, 0, 3), (1, 0, 3, 2)), 12),
    "S4": (4, ((1, 2, 3, 0), (1, 0, 2, 3)), 24),
    "S5": (5, ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)), 120),
    "D4": (4, ((1, 2, 3, 0), (0, 3, 2, 1)), 8),
    "C12": (12, (tuple(range(1, 12)) + (0,),), 12),
    "C2xC3": (5, ((1, 0, 2, 3, 4), (0, 1, 3, 4, 2)), 6),
    "trivial": (3, ((0, 1, 2),), 1),
    "S3 on 6 points": (6, ((1, 2, 0, 4, 5, 3), (1, 0, 2, 4, 3, 5)), 6),
    # Rows stored as uint16, past the 64 rows the closure starts with.
    "S5 on 260 points": (260, ((1, 2, 3, 4, 0, *range(5, 260)), (1, 0, *range(2, 260))), 120),
}


@st.composite
def family_specs(draw, limit: int = 2048):
    """A valid spec of order <= limit from one family; C_n where none fits."""
    kind = draw(st.sampled_from("CADQMS"))
    if kind == "A" and limit >= 4:
        factors = [draw(st.integers(2, math.isqrt(limit)))]
        while math.prod(factors) * factors[-1] <= limit and draw(st.booleans()):
            room = limit // (math.prod(factors) * factors[-1])
            factors.append(factors[-1] * draw(st.integers(1, room)))
        return Abelian(factors)
    if kind == "D" and limit >= 2:
        return Dihedral(2 * draw(st.integers(1, limit // 2)))
    if kind == "Q" and limit >= 8:
        return GeneralizedQuaternion(1 << draw(st.integers(3, limit.bit_length() - 1)))
    modular = [(q, r) for q in (2, 3, 5, 7, 11) for r in range(3, 12)
               if q**r <= limit and (r >= 4 or q > 2)]
    if kind == "M" and modular:
        return Modular(*draw(st.sampled_from(modular)))
    if kind == "S" and limit >= 2:
        m = draw(st.integers(2, limit))
        k = draw(st.integers(1, limit // m))
        return SemidirectCyclic(m, k, draw(st.sampled_from(semidirect_actions(m, k))))
    return Cyclic(draw(st.integers(1, limit)))


@st.composite
def products_of_two(draw, limit: int = 2048):
    a = draw(family_specs(limit // 2))
    return DirectProduct([a, draw(family_specs(limit // build_group(a).order))])


def _invariant_factors(limit: int, least: int = 2):
    """Every chain d1 | d2 | ... with d1 >= least and product <= limit."""
    yield ()
    for d in range(least, limit + 1):
        for rest in _invariant_factors(limit // d, d):
            if all(r % d == 0 for r in rest):
                yield (d,) + rest


def _family_specs(limit: int) -> list:
    """Every spec of order <= limit that the grammar builds without 'x'."""
    specs = [Cyclic(n) for n in range(1, limit + 1)]
    specs += [Abelian(f) for f in _invariant_factors(limit) if len(f) >= 2]
    specs += [Dihedral(2 * m) for m in range(1, limit // 2 + 1)]
    specs += [GeneralizedQuaternion(1 << e) for e in range(3, limit.bit_length())]
    specs += [Modular(q, r) for q in arith.primes_up_to(limit) for r in range(3, limit.bit_length())
              if q**r <= limit and (r >= 4 or q > 2)]
    specs += [SemidirectCyclic(m, k, a) for m in range(1, limit + 1)
              for k in range(1, limit // m + 1) for a in semidirect_actions(m, k)]
    return specs


class TestBuildGroup:
    def test_cyclic(self):
        g = build_group(Cyclic(6))
        assert g.order == 6 and g.is_cyclic()

    def test_symmetric_3(self):
        g = build_group(SemidirectCyclic(3, 2, 2))
        assert g.order == 6 and not np.array_equal(g.table, g.table.T) and g.psi() == 13

    def test_modular_16(self):
        g = build_group(Modular(2, 4))
        assert g.order == 16 and g.psi() == 87
        assert (2**8 + 2**3 - 2**2 + 1) // 3 == 87

    def test_invalid_semidirect_action(self):
        with pytest.raises(GroupSpecError):
            build_group(SemidirectCyclic(5, 3, 2))  # 2**3 = 8 != 1 mod 5

    def test_non_coprime_action(self):
        with pytest.raises(GroupSpecError):
            build_group(SemidirectCyclic(4, 2, 2))  # gcd(2, 4) != 1

    def test_modular_domain(self):
        with pytest.raises(GroupSpecError):
            build_group(Modular(2, 3))  # degenerate: would be dihedral
        with pytest.raises(GroupSpecError):
            build_group(Modular(4, 4))  # q not prime

    def test_dihedral_needs_even_order(self):
        with pytest.raises(GroupSpecError):
            build_group(Dihedral(7))

    def test_quaternion_needs_power_of_two(self):
        with pytest.raises(GroupSpecError):
            build_group(GeneralizedQuaternion(12))
        with pytest.raises(GroupSpecError):
            build_group(GeneralizedQuaternion(4))

    def test_abelian_chain_enforced(self):
        with pytest.raises(GroupSpecError):
            build_group(Abelian([2, 3]))

    def test_trivial_groups(self):
        assert build_group(Cyclic(1)).psi() == 1
        assert build_group(Abelian([])).order == 1
        assert build_group(DirectProduct([])).order == 1


class TestElementOrder:
    def test_identity(self):
        g = build_group(Cyclic(12))
        assert g.element_orders[0] == 1

    def test_cyclic_generator(self):
        g = build_group(Cyclic(12))
        assert g.element_orders[1] == 12

    def test_quaternion_unique_involution(self):
        g = build_group(GeneralizedQuaternion(8))
        involutions = [x for x in range(8) if g.element_orders[x] == 2]
        assert len(involutions) == 1

    def test_out_of_range(self):
        g = build_group(Cyclic(4))
        with pytest.raises(IndexError):
            g.element_orders[4]

    def test_lagrange(self):
        for spec in (Cyclic(24), Dihedral(20), GeneralizedQuaternion(16),
                     SemidirectCyclic(7, 3, 2), Modular(3, 3)):
            g = build_group(spec)
            assert all(g.order % g.element_orders[x] == 0 for x in range(g.order))


class TestCyclicTable:
    @pytest.mark.parametrize("n", [*range(1, 65), 1500, 2048])
    def test_matches_sum_mod_n(self, n):
        r = np.arange(n, dtype=np.int64)
        table = groups._table_for(groups._cyclic_law(n))
        assert table.dtype == np.int64
        assert np.array_equal(table, (r[:, None] + r[None, :]) % n)
        assert np.array_equal(table, _cyclic_table(n))


class TestLaws:
    """Each law's grid is the old builder's table, and both walk to the same orders.

    Up to HARD_CAP the list rules of ``tables`` give the same table as rows,
    which pass the catalog check with the same orders.  The laws are built
    with _law_for, since build_group takes the rows up to HARD_CAP.
    """

    @staticmethod
    def check(spec) -> None:
        law = groups._law_for(spec)
        orders = element_orders_of_table(law)
        table = _builder_table(spec)
        assert np.array_equal(groups._table_for(law), table), spec
        assert np.array_equal(orders, element_orders_of_table(Law.of_table(table))), spec
        if len(law) <= HARD_CAP:
            rows = tables._rows(groups._factors(spec)[1])
            assert np.array_equal(np.array(rows), table), spec
            assert _checked_class(rows, len(law)).orders == tuple(orders.tolist()), spec

    def test_family_specs(self):
        for spec in _family_specs(64):
            self.check(spec)

    def test_no_factors_are_the_trivial_group(self):
        # The n = 1 catalog candidate A[] has an empty invariant chain, so no
        # factors; a spec's _factors always has at least one.
        assert tables._rows(()) == [[0]]
        assert list(enumeration._family_candidates(1)) == [("C1", [[0]]), ("A[]", [[0]])]

    def test_products_of_two(self):
        pool = [s for s in _family_specs(12) if build_group(s).order > 1]
        for i, a in enumerate(pool):
            for b in pool[i:]:
                self.check(DirectProduct([a, b]))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(family_specs(), products_of_two()))
    def test_random_specs_to_2048(self, spec):
        self.check(spec)

    @settings(deadline=None)
    @given(products_of_two())
    def test_psi_multiplicative_over_coprime_orders(self, spec):
        a, b = (build_group(part) for part in spec.parts)
        assume(math.gcd(a.order, b.order) == 1)
        assert build_group(spec).psi() == a.psi() * b.psi()

    @settings(deadline=None)
    @given(st.integers(1, 50_000))
    def test_psi_cyclic_three_ways(self, n):
        assert arith.psi_cyclic(n) == arith.psi_cyclic_oracle(n) == build_group(Cyclic(n)).psi()

    @given(st.one_of(family_specs(), products_of_two(),
                     st.lists(family_specs(100), min_size=3, max_size=4).map(DirectProduct)))
    def test_format_parse_roundtrip(self, spec):
        assert parse_spec(format_spec(spec)) == spec


class TestRowsAndLawAgree:
    """Up to HARD_CAP build_group checks and walks the catalog rules' rows; the
    law of the same spec gives the same group."""

    @staticmethod
    def check(spec) -> None:
        g, ref = build_group(spec), Group(groups._law_for(spec), spec)
        assert g._law is None, spec  # realized from rows, not from a law
        assert g.psi() == ref.psi(), spec
        assert g.order_profile() == ref.order_profile(), spec
        assert g.is_cyclic() == ref.is_cyclic(), spec
        assert np.array_equal(g.table, ref.table), spec

    def test_family_specs(self):
        for spec in _family_specs(HARD_CAP):
            self.check(spec)

    def test_products_of_two(self):
        pool = [(s, len(groups._law_for(s))) for s in _family_specs(HARD_CAP)]
        pool = [(s, n) for s, n in pool if n > 1]
        for i, (a, na) in enumerate(pool):
            for b, nb in pool[i:]:
                if na * nb <= HARD_CAP:
                    self.check(DirectProduct([a, b]))

    def test_above_the_cap_is_a_law(self):
        for spec in (Cyclic(HARD_CAP + 1), DirectProduct([Cyclic(2), Dihedral(HARD_CAP)]),
                     FromPermutations(3, ((1, 0, 2), (1, 2, 0)))):
            assert build_group(spec)._law is not None, spec

    @pytest.mark.parametrize("text", INVALID_SMALL_SPECS)
    def test_invalid_small_specs_keep_their_message(self, text):
        for realize in (build_group, groups._law_for):
            with pytest.raises(GroupSpecError) as exc:
                realize(parse_spec(text))
            assert str(exc.value) == INVALID_SMALL_SPECS[text], realize


# Specs of every family, and products, of orders HARD_CAP + 1 to TABLE_BUDGET:
# those build_group walks on Python lists.  SD(1,17,0) is C17 with m = 1.
ENGINE_SPECS = ["C17", "C1500", "C2048", "A[4,8,64]", "A[2,2,2,2,2,2,2,2,2,2,2]", "A[3,9]",
                "D18", "D2048", "Q32", "Q2048", "M(3,3)", "M(2,5)", "M(5,3)", "M(3,6)",
                "M(2,11)", "SD(7,6,3)", "SD(41,40,3)", "SD(3,682,2)", "SD(1,17,0)",
                "C2xQ1024", "D8xC3", "Q8xQ8", "C3xD10xQ8", "M(2,4)xSD(5,4,2)", "C1xC17",
                "A[2,2]xD6", "Q16xM(3,3)"]

# A law on 0..2 that is associative, with identity 0, but x*y = max(x, y),
# so 1**3 = 1: no group's.
MAX_LAW = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]


def list_law(spec) -> ListLaw:
    return groups._list_law_of(groups._factors(spec)[1])


def forged(rows, engine):
    """A law that gathers from rows, on numpy arrays or on lists."""
    if engine is Law:
        return Law.of_table(np.array(rows))
    n, flat = len(rows), [v for row in rows for v in row]
    return ListLaw(n, lambda x, y: [flat[a * n + b] for a, b in zip(x, y)], None)


def drawn(law, spec) -> list[tuple[int, int, int]]:
    """Every spot-check triple of a law, joined across its chunks."""
    return [tuple(map(int, t)) for a, b, c in groups._spot_triples(law, spec)
            for t in zip(a, b, c)]


class TestEngines:
    """A single group of order HARD_CAP + 1 to TABLE_BUDGET is a ListLaw: the
    spot check draws the triples numpy's law draws, and the walk gives the
    orders numpy's walk gives."""

    @staticmethod
    def check(spec) -> None:
        lists, arrays = list_law(spec), groups._law_for(spec)
        assert len(lists) == len(arrays) and HARD_CAP < len(lists) <= TABLE_BUDGET, spec
        assert drawn(lists, spec) == drawn(arrays, spec), spec
        orders = element_orders_of_table(lists)
        assert orders.tolist() == element_orders_of_table(arrays).tolist(), spec
        g = build_group(spec)
        assert isinstance(g._law, ListLaw), spec
        assert g.element_orders.tolist() == orders.tolist(), spec
        if len(lists) <= 300:  # the law itself, on every pair
            x, y = divmod(np.arange(len(lists) ** 2), len(lists))
            assert lists(x.tolist(), y.tolist()) == arrays(x, y).tolist(), spec

    @pytest.mark.parametrize("text", ENGINE_SPECS)
    def test_specs(self, text):
        self.check(parse_spec(text))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(family_specs(), products_of_two()))
    def test_random_specs(self, spec):
        assume(len(groups._law_for(spec)) > HARD_CAP)
        self.check(spec)

    def test_first_triples(self):
        # Pinned: a change to the stream changes which triples check every law.
        spec = Cyclic(2048)
        expected = [(1920, 462, 1758), (186, 1975, 819), (18, 1044, 1673), (1456, 1483, 197)]
        for law in (list_law(spec), groups._law_for(spec)):
            assert drawn(law, spec)[:4] == expected
        assert random.Random(repr(spec)).randbytes(4) == bytes.fromhex("06c31cf0")

    @pytest.mark.parametrize("engine", [Law, ListLaw])
    def test_chunks_join_to_one_draw(self, engine, monkeypatch):
        # 10n = 180 triples, drawn 7 at a time or in one draw of 2160 bytes.
        spec = Dihedral(HARD_CAP + 2)
        law = list_law(spec) if engine is ListLaw else groups._law_for(spec)
        whole = drawn(law, spec)
        monkeypatch.setattr(engine, "chunk", 7)
        assert drawn(law, spec) == whole and len(whole) == 180
        rng, one = random.Random(repr(spec)), random.Random(repr(spec)).randbytes(2160)
        assert b"".join(rng.randbytes(12 * min(7, 180 - i)) for i in range(0, 180, 7)) == one

    @pytest.mark.parametrize("engine", [Law, ListLaw])
    def test_forged_laws_rejected(self, engine):
        spec = Cyclic(5)
        with pytest.raises(TableError) as exc:
            Group(forged(NON_ASSOCIATIVE, engine), spec)
        assert str(exc.value) == "the law of Cyclic(n=5) failed an associativity spot check"
        with pytest.raises(TableError) as exc:
            element_orders_of_table(forged(NON_ASSOCIATIVE, engine))
        assert str(exc.value) == "element 1 to the power 5 is not the identity: not a group"
        with pytest.raises(TableError) as exc:
            Group(forged(MAX_LAW, engine), Cyclic(3))
        assert str(exc.value) == "element 1 to the power 3 is not the identity: not a group"

    def test_law_and_table_are_numpy(self):
        # A group walked on lists reads its law and table as numpy's.
        g = build_group(Dihedral(64))
        assert isinstance(g._law, ListLaw)
        assert type(g.law) is Law
        assert np.array_equal(g.table, groups._table_for(groups._law_for(Dihedral(64))))

    def test_engine_by_order(self):
        specs = [Cyclic(HARD_CAP), Cyclic(HARD_CAP + 1), Cyclic(TABLE_BUDGET),
                 Cyclic(TABLE_BUDGET + 1)]
        assert [type(build_group(s)._law) for s in specs] == [
            type(None), ListLaw, ListLaw, Law]
        # A scan's groups above HARD_CAP are numpy's, built one at a time.
        built = groups.build_groups(iter(specs))
        assert next(built)._law is None
        assert [type(g._law) for g in built] == [Law, Law, Law]


# The first check each spec fails, in the order the checks run: each part's
# parameters and order, then the order of the product so far.  M(q,r) is
# refused by its order before q is tested for primality, which the sieve
# cannot decide for q = 1000000000039.
CHECK_ORDER = {
    "C1024xC1024xC2": "order 2097152 exceeds the element budget 1048576 of a group law",
    "C2048xC1024xC1024": "order 2097152 exceeds the element budget 1048576 of a group law",
    "C2097152xD7": "order 2097152 exceeds the element budget 1048576 of a group law",
    "D7xC2097152": "dihedral order must be even and >= 2, got 7",
    "M(1000000000039,4)": "order 1000000000156000000009126000000237276000002313441 exceeds "
                          "the element budget 1048576 of a group law",
    "M(6,30)": "order 6^30 exceeds the element budget 1048576 of a group law",
}


class TestBudgets:
    @pytest.mark.parametrize("text", CHECK_ORDER)
    def test_check_order(self, text):
        for realize in (build_group, groups._law_for):
            with pytest.raises(GroupSpecError) as exc:
                realize(parse_spec(text))
            assert str(exc.value) == CHECK_ORDER[text], realize

    @pytest.mark.parametrize("spec", [
        Cyclic(LAW_BUDGET + 1),
        Abelian([1024, 2048]),
        SemidirectCyclic(1, 10**12, 0),
        Dihedral(2 * LAW_BUDGET + 2),
        GeneralizedQuaternion(2 * LAW_BUDGET),
        Modular(2, 22),
    ])
    def test_law_budget(self, spec):
        with pytest.raises(GroupSpecError, match="element budget"):
            build_group(spec)

    def test_law_walk_at_the_budget(self):
        g = build_group(GeneralizedQuaternion(LAW_BUDGET))
        # Q_(2^20): the cyclic half holds phi(2^e) elements of order 2^e, and
        # all 2^19 elements outside it have order 4.
        expected = {1: 1, 2: 1, 4: 2**19 + 2, **{2**e: 2**(e - 1) for e in range(3, 20)}}
        assert g.order == LAW_BUDGET and g.order_profile() == expected

    def test_table_budget_raises_before_allocating(self):
        g = build_group(Cyclic(2 * TABLE_BUDGET))
        tracemalloc.start()
        try:
            with pytest.raises(GroupSpecError, match="element budget"):
                canonical_form(g.table.tolist())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_table_file_budget(self, monkeypatch):
        rows = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        monkeypatch.setattr(groups, "TABLE_BUDGET", 4)
        with pytest.raises(GroupSpecError, match="element budget 4"):
            build_group(FromTable(rows))


class TestOrderWalk:
    """The prime-power walk agrees with the one-step-per-power definition."""

    @staticmethod
    def check(g: Group) -> None:
        assert np.array_equal(g.element_orders, _definitional_orders(g.table)), g

    def test_family_specs(self):
        for spec in _family_specs(256):
            self.check(build_group(spec))

    def test_products_of_two(self):
        # Both factors of order 2..16, one product per unordered pair.  An SD
        # with a == 1 is itself the product C_m x C_k, so it is left out.
        pool = [(s, build_group(s).order) for s in _family_specs(16)
                if not (isinstance(s, SemidirectCyclic) and s.a == 1)]
        pool = [(s, n) for s, n in pool if n > 1]
        for i, (a, na) in enumerate(pool):
            for b, nb in pool[i:]:
                if na * nb <= 256:
                    self.check(build_group(DirectProduct([a, b])))

    def test_thm4_witnesses(self):
        for q in (2, 3, 5):
            for k in range(1, 61):
                self.check(build_group(_witness_spec(q, k)))

    def test_cyclic(self):
        # The definition costs n table steps over all of C_n (about 20 s for
        # every n <= 1500 on a 2-vCPU Xeon), so every n is checked against
        # ord(x) = n / gcd(x, n) and the definition against n <= 400 and
        # 2^9, 2^10, 3*5*7*11, 11^3, 2^5*3^2*5, the prime 1499 and 1500.
        for n in range(1, 1501):
            g = build_group(Cyclic(n))
            x = np.arange(n)
            assert np.array_equal(g.element_orders, n // np.gcd(x, n)), n
            if n <= 400 or n in (512, 1024, 1155, 1331, 1440, 1499, 1500):
                self.check(g)

    @ABOVE_DEFAULT
    def test_catalog_relabelings(self, cache_dir):
        rng = random.Random(5)
        for n in range(1, 17):
            for cls in catalog(n, bound=16, cache_dir=cache_dir):
                for _ in range(2):
                    perm = [0] + rng.sample(range(1, n), n - 1)
                    self.check(relabel(Group(cls.table), perm))


class TestPsi:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (GeneralizedQuaternion(8), 27),
            (Cyclic(8), 43),
            (DirectProduct([Abelian([2, 2]), Cyclic(3)]), 49),
            (Dihedral(12), 33),
            (SemidirectCyclic(3, 4, 2), 45),  # dicyclic of order 12
        ],
    )
    def test_examples(self, spec, expected):
        assert build_group(spec).psi() == expected

    def test_cyclic_matches_closed_form(self):
        for n in range(1, 80):
            assert build_group(Cyclic(n)).psi() == arith.psi_cyclic(n)

    def test_odd_for_every_group(self):
        specs = [Dihedral(14), GeneralizedQuaternion(32), Modular(5, 3),
                 SemidirectCyclic(9, 6, 2), Abelian([2, 4, 8]),
                 FromPermutations(4, ((1, 2, 0, 3), (1, 0, 3, 2)))]
        for spec in specs:
            assert build_group(spec).psi() % 2 == 1

    def test_coprime_multiplicativity(self):
        rng = random.Random(20240817)
        pool = [Cyclic(5), Cyclic(9), Abelian([2, 2]), Dihedral(6),
                GeneralizedQuaternion(8), SemidirectCyclic(7, 3, 2),
                Cyclic(11), Abelian([3, 3]), Dihedral(10)]
        pairs = 0
        while pairs < 12:
            a, b = rng.choice(pool), rng.choice(pool)
            ga, gb = build_group(a), build_group(b)
            if math.gcd(ga.order, gb.order) != 1:
                continue
            gab = build_group(DirectProduct([a, b]))
            assert gab.psi() == ga.psi() * gb.psi()
            pairs += 1


class TestOrderProfile:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (Cyclic(4), {1: 1, 2: 1, 4: 2}),
            (GeneralizedQuaternion(8), {1: 1, 2: 1, 4: 6}),
            (Abelian([2, 2]), {1: 1, 2: 3}),
        ],
    )
    def test_examples(self, spec, expected):
        assert build_group(spec).order_profile() == expected

    def test_profile_invariants(self):
        for spec in (Dihedral(16), Modular(3, 3), SemidirectCyclic(5, 4, 2)):
            g = build_group(spec)
            profile = g.order_profile()
            assert sum(profile.values()) == g.order
            assert profile[1] == 1
            assert all(c % 2 == 0 for d, c in profile.items() if d > 2)
            assert sum(d * c for d, c in profile.items()) == g.psi()


class TestStructure:
    def test_is_cyclic(self):
        assert build_group(Cyclic(12)).is_cyclic()
        assert not build_group(Abelian([2, 2])).is_cyclic()
        g = build_group(SemidirectCyclic(5, 4, 2))
        assert not g.is_cyclic()
        assert 20 not in g.order_profile()


class TestKernelOfAction:
    @pytest.mark.parametrize(
        "m,k,a,expected",
        [(3, 2, 2, 1), (7, 4, 1, 4), (5, 4, 2, 1), (9, 6, 2, 1), (5, 4, 4, 2)],
    )
    def test_examples(self, m, k, a, expected):
        assert kernel_of_action(m, k, a) == expected

    def test_matches_direct_centralizer(self):
        for m, k, a in [(3, 2, 2), (5, 4, 2), (5, 4, 4), (7, 6, 3), (9, 6, 8)]:
            g = build_group(SemidirectCyclic(m, k, a))
            # Elements (0, j) are indices j; elements (i, 0) are indices i*k.
            p_part = [i * k for i in range(m)]
            centralizer = [
                j for j in range(k)
                if all(g.table[j, x] == g.table[x, j] for x in p_part)
            ]
            assert len(centralizer) == kernel_of_action(m, k, a)

    def test_invalid(self):
        with pytest.raises(GroupSpecError):
            kernel_of_action(5, 3, 2)

    def test_semidirect_actions_are_the_buildable_ones(self):
        for m in range(1, 61):
            for k in range(1, 60 // m + 1):
                buildable = []
                for a in range(1, m):
                    try:
                        build_group(SemidirectCyclic(m, k, a))
                    except GroupSpecError:
                        with pytest.raises(GroupSpecError):
                            kernel_of_action(m, k, a)
                    else:
                        buildable.append(a)
                assert semidirect_actions(m, k) == buildable, (m, k)


class TestExplicitTables:
    def test_valid_table(self):
        rows = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        g = build_group(FromTable(rows))
        assert g.is_cyclic() and g.psi() == arith.psi_cyclic(5)
        # An in-memory spec has no grammar form; the group is named as a table.
        assert repr(g) == "Group(order-5 table, order=5)" == repr(Group(rows))

    def test_rejects_non_associative(self):
        with pytest.raises(TableError):
            build_group(FromTable(NON_ASSOCIATIVE))

    def test_spot_check_rejects_non_associative(self):
        # The same square, passed off as a generated table, which is checked
        # in full whatever its spec, and as a law, which is spot-checked.
        with pytest.raises(TableError, match="associativity fails"):
            Group(NON_ASSOCIATIVE, spec=Cyclic(5))
        flat = np.array(NON_ASSOCIATIVE).ravel()
        with pytest.raises(TableError, match="spot check"):
            Group(Law(5, lambda x, y: flat[x * 5 + y]), spec=Cyclic(5))

    def test_canonical_form_rejects_non_group(self):
        with pytest.raises(ValueError, match="associativity fails"):
            canonical_form(NON_ASSOCIATIVE)

    def test_bare_table_is_validated(self):
        # With no spec the table came from outside, so it is checked in full.
        with pytest.raises(TableError, match="associativity fails"):
            Group(NON_ASSOCIATIVE)

    def test_order_walk_rejects_non_group(self):
        # Unchecked, the square still fails in the walk: 1**5 is 1, not 0.
        with pytest.raises(TableError, match="power 5"):
            element_orders_of_table(Law.of_table(np.array(NON_ASSOCIATIVE)))

    def test_rejects_non_latin(self):
        rows = [[0, 1], [1, 1]]
        with pytest.raises(TableError):
            build_group(FromTable(rows))

    def test_rejects_missing_identity(self):
        rows = [[1, 0], [0, 1]]
        with pytest.raises(TableError):
            build_group(FromTable(rows))

    @pytest.mark.parametrize("text", MALFORMED_TABLES)
    def test_rejects_non_integer_rows(self, text):
        assert_table_rejected(text, lambda: FromTable(json.loads(text)),
                              "not 2 rows of 2 integers in 0..1")

    @pytest.mark.parametrize("text", OUT_OF_RANGE_TABLES)
    def test_rejects_out_of_range_entries(self, text):
        # Checked before numpy holds them: an entry past 64 bits would overflow.
        with pytest.raises(TableError, match="integers in 0..1"):
            build_group(FromTable(json.loads(text)))

    @pytest.mark.parametrize("text", MISSHAPEN_TABLES + NOT_LISTS)
    def test_rejects_misshapen_table(self, text):
        # Checked as Python rows, before numpy would fail on a ragged list.
        assert_table_rejected(text, lambda: FromTable(json.loads(text)),
                              "at least the identity|rows of")
        with pytest.raises(TableError, match="at least the identity|rows of"):
            Group(json.loads(text))

    def test_table_spec_is_not_spot_checked(self, monkeypatch):
        # Its rows are checked in full; a spot check would only add memory.
        # So are the rows of a spec up to HARD_CAP; a larger one is a law.
        def fail(law, spec):
            raise AssertionError(f"spot check of {spec!r}")

        monkeypatch.setattr(groups, "_spot_check_associativity", fail)
        rows = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        assert build_group(FromTable(rows)).psi() == 21
        assert build_group(Cyclic(5)).psi() == 21
        with pytest.raises(AssertionError, match="spot check"):
            build_group(Cyclic(HARD_CAP + 1))

    def test_forged_table_spec_law_is_spot_checked(self):
        # A Law is spot-checked whatever its spec: a FromTable spec does not
        # vouch for a law that build_group did not make from its rows.
        rows = build_group(Dihedral(16)).table.tolist()
        swaps = list(_intercalate_swaps(rows, random.Random(1), 20))
        assert len(swaps) == 20
        for t in swaps:
            with pytest.raises(TableError, match="associativity"):
                validate_table(t)
            with pytest.raises(TableError, match="spot check"):
                Group(Law.of_table(np.array(t)), spec=FromTable(t))

    def test_product_with_a_table_part(self):
        # The grammar has no such product, and DirectProduct refuses one.
        c3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        for part in (FromTable(c3), FromPermutations(3, ((1, 2, 0),))):
            with pytest.raises(GroupSpecError, match="table: or perm: part"):
                DirectProduct([part, Cyclic(2)])

    def test_table_at_budget(self):
        # D2048 as a table: spec, at the table budget, and one intercalate
        # swap of it, which keeps a Latin square with identity 0 but is no
        # group.  The rows are built here rather than read from a file.
        law = build_group(Dihedral(TABLE_BUDGET))
        rows = law.table.tolist()
        assert build_group(FromTable(rows)).psi() == law.psi()
        (swapped,) = _intercalate_swaps(rows, random.Random(13), 1)
        with pytest.raises(TableError, match="associativity fails"):
            build_group(FromTable(swapped))

    @pytest.mark.parametrize("text", MALFORMED_PERMS)
    def test_rejects_non_integer_permutations(self, text):
        perms = json.loads(text)
        with pytest.raises(GroupSpecError):
            FromPermutations(len(perms[0]), perms)

    def test_permutation_group(self):
        s3 = build_group(FromPermutations(3, ((1, 0, 2), (1, 2, 0))))
        assert s3.order == 6 and s3.psi() == 13

    def test_permutation_budget(self, monkeypatch):
        monkeypatch.setattr(groups, "TABLE_BUDGET", 10)
        with pytest.raises(GroupSpecError):
            build_group(FromPermutations(5, ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))))

    @pytest.mark.parametrize("name", PERMUTATION_GROUPS)
    def test_permutation_table_matches_loop(self, name):
        degree, gens, order = PERMUTATION_GROUPS[name]
        g = build_group(FromPermutations(degree, gens))
        assert g.order == order
        table = _loop_perm_table(degree, gens)
        assert np.array_equal(g.table, table)
        if order <= HARD_CAP:  # the catalog's pure-Python closure gives the same table
            rows = enumeration._perm_table(gens)
            assert np.array_equal(np.array(rows), table)
            assert _checked_class(rows, order).orders == tuple(g.element_orders.tolist())

    @pytest.mark.parametrize("spec", [
        FromTable(build_group(Dihedral(8)).table.tolist()),
        FromPermutations(*PERMUTATION_GROUPS["S4"][:2]),
    ], ids=["table", "perm"])
    def test_table_is_fresh_on_each_read(self, spec):
        # A group keeps no table: each read builds one from the law, so
        # writing into it changes neither the group nor the next read.
        if isinstance(spec, FromTable):
            expected = np.array(spec.rows)
        else:
            expected = _loop_perm_table(spec.degree, spec.generators)
        g = build_group(spec)
        psi = g.psi()
        table = g.table
        assert np.array_equal(table, expected)
        table[:] = 0
        assert g.psi() == psi
        assert np.array_equal(g.table, expected)

    @pytest.mark.parametrize("name", ["A4", "S4", "S5"])
    def test_permutation_closure_checks_hash_hits(self, name, monkeypatch):
        # With every element hashing alike, the closure tells them apart by
        # their rows alone.
        monkeypatch.setattr(groups, "hash", lambda key: 0, raising=False)
        degree, gens, _ = PERMUTATION_GROUPS[name]
        g = build_group(FromPermutations(degree, gens))
        assert np.array_equal(g.table, _loop_perm_table(degree, gens))

    def test_permutation_group_at_table_budget(self, monkeypatch):
        cycle = FromPermutations(2048, (tuple(range(1, 2048)) + (0,),))
        assert build_group(cycle).psi() == arith.psi_cyclic(2048)
        monkeypatch.setattr(groups, "TABLE_BUDGET", 2047)
        with pytest.raises(GroupSpecError, match="element budget 2047"):
            build_group(cycle)

    def test_permutation_closure_peak_memory(self, tmp_path):
        # A fresh `psi perm:` process for a 2048-cycle: numpy and the
        # interpreter take about 30 MB and the table 32 MB.  The peak is read
        # from VmHWM, which starts afresh at exec; ru_maxrss would carry over
        # the RSS of this forking test process.
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("no /proc/self/status to read the peak RSS from")
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps([[*range(1, 2048), 0]]))
        code = ("import contextlib, io\n"
                "from ordersum import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert cli.main(['psi', 'perm:{path}']) == 0\n"
                f"print(next(line.split()[1] for line in open({str(status)!r})\n"
                "           if line.startswith('VmHWM:')))\n")
        src = str(Path(groups.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) <= 70 * 1024  # VmHWM is in kB

    def test_rejects_bad_permutation(self):
        with pytest.raises(GroupSpecError):
            build_group(FromPermutations(3, ((0, 0, 1),)))


def _intercalate_swaps(rows, rng: random.Random, count: int):
    """Up to count Latin squares, each rows with one 2 x 2 subsquare a b / b a
    off row and column 0 swapped to b a / a b; the identity stays at 0.

    Each subsquare is drawn from random rows a < b and column c, the column
    d being where row b holds rows[a][c]; every subsquare is found from two
    of the draws, so they are drawn uniformly, at O(n) a draw.  A table
    with none (a group of odd order) gives up after 50 * count draws.
    """
    n = len(rows)
    if n < 3:
        return
    found = []
    for _ in range(50 * count):
        a, b = sorted(rng.sample(range(1, n), 2))
        c = rng.randrange(1, n)
        d = rows[b].index(rows[a][c])
        if d > 0 and rows[a][d] == rows[b][c] and (a, b, min(c, d)) not in found:
            found.append((a, b, min(c, d)))
            t = [list(r) for r in rows]
            t[a][c], t[a][d], t[b][c], t[b][d] = t[a][d], t[a][c], t[b][d], t[b][c]
            yield t
            if len(found) == count:
                return


class TestCatalogTableCheck:
    """The one group check and walk of tables (`_checked_class`, which
    `validate_table` calls) agrees with the O(n**3) reference loop and the
    numpy engine's order walk."""

    @staticmethod
    def engines(rows) -> tuple:
        """Each engine's element orders of rows, or None where it rejects them."""
        try:
            _cubic_table_check(np.array(rows))
            walked = tuple(element_orders_of_table(Law.of_table(np.array(rows))).tolist())
        except TableError:
            walked = None
        try:
            validate_table(rows)
            checked = _checked_class(rows, len(rows)).orders
        except TableError:
            checked = None
        return walked, checked

    @ABOVE_DEFAULT
    def test_catalog_relabelings(self, cache_dir):
        rng = random.Random(11)
        for n in range(2, 17):
            for cls in catalog(n, bound=16, cache_dir=cache_dir):
                for _ in range(3):
                    perm = [0] + rng.sample(range(1, n), n - 1)
                    rows = relabel(Group(cls.table), perm).table.tolist()
                    walked, checked = self.engines(rows)
                    assert walked is not None and checked == walked, (n, cls.description)

    @ABOVE_DEFAULT
    def test_latin_squares_off_catalog(self, cache_dir):
        # Swapping one intercalate keeps a Latin square with identity 0; some
        # swaps give a group again (in C2 x C2 one gives C4), most do not.
        rng = random.Random(12)
        accepted = rejected = 0
        for n in range(4, 17):
            for cls in catalog(n, bound=16, cache_dir=cache_dir):
                for rows in _intercalate_swaps(cls.table, rng, 4):
                    walked, checked = self.engines(rows)
                    assert checked == walked, (n, cls.description, rows)
                    accepted += checked is not None
                    rejected += checked is None
        assert accepted and rejected

    @pytest.mark.parametrize("rows, message", [
        (NON_ASSOCIATIVE, "associativity fails"),
        ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], "not a permutation"),
        ([[1, 0], [0, 1]], "not a two-sided identity"),
        ([], "at least the identity"),
        ([[]], "not 1 rows of 1 integers"),
        ([[0, 1], [1]], "not 2 rows of 2 integers"),
        (5, "not 0 rows of 0 integers"),
        ({}, "not 0 rows of 0 integers"),
        ("ab", "not 0 rows of 0 integers"),
    ], ids=["non-associative", "non-Latin", "no identity", "empty", "empty row", "ragged",
            "int", "dict", "str"])
    def test_both_reject(self, rows, message):
        # Through `groups` as a TableError, and in the catalog as a ValueError.
        # What is no list is no table of any order, so validate_table reads it
        # as one of order 0.
        with pytest.raises(TableError, match=message):
            validate_table(rows)
        with pytest.raises(ValueError, match=message):
            _checked_class(rows, len(rows) if isinstance(rows, list) else 0)


# One spec of each type, with the repr its frozen dataclass printed;
# _spot_check_associativity seeds its triples from the repr.  Cyclic,
# Dihedral and GeneralizedQuaternion of order 8 hold the same field values.
SPEC_REPRS = [
    (Cyclic(8), "Cyclic(n=8)"),
    (Abelian([2, 6]), "Abelian(factors=(2, 6))"),
    (DirectProduct([Cyclic(2), Dihedral(8)]),
     "DirectProduct(parts=(Cyclic(n=2), Dihedral(order=8)))"),
    (SemidirectCyclic(7, 6, 3), "SemidirectCyclic(m=7, k=6, a=3)"),
    (Dihedral(8), "Dihedral(order=8)"),
    (GeneralizedQuaternion(8), "GeneralizedQuaternion(order=8)"),
    (Modular(2, 4), "Modular(q=2, r=4)"),
    (FromTable([[0, 1], [1, 0]], path="c2.json"),
     "FromTable(rows=((0, 1), (1, 0)), path='c2.json')"),
    (FromPermutations(3, [[1, 2, 0]]),
     "FromPermutations(degree=3, generators=((1, 2, 0),), path=None)"),
]


class TestSpecRecords:
    @pytest.mark.parametrize("spec,text", SPEC_REPRS, ids=[t for _, t in SPEC_REPRS])
    def test_repr_and_equality(self, spec, text):
        assert repr(spec) == text
        again = eval(text, vars(groups))  # the repr is a keyword call of the constructor
        assert again == spec and not again != spec and hash(again) == hash(spec)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_types_never_compare_equal(self):
        for (a, _), (b, _) in itertools.combinations(SPEC_REPRS, 2):
            assert a != b and not a == b

    @pytest.mark.parametrize("spec,text", SPEC_REPRS, ids=[t for _, t in SPEC_REPRS])
    def test_fields_are_read_only(self, spec, text):
        field = text.split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError):
            setattr(spec, field, 1)
        with pytest.raises(AttributeError):
            delattr(spec, field)
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert repr(spec) == text


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["C12", "A[2,6]", "D8", "Q8", "M(2,4)", "SD(5,4,2)", "C2xC2xC3", "C1"],
    )
    def test_roundtrip(self, text):
        assert format_spec(parse_spec(text)) == text

    def test_product_parse(self):
        spec = parse_spec("C2xC2xC3")
        assert isinstance(spec, DirectProduct) and len(spec.parts) == 3
        assert build_group(spec).psi() == 49

    @pytest.mark.parametrize("text", ["", "Z5", "C", "A[2", "SD(1)", "Cx", "M(2)"])
    def test_malformed(self, text):
        with pytest.raises(GroupSpecError):
            parse_spec(text)

    def test_table_file(self, tmp_path):
        import json

        path = tmp_path / "c4.json"
        path.write_text(json.dumps([[(i + j) % 4 for j in range(4)] for i in range(4)]))
        spec = parse_spec(f"table:{path}")
        assert build_group(spec).psi() == 11
        assert format_spec(spec) == f"table:{path}"

    def test_perm_file(self, tmp_path):
        import json

        path = tmp_path / "a4.json"
        path.write_text(json.dumps([[1, 2, 0, 3], [1, 0, 3, 2]]))
        g = build_group(parse_spec(f"perm:{path}"))
        assert g.order == 12 and g.psi() == 31

    def test_missing_file(self):
        with pytest.raises(GroupSpecError):
            parse_spec("table:/no/such/file.json")

    @pytest.mark.parametrize("text", MALFORMED_TABLES)
    def test_malformed_table_file(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert_table_rejected(text, lambda: parse_spec(f"table:{path}"),
                              "not 2 rows of 2 integers in 0..1")

    @pytest.mark.parametrize("text", OUT_OF_RANGE_TABLES + MALFORMED_PERMS)
    def test_malformed_entries_in_files(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        if text in MALFORMED_PERMS:
            with pytest.raises(GroupSpecError):
                parse_spec(f"perm:{path}")
        else:
            assert_table_rejected(text, lambda: parse_spec(f"table:{path}"),
                                  "integers in 0..1")
