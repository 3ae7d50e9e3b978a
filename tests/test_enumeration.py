import json
import math
import random
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from ordersum import HARD_CAP, arith, cli, enumeration
from ordersum.enumeration import (
    A000001,
    DEFAULT_BOUND,
    GENERATOR_VERSION,
    EnumerationBoundError,
    canonical_form,
    catalog,
    flatten,
    isomorphic_to_canonical,
    psi_spectrum,
    shell_cells,
    _checked_class,
    _family_candidates,
    _is_canonical,
    _scan_labelings,
    _search_groups,
    abelian_invariant_chains,
)
from ordersum.groups import (
    Abelian,
    Cyclic,
    Dihedral,
    Group,
    SemidirectCyclic,
    build_group,
    validate_table,
)

# Regression values produced by this enumerator and cross-checked against
# the construction families; the order-8 and order-12 psi multisets carry
# independent corroboration (psi(Q8) = 27, psi(C8) = 43).  The class counts
# are OEIS A000001.
CLASS_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5,
    13: 1, 14: 2, 15: 1, 16: 14,
}
PSI_SPECTRA = {
    2: [3],
    4: [11, 7],
    8: [43, 27, 23, 19, 15],
    12: [77, 49, 45, 33, 31],
    16: [171, 87, 75, 67, 59, 55, 47, 39, 31],
}
ABOVE_DEFAULT = pytest.mark.filterwarnings("ignore:enumerating order:RuntimeWarning")


def relabel(g: Group, perm) -> Group:
    """The same group with each element x renamed perm[x]; perm[0] must be 0."""
    if perm[0] != 0:
        raise ValueError("relabelings must fix the identity at index 0")
    perm = np.asarray(perm)
    old = np.argsort(perm)  # old[new] is the element renamed to new
    return Group(perm[g.table][np.ix_(old, old)])


def as_class(g: Group):
    """A group's table in its own labeling, checked as a catalog class."""
    return _checked_class(g.table.tolist(), g.order)


class TestAllGroups:
    @ABOVE_DEFAULT
    def test_class_counts(self, cache_dir):
        for n, count in CLASS_COUNTS.items():
            assert len(catalog(n, bound=16, cache_dir=cache_dir)) == count, n

    def test_a000001_covers_the_hard_cap(self):
        assert len(A000001) > HARD_CAP
        assert {n: A000001[n] for n in CLASS_COUNTS} == CLASS_COUNTS

    def test_wrong_class_count_is_an_internal_error(self, capsys, monkeypatch, tmp_path):
        # A search that loses a class is a fault, never a failed claim: exit 2.
        real = enumeration._search_groups
        monkeypatch.setattr(enumeration, "_search_groups", lambda n: real(n)[:-1])
        with pytest.raises(RuntimeError, match="found 4 classes of order 8, not the 5"):
            catalog(8)
        assert cli.main(["catalog", "8", "--cache-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("not the 5 of OEIS A000001\n")
        assert not (tmp_path / "catalog" / "n=8.json").exists()

    def test_search_order_is_checked(self, capsys, monkeypatch, tmp_path):
        # The search yields its tables in strictly increasing flatten order;
        # a search that does not is a fault, never silently sorted: exit 2.
        real = enumeration._search_groups
        monkeypatch.setattr(enumeration, "_search_groups", lambda n: real(n)[::-1])
        with pytest.raises(RuntimeError, match="not in strictly increasing flatten order"):
            catalog(8)
        assert cli.main(["catalog", "8", "--cache-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("strictly increasing flatten order\n")
        assert not (tmp_path / "catalog" / "n=8.json").exists()

    @ABOVE_DEFAULT
    @pytest.mark.parametrize("n", sorted(PSI_SPECTRA))
    def test_psi_spectra(self, n, cache_dir):
        got = [e.psi for e in psi_spectrum(n, bound=16, cache_dir=cache_dir)]
        assert got == PSI_SPECTRA[n]

    def test_every_output_is_a_valid_group(self, cache_dir):
        for n in range(1, 13):
            for cls in catalog(n, cache_dir=cache_dir):
                validate_table(Group(cls.table).table)

    def test_cyclic_always_present(self, cache_dir):
        for n in range(1, 13):
            cyc = canonical_form(build_group(Cyclic(n)).table.tolist())
            assert cyc in [cls.table for cls in catalog(n, cache_dir=cache_dir)]

    def test_determinism(self):
        assert catalog(9) == catalog(9)
        assert catalog(10) == catalog(10)

    def test_bound_rejection(self):
        with pytest.raises(EnumerationBoundError, match=str(DEFAULT_BOUND)):
            catalog(13)
        with pytest.raises(EnumerationBoundError):
            catalog(13, bound=17)  # above the hard cap

    def test_warning_above_default(self):
        with pytest.warns(RuntimeWarning):
            catalog(13, bound=13)

    def test_no_warning_on_cache_hit(self, tmp_path):
        with pytest.warns(RuntimeWarning):
            catalog(13, bound=13, cache_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(catalog(13, bound=13, cache_dir=tmp_path)) == 1


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(99)
        for text in ["C12", "D8", "Q8", "SD(3,4,2)", "A[2,6]", "SD(5,4,2)"]:
            from ordersum.groups import parse_spec

            g = build_group(parse_spec(text))
            reference = canonical_form(g.table.tolist())
            for _ in range(4):
                perm = [0] + rng.sample(range(1, g.order), g.order - 1)
                assert canonical_form(relabel(g, perm).table.tolist()) == reference

    def test_distinguishes_non_isomorphic(self):
        c4 = canonical_form(build_group(Cyclic(4)).table.tolist())
        v4 = canonical_form(build_group(Abelian([2, 2])).table.tolist())
        assert c4 != v4

    def test_identifies_isomorphic_constructions(self):
        s3 = canonical_form(build_group(SemidirectCyclic(3, 2, 2)).table.tolist())
        d6 = canonical_form(build_group(Dihedral(6)).table.tolist())
        assert s3 == d6

    def test_relabeled_table_keeps_psi_and_profile(self):
        rng = random.Random(5)
        g = build_group(Dihedral(10))
        reference = Group(canonical_form(g.table.tolist()))
        perm = [0] + rng.sample(range(1, 10), 9)
        shuffled = relabel(g, perm)
        assert shuffled.psi() == reference.psi()
        assert shuffled.order_profile() == reference.order_profile()

    @ABOVE_DEFAULT
    def test_catalog_tables_are_canonical_forms(self, cache_dir):
        # canonical_form takes rows and returns the class's own table, int entries.
        for n in range(1, 17):
            for cls in catalog(n, bound=16, cache_dir=cache_dir):
                canon = canonical_form([list(r) for r in cls.table])
                assert canon == cls.table, cls.description
                assert all(type(v) is int for row in canon for v in row)

    def test_relabel_requires_fixed_identity(self):
        with pytest.raises(ValueError):
            relabel(build_group(Cyclic(3)), [1, 0, 2])

    def test_exhaustive_relabelings_small_orders(self, cache_dir):
        # Every identity-fixing relabeling of every class canonicalizes back
        # to its class representative, and distinct classes stay distinct.
        from itertools import permutations

        for n in range(1, 6):
            classes = catalog(n, cache_dir=cache_dir)
            seen = {}
            for cls in classes:
                g = Group(cls.table)
                for tail in permutations(range(1, n)):
                    perm = (0, *tail)
                    assert canonical_form(relabel(g, perm).table.tolist()) == cls.table
                seen[cls.table] = cls.description
            assert len(seen) == len(classes)


class TestIsomorphicToCanonical:
    def test_agrees_with_canonical_form(self, cache_dir):
        # Every family candidate, and a relabeling of each, against every class.
        rng = random.Random(3)
        for n in range(1, 13):
            classes = catalog(n, cache_dir=cache_dir)
            for desc, rows in _family_candidates(n):
                g = Group(rows)
                for h in [g, *_relabelings(g, 1, rng)]:
                    canon = canonical_form(h.table.tolist())
                    for cls in classes:
                        assert isomorphic_to_canonical(as_class(h), cls) is (
                            canon == cls.table), (n, desc)

    @ABOVE_DEFAULT
    def test_equal_order_profiles(self, cache_dir):
        # Order 16 is the least with non-isomorphic classes of equal order
        # profile: only the labeling scan tells them apart.
        rng = random.Random(16)
        classes = catalog(16, bound=16, cache_dir=cache_dir)
        for g in classes:
            h = next(_relabelings(Group(g.table), 1, rng))
            for cls in classes:
                assert isomorphic_to_canonical(as_class(h), cls) is (g == cls)

    @ABOVE_DEFAULT
    def test_colors_keep_the_uncolored_answer(self, cache_dir):
        # Every family candidate of order 1-16, and a relabeling of each,
        # against every class of its order.
        rng = random.Random(16)
        pairs = 0
        for n in range(1, 17):
            classes = catalog(n, bound=16, cache_dir=cache_dir)
            for desc, rows in _family_candidates(n):
                g = Group(rows)
                for cand in [as_class(g), *map(as_class, _relabelings(g, 1, rng))]:
                    for cls in classes:
                        assert isomorphic_to_canonical(cand, cls) is _uncolored_isomorphic(
                            cand, cls), (desc, cls.description)
                        pairs += 1
        assert pairs == 540

    def test_colors_at_order_24(self):
        # A relabeling of each class of order 24, from the search golden so
        # the search does not run, against every class of the order.
        golden = Path(__file__).resolve().parent / "golden" / "search" / "n=24.json"
        classes = [_checked_class(t, 24) for t in json.loads(golden.read_text())]
        rng = random.Random(24)
        for cls in classes:
            g = as_class(next(_relabelings(Group(cls.table), 1, rng)))
            for other in classes:
                found = isomorphic_to_canonical(g, other)
                assert found is _uncolored_isomorphic(g, other)
                assert found is (other is cls)

    def test_other_order(self):
        c4 = next(cls for cls in catalog(4) if cls.is_cyclic())
        c6 = next(cls for cls in catalog(6) if cls.is_cyclic())
        assert not isomorphic_to_canonical(c6, c4)


def _unpruned_scan(rows, ref=None, stop_below_ref=False):
    """The labeling scan without automorphism pruning, kept as a reference.

    Visits every BFS labeling that the comparison with the best flattening
    so far does not rule out; returns (found_below, best_flat).
    """
    n = len(rows)
    best_flat = list(ref) if ref is not None else None
    found_below = False

    def run(gens):
        L, pos, gi, emitted, prefix_lt, t = [0], {0: 0}, 0, 0, False, 1
        while True:
            if t >= len(L):
                if gi < len(gens):
                    pos[gens[gi]] = len(L)
                    L.append(gens[gi])
                    gi += 1
                    continue
                break
            for s in range(1, t + 1):
                for i, j in ((t, s), (s, t)) if s < t else ((t, t),):
                    x = rows[L[i]][L[j]]
                    lab = pos.get(x)
                    if lab is None:
                        lab = pos[x] = len(L)
                        L.append(x)
                    if best_flat is not None and not prefix_lt:
                        if lab > best_flat[emitted]:
                            return "pruned", L
                        prefix_lt = lab < best_flat[emitted]
                    emitted += 1
            t += 1
        return ("stall" if len(L) < n else "done"), L

    def rec(gens):
        nonlocal best_flat, found_below
        status, L = run(gens)
        if status == "pruned":
            return
        if status == "stall":
            for g in range(1, n):
                if g not in L:
                    rec(gens + [g])
                    if found_below and stop_below_ref:
                        return
            return
        posmap = {x: i for i, x in enumerate(L)}
        flat = [posmap[rows[L[i]][L[j]]] for i, j in shell_cells(n)]
        if ref is not None and flat < list(ref):
            found_below = True
        if best_flat is None or flat < best_flat:
            best_flat = flat

    rec([])
    return found_below, tuple(best_flat)


def _replayed_scan(rows, target: tuple | None = None, order: list | None = None):
    """The labeling scan as it was before runs resumed, kept as an oracle:
    each run is replayed from the identity, and the orbits are rebuilt from
    every recorded automorphism at each stall.

    Returns (best_flat, best_order, autos): the least flattening found, the
    labeling giving it (best_order lists the original element played by
    each new label) and the automorphisms recorded on the way.  Without a
    target the scan finds the least flattening.  With a target flattening
    it compares against it and stops at the first labeling that flattens
    strictly below it.  order is a labeling known to flatten to the target
    (``_is_canonical`` passes the table's own flattening and the identity);
    without one the scan also stops at the first labeling that flattens
    equal to the target, and best_order stays None when there is none.

    A completed labeling L that flattens equal to the best one is recorded
    as the automorphism best_order[i] -> L[i].  At each choice of the next
    generator, a candidate is skipped when the automorphisms found so far
    that fix every earlier generator map an explored candidate onto it: such
    an automorphism maps one subtree onto the other with equal flattenings.
    """
    n = len(rows)
    cells = shell_cells(n)
    best_flat, best_order = target, order
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
            if best_order is None:  # the first labeling equal to the target
                best_order = L
                stopped = True
                return
            auto = [0] * n
            for x, y in zip(best_order, L):
                auto[x] = y
            autos.append(auto)
            return
        if status == "below":
            posmap = {x: i for i, x in enumerate(L)}
            best_flat = tuple(posmap[rows[L[i]][L[j]]] for i, j in cells)
            best_order = L
            stopped = target is not None
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
    return best_flat, best_order, autos


def _uncolored_isomorphic(g, canon) -> bool:
    """``isomorphic_to_canonical`` without element colors: the order profiles,
    then the replayed scan against canon's flattening."""
    if len(g.table) != len(canon.table) or g.order_profile() != canon.order_profile():
        return False
    target = flatten(canon.table)
    flat, order, _ = _replayed_scan(g.table, target)
    return order is not None and flat == target


def _relabelings(g: Group, count: int, rng: random.Random):
    for _ in range(count):
        yield relabel(g, [0] + rng.sample(range(1, g.order), g.order - 1))


class TestPrunedScan:
    """The automorphism-pruned scan agrees with the unpruned one."""

    def test_matches_unpruned_scan(self, cache_dir):
        rng = random.Random(7)
        for n in range(1, 13):
            for cls in catalog(n, cache_dir=cache_dir):
                canon = Group(cls.table)
                for g in [canon, *_relabelings(canon, 2, rng)]:
                    rows = g.table.tolist()
                    _, least = _unpruned_scan(rows)
                    assert _scan_labelings(rows)[0] == least, (n, rows)
                    below, _ = _unpruned_scan(rows, flatten(rows), stop_below_ref=True)
                    assert _is_canonical(rows) is not below, (n, rows)
                    assert below is (as_class(g).table != cls.table), (n, rows)

    @ABOVE_DEFAULT
    def test_order_16_relabelings(self, cache_dir):
        rng = random.Random(16)
        classes = catalog(16, bound=16, cache_dir=cache_dir)
        assert "A[2,2,2,2]" in [cls.description for cls in classes]
        for cls in classes:
            assert _is_canonical(cls.table)
            for g in _relabelings(Group(cls.table), 3, rng):
                rows = g.table.tolist()
                assert canonical_form(rows) == cls.table, cls.description
                if as_class(g).table != cls.table:
                    assert not _is_canonical(rows), cls.description

    @ABOVE_DEFAULT
    def test_matches_replayed_scan(self, cache_dir):
        # Every class of order 1-16 and three relabelings of each, in the
        # three kinds of call: no target (canonical_form), the table's own
        # flattening with the identity labeling (_is_canonical), and each
        # class of the order as a target without a labeling.  The search
        # reads the automorphisms, so they must match as well.
        rng = random.Random(24)
        for n in range(1, 17):
            classes = catalog(n, bound=16, cache_dir=cache_dir)
            targets = [flatten(cls.table) for cls in classes]
            for cls in classes:
                relabeled = [g.table.tolist() for g in _relabelings(Group(cls.table), 3, rng)]
                for rows in [cls.table, *relabeled]:
                    assert _scan_labelings(rows) == _replayed_scan(rows), (n, rows)
                    own = flatten(rows)
                    assert (_scan_labelings(rows, own, list(range(n)))
                            == _replayed_scan(rows, own, list(range(n)))), (n, rows)
                    for target in targets:
                        assert (_scan_labelings(rows, target)
                                == _replayed_scan(rows, target)), (n, rows, target)

    @ABOVE_DEFAULT
    def test_resumed_runs_read_fewer_cells(self, cache_dir):
        # _is_canonical's scan of the 14 classes of order 16 reads 44,347
        # table cells when every run is replayed from the identity, and
        # 27,749 when each run resumes where its parent stalled.
        class Row(list):
            def __getitem__(self, j):
                reads[0] += 1
                return list.__getitem__(self, j)

        classes = catalog(16, bound=16, cache_dir=cache_dir)
        reads = [0]
        counts = []
        for scan in (_replayed_scan, _scan_labelings):
            reads[0] = 0
            for cls in classes:
                scan([Row(r) for r in cls.table], flatten(cls.table), list(range(16)))
            counts.append(reads[0])
        assert counts[0] == 44_347
        assert counts[1] <= 28_000

    def test_prunes_by_automorphisms(self):
        # C2 x C2 x C2 has 168 BFS labelings, all flattening alike; pruning by
        # the automorphisms they reveal reads a small fraction of the cells.
        class Row(list):
            def __getitem__(self, j):
                reads[0] += 1
                return list.__getitem__(self, j)

        rows = [Row(r) for r in build_group(Abelian([2, 2, 2])).table.tolist()]
        reads = [0]
        _unpruned_scan(rows)
        unpruned, reads[0] = reads[0], 0
        assert _scan_labelings(rows)[0] == flatten(rows)
        assert reads[0] * 10 < unpruned


class TestSearchPruning:
    def test_partial_canonicity_prunes_order_16(self, monkeypatch):
        # Without pruning partial tables, 241 complete order-16 tables reach
        # the final canonicity check and 227 of them fail it.
        handed = []
        real = enumeration._is_canonical

        def counting(rows, *args):
            if len(rows) == 16:
                handed.append(rows)
            return real(rows, *args)

        monkeypatch.setattr(enumeration, "_is_canonical", counting)
        assert len(_search_groups(16)) == 14
        assert len(handed) <= 60

    def test_closed_subgroup_tables_are_distinct(self, monkeypatch):
        # The branches fill cells inside the closed k x k block, so no two
        # paths close the same subgroup table: a cache of canonicity results
        # would never hit.
        handed = []
        real = enumeration._is_canonical

        def recording(rows, *args):
            handed.append(rows)
            return real(rows, *args)

        monkeypatch.setattr(enumeration, "_is_canonical", recording)
        for n in range(1, 25):
            handed.clear()
            _search_groups(n)
            assert len(set(handed)) == len(handed), n

    def test_subgroup_automorphisms_are_recorded(self):
        autos = []
        rows = build_group(Abelian([2, 2, 2])).table.tolist()
        assert _is_canonical(rows, autos)
        assert autos
        for auto in autos:
            assert sorted(auto) == list(range(8)) and auto[0] == 0
            assert all(auto[rows[x][y]] == rows[auto[x]][auto[y]]
                       for x in range(8) for y in range(8))


class TestCompleteness:
    def test_families_land_in_catalog(self, cache_dir):
        # Every construction-family group of order n matches exactly one class.
        for n in range(1, 13):
            classes = {c.table for c in catalog(n, cache_dir=cache_dir)}
            for desc, rows in _family_candidates(n):
                assert canonical_form(rows) in classes, (n, desc)

    def test_top_of_spectrum_uniquely_cyclic(self, cache_dir):
        for n in range(2, 13):
            entries = psi_spectrum(n, cache_dir=cache_dir)
            assert entries[0].psi == arith.psi_cyclic(n)
            assert entries[0].count == 1


def _partition_count(e: int) -> int:
    """The number of partitions of e, by adding the parts 1, 2, ... e in turn."""
    ways = [1] + [0] * e
    for part in range(1, e + 1):
        for total in range(part, e + 1):
            ways[total] += ways[total - part]
    return ways[e]


class TestInvariantChains:
    def test_chains_to_2000(self):
        # One chain per choice of a partition of each prime's exponent.
        for n in range(1, 2001):
            chains = abelian_invariant_chains(n)
            for chain in chains:
                assert math.prod(chain) == n and all(d > 1 for d in chain), (n, chain)
                assert all(b % a == 0 for a, b in zip(chain, chain[1:])), (n, chain)
            assert chains == sorted(set(chains)), n
            assert len(chains) == math.prod(_partition_count(e) for _, e in arith.factorize(n)), n

    def test_pinned(self):
        assert abelian_invariant_chains(1) == [()]
        assert abelian_invariant_chains(16) == [(2, 2, 2, 2), (2, 2, 4), (2, 8), (4, 4), (16,)]
        assert abelian_invariant_chains(72) == [
            (2, 2, 18), (2, 6, 6), (2, 36), (3, 24), (6, 12), (72,)]


def _relabel_q8(data: dict) -> None:
    """Swap elements 1 and 2 of Q8, the last class of order 8.

    The table stays a group, in flatten order after the others, with the
    same psi and order profile; only the canonicity check can reject it.
    """
    entry = data["classes"][4]
    assert entry["description"] == "Q8"
    entry["table"] = relabel(Group(entry["table"]), [0, 2, 1, 3, 4, 5, 6, 7]).table.tolist()


def _set_entry(data: dict, row: int, col: int, value) -> None:
    """Set one entry of the table of D8."""
    next(c for c in data["classes"] if c["description"] == "D8")["table"][row][col] = value


def _swap_intercalate(data: dict) -> None:
    """Swap one 2 x 2 subsquare a b / b a of C8 off row and column 0.

    The table stays a Latin square with identity 0, so only the
    associativity test can reject it."""
    table = next(c for c in data["classes"] if c["description"] == "C8")["table"]
    n = len(table)
    a, b, c, d = next((a, b, c, d) for a in range(1, n) for b in range(a + 1, n)
                      for c in range(1, n) for d in range(c + 1, n)
                      if table[a][c] == table[b][d] and table[a][d] == table[b][c])
    table[a][c], table[a][d], table[b][c], table[b][d] = (
        table[a][d], table[a][c], table[b][d], table[b][c])
    assert any(table[table[x][y]][z] != table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def _delete_class(data: dict, description: str) -> None:
    """Drop one class; the rest stay canonical, in order and correctly valued."""
    classes = data["classes"]
    classes.remove(next(c for c in classes if c["description"] == description))


class TestCatalogCache:
    def test_roundtrip(self, tmp_path):
        first = catalog(8, cache_dir=tmp_path)
        path = tmp_path / "catalog" / "n=8.json"
        assert path.exists()
        second = catalog(8, cache_dir=tmp_path)
        assert first == second

    def test_recorded_files_load_without_warning(self, tmp_path):
        """The golden cache files of orders 2-16 pass every check on load."""
        golden = Path(__file__).resolve().parent / "golden" / "catalog"
        shutil.copytree(golden, tmp_path / "catalog")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(2, 17):
                assert len(catalog(n, bound=16, cache_dir=tmp_path)) == len(
                    json.loads((golden / f"n={n}.json").read_text())["classes"])

    def test_version_invalidation(self, tmp_path):
        catalog(6, cache_dir=tmp_path)
        path = tmp_path / "catalog" / "n=6.json"
        data = json.loads(path.read_text())
        data["generator_version"] = GENERATOR_VERSION + 1
        path.write_text(json.dumps(data))
        fresh = catalog(6, cache_dir=tmp_path)
        assert len(fresh) == 2
        assert json.loads(path.read_text())["generator_version"] == GENERATOR_VERSION

    def test_corrupt_cache_recomputed(self, tmp_path):
        path = tmp_path / "catalog" / "n=4.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="invalid cache file"):
            assert len(catalog(4, cache_dir=tmp_path)) == 2

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda d: d["classes"][0].update(psi=999),
            lambda d: d["classes"][1].update(order_profile=[[1, 1], [2, 7]]),
            lambda d: d["classes"][1]["table"][1].reverse(),  # not a group
            lambda d: d["classes"][1].update(table=[[0, 1], [1, 0]]),  # wrong order
            lambda d: d["classes"][1].update(description=None),
            lambda d: d["classes"][1].pop("psi"),
            lambda d: d.pop("classes"),
            lambda d: d.update(n=6),
            lambda d: d["classes"].__setitem__(2, d["classes"][1]),  # a class twice
            lambda d: d["classes"].insert(1, d["classes"].pop(2)),  # two classes swapped
            _relabel_q8,
            pytest.param(lambda d: _delete_class(d, "C8"), id="C8 deleted"),
            pytest.param(lambda d: _delete_class(d, "A[2,4]"), id="A[2,4] deleted"),
            pytest.param(lambda d: _delete_class(d, "Q8"), id="Q8 deleted"),
            # true and 1.0 compare equal to the 1 they replace, but are no ints.
            pytest.param(lambda d: _set_entry(d, 1, 0, True), id="true entry"),
            pytest.param(lambda d: _set_entry(d, 1, 0, 1.0), id="1.0 entry"),
            pytest.param(lambda d: _set_entry(d, 1, 1, None), id="null entry"),
            pytest.param(lambda d: _set_entry(d, 1, 1, 8), id="entry 8"),
            pytest.param(lambda d: _set_entry(d, 1, 1, -1), id="entry -1"),
            pytest.param(lambda d: _set_entry(d, 1, 1, 2**70), id="entry 2**70"),
            pytest.param(lambda d: d["classes"][1]["table"][3].pop(), id="ragged row"),
            pytest.param(_swap_intercalate, id="non-associative loop"),
        ],
    )
    def test_invalid_cache_recomputed_and_rewritten(self, tmp_path, tamper):
        first = catalog(8, cache_dir=tmp_path)
        path = tmp_path / "catalog" / "n=8.json"
        good = path.read_bytes()
        data = json.loads(good)
        tamper(data)
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="invalid cache file"):
            assert catalog(8, cache_dir=tmp_path) == first
        assert path.read_bytes() == good

    @pytest.mark.parametrize("data", [b"[" * 200_000, b"\xff\xfe"], ids=["nested", "binary"])
    def test_unreadable_cache_recomputed_and_rewritten(self, tmp_path, data):
        # json.load raises RecursionError on deep nesting, and
        # UnicodeDecodeError on bytes that are not UTF-8.
        first = catalog(8, cache_dir=tmp_path)
        path = tmp_path / "catalog" / "n=8.json"
        good = path.read_bytes()
        path.write_bytes(data)
        with pytest.warns(RuntimeWarning, match="invalid cache file"):
            assert catalog(8, cache_dir=tmp_path) == first
        assert path.read_bytes() == good

    @ABOVE_DEFAULT
    def test_non_abelian_class_deleted_at_order_16(self, cache_dir, tmp_path):
        # Every other check passes: only the count of OEIS A000001 catches it.
        golden = Path(__file__).resolve().parent / "golden" / "catalog" / "n=16.json"
        path = tmp_path / "catalog" / "n=16.json"
        path.parent.mkdir()
        data = json.loads(golden.read_bytes())
        _delete_class(data, "Q16")
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="it holds 13 classes, not the 14 groups"):
            assert catalog(16, bound=16, cache_dir=tmp_path) == catalog(
                16, bound=16, cache_dir=cache_dir)
        assert path.read_bytes() == golden.read_bytes()

    def test_save_leaves_no_temporary_file(self, tmp_path):
        catalog(6, cache_dir=tmp_path)
        assert [p.name for p in (tmp_path / "catalog").iterdir()] == ["n=6.json"]


class TestDescriptions:
    def test_order_12_names(self, cache_dir):
        by_desc = {c.description: c.psi for c in catalog(12, cache_dir=cache_dir)}
        assert by_desc["C12"] == 77
        assert by_desc["A[2,6]"] == 49
        assert by_desc["D12"] == 33
        assert by_desc["A4"] == 31
        assert by_desc["Dic3 = SD(3,4,2)"] == 45

    def test_spectrum_witnesses(self, cache_dir):
        entries = psi_spectrum(8, cache_dir=cache_dir)
        flat = {e.psi: e.witnesses for e in entries}
        assert flat[43] == ("C8",)
        assert flat[27] == ("Q8",)
