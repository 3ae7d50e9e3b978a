import json
import math
import random

import numpy as np
import pytest

from ordersum import arith
from ordersum.groups import (
    Abelian,
    Cyclic,
    Dihedral,
    DirectProduct,
    FromPermutations,
    FromTable,
    GeneralizedQuaternion,
    Group,
    GroupSpecError,
    Modular,
    SemidirectCyclic,
    TableError,
    build_group,
    format_spec,
    kernel_of_action,
    parse_spec,
    semidirect_actions,
)

# Table files that are not a JSON list of lists of integers.
MALFORMED_TABLES = ["[[0,1],[1,0.9]]", "[1,2]", "[[0,1],[1,false]]"]
# Entries outside 0..n-1, one of them past 64 bits.
OUT_OF_RANGE_TABLES = ["[[0,1],[1,99999999999999999999]]", "[[0,1],[1,-1]]", "[[0,1],[1,2]]"]
MALFORMED_PERMS = ["[[1.9, 0, 2]]", "[[true, false]]"]


class TestBuildGroup:
    def test_cyclic(self):
        g = build_group(Cyclic(6))
        assert g.order == 6 and g.is_cyclic()

    def test_symmetric_3(self):
        g = build_group(SemidirectCyclic(3, 2, 2))
        assert g.order == 6 and not g.is_abelian() and g.psi() == 13

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
        assert g.element_order(0) == 1

    def test_cyclic_generator(self):
        g = build_group(Cyclic(12))
        assert g.element_order(1) == 12

    def test_quaternion_unique_involution(self):
        g = build_group(GeneralizedQuaternion(8))
        involutions = [x for x in range(8) if g.element_order(x) == 2]
        assert len(involutions) == 1

    def test_out_of_range(self):
        g = build_group(Cyclic(4))
        with pytest.raises(IndexError):
            g.element_order(4)

    def test_lagrange(self):
        for spec in (Cyclic(24), Dihedral(20), GeneralizedQuaternion(16),
                     SemidirectCyclic(7, 3, 2), Modular(3, 3)):
            g = build_group(spec)
            assert all(g.order % g.element_order(x) == 0 for x in range(g.order))


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

    def test_equality_compares_tables(self):
        assert build_group(Cyclic(6)) == build_group(parse_spec("C6"))
        assert build_group(Cyclic(4)) != build_group(Abelian([2, 2]))
        same = Group(build_group(Dihedral(8)).table.tolist(), check="full")
        assert same == build_group(Dihedral(8)) and same.spec is None
        assert hash(same) == hash(build_group(Dihedral(8)))


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

    def test_rejects_non_associative(self):
        # Latin square with identity but (1*1)*2 != 1*(1*2).
        rows = [[0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0]]
        with pytest.raises(TableError):
            build_group(FromTable(rows))

    def test_spot_check_rejects_non_associative(self):
        # The same non-associative Latin square, passed off as a generated table.
        rows = [[0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0]]
        with pytest.raises(TableError, match="spot check"):
            Group(rows, spec=Cyclic(5), check="spot")

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
        with pytest.raises(GroupSpecError):
            FromTable(json.loads(text))

    @pytest.mark.parametrize("text", OUT_OF_RANGE_TABLES)
    def test_rejects_out_of_range_entries(self, text):
        with pytest.raises(GroupSpecError, match="outside 0..1"):
            FromTable(json.loads(text))

    @pytest.mark.parametrize("text", MALFORMED_PERMS)
    def test_rejects_non_integer_permutations(self, text):
        perms = json.loads(text)
        with pytest.raises(GroupSpecError):
            FromPermutations(len(perms[0]), perms)

    def test_permutation_group(self):
        s3 = build_group(FromPermutations(3, ((1, 0, 2), (1, 2, 0))))
        assert s3.order == 6 and s3.psi() == 13

    def test_permutation_budget(self):
        with pytest.raises(GroupSpecError):
            build_group(
                FromPermutations(5, ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))),
                element_budget=10,
            )

    def test_rejects_bad_permutation(self):
        with pytest.raises(GroupSpecError):
            build_group(FromPermutations(3, ((0, 0, 1),)))


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
        with pytest.raises(GroupSpecError):
            parse_spec(f"table:{path}")

    @pytest.mark.parametrize("text", OUT_OF_RANGE_TABLES + MALFORMED_PERMS)
    def test_malformed_entries_in_files(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        kind = "perm" if text in MALFORMED_PERMS else "table"
        with pytest.raises(GroupSpecError):
            parse_spec(f"{kind}:{path}")
