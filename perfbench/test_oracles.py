"""Known values for the benchmark's oracles.

Run with `python3 -m pytest perfbench` or `python3 perfbench/test_oracles.py`.
"""

import oracles as o


def cyclic_rows(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_rows(a, b):
    na, nb = len(a), len(b)
    return [[a[i // nb][j // nb] * nb + b[i % nb][j % nb] for j in range(na * nb)]
            for i in range(na * nb)]


def test_psi_small_groups():
    assert o.psi_quaternion(8) == 27
    assert o.psi_cyclic(8) == o.psi_abelian([8]) == sum(o.table_orders(cyclic_rows(8))) == 43
    c2x2x3 = product_rows(product_rows(cyclic_rows(2), cyclic_rows(2)), cyclic_rows(3))
    assert o.is_group_table(c2x2x3)
    assert o.psi_abelian([2, 2, 3]) == sum(o.table_orders(c2x2x3)) == 49


def test_psi_order_2048():
    assert o.psi_cyclic(2048) == 2796203
    assert o.psi_quaternion(2048) == 703147


def test_semidirect_walk():
    assert o.psi_semidirect(3, 2, 2) == 13  # D6
    assert o.psi_semidirect(5, 3, 1) == o.psi_cyclic(15)  # trivial action


def test_known_spectra():
    assert o.known_spectrum(8) == [15, 19, 23, 27, 43]
    assert o.known_spectrum(12) == [31, 33, 45, 49, 77]


def test_group_counts():
    assert sum(o.A000001[n] for n in range(2, 17)) == 41


def test_equality_orders():
    assert o.equality_orders(16) == {4, 9, 12}
    assert o.f_ratio(2) * o.psi_cyclic(12) == 49


def test_audit_cross_values():
    assert o.audit_cross(2) == (341, 336)
    assert o.audit_cross(3) == (4087, 4375)


def test_is_group_table_rejects_non_groups():
    assert not o.is_group_table([[0, 1], [1, 1]])
    rows = cyclic_rows(4)
    rows[1], rows[2] = rows[2], rows[1]
    assert not o.is_group_table(rows)


def test_triples():
    triples = o.sylow_semidirect_triples(12)
    assert (3, 2, 2) in triples and (3, 4, 2) in triples and (4, 3, 1) in triples
    assert all(pow(a, k, m) == 1 for m, k, a in triples)
    assert len(set(triples)) == len(triples)
    assert all(len(o.factorize(m)) == 1 for m, _, _ in triples)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
