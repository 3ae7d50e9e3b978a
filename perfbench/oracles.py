"""Independent oracles for checking ordersum's outputs.

Nothing here imports ordersum.  Every value is recomputed from a definition
(walking a multiplication law element by element), from a closed form, or
from the literature, so a fault in the program cannot hide in its own check.
Plain Python integers and Fractions only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod

# Number of groups of order n up to isomorphism (OEIS A000001), n = 1..16.
A000001 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
           9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14}


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 by trial division."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def least_prime(n: int) -> int:
    return factorize(n)[0][0]


def phi(n: int) -> int:
    return prod(p ** (e - 1) * (p - 1) for p, e in factorize(n))


def psi_cyclic(n: int) -> int:
    """psi(C_n) = sum of d * phi(d) over the divisors d of n."""
    return sum(d * phi(d) for d in divisors(n))


def psi_quaternion(n: int) -> int:
    """psi(Q_n), n = 2^s >= 8: psi(C_{2^(s-1)}) plus 2^(s-1) elements of order 4."""
    return psi_cyclic(n // 2) + 4 * (n // 2)


def psi_abelian(factors) -> int:
    """psi of C_{d1} x ... x C_{dr} from the solution counts of x^t = 1.

    #{x : x^t = 1} = prod gcd(t, d_i); the elements of order exactly t are
    that count minus the elements of every smaller order dividing t.
    """
    exponent = 1
    for d in factors:
        exponent = exponent * d // gcd(exponent, d)
    exact: dict[int, int] = {}
    for t in divisors(exponent):
        solutions = prod(gcd(t, d) for d in factors)
        exact[t] = solutions - sum(c for s, c in exact.items() if t % s == 0)
    return sum(t * c for t, c in exact.items())


def orders_by_walk(elements, mul, identity) -> list[int]:
    """Order of every element: multiply by x until the identity comes back."""
    orders = []
    for x in elements:
        cur, t = x, 1
        while cur != identity:
            cur = mul(cur, x)
            t += 1
        orders.append(t)
    return orders


def table_orders(rows) -> list[int]:
    """Element orders of a multiplication table given as lists, identity 0."""
    return orders_by_walk(range(len(rows)), lambda a, b: rows[a][b], 0)


def psi_semidirect(m: int, k: int, a: int) -> int:
    """psi(C_m x| C_k) by walking (i1, j1)(i2, j2) = (i1 + a^j1 i2 mod m, j1 + j2 mod k)."""
    apow = [pow(a, j, m) for j in range(k)]

    def mul(x, y):
        return ((x[0] + apow[x[1]] * y[0]) % m, (x[1] + y[1]) % k)

    return sum(orders_by_walk(itertools.product(range(m), range(k)), mul, (0, 0)))


def psi_alternating4() -> int:
    """psi(A4) by walking the even permutations of four points."""
    def even(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0

    elements = [p for p in itertools.permutations(range(4)) if even(p)]
    return sum(orders_by_walk(elements, lambda p, q: tuple(p[q[i]] for i in range(4)),
                              tuple(range(4))))


def known_spectrum(n: int) -> list[int]:
    """psi of every group of order 8 or 12, one per class, from constructions."""
    if n == 8:  # C8, C4xC2, C2^3, D8, Q8
        values = [psi_abelian([8]), psi_abelian([2, 4]), psi_abelian([2, 2, 2]),
                  psi_semidirect(4, 2, 3), psi_quaternion(8)]
    elif n == 12:  # C12, C2xC6, D12, Dic3, A4
        values = [psi_abelian([12]), psi_abelian([2, 6]), psi_semidirect(6, 2, 5),
                  psi_semidirect(3, 4, 2), psi_alternating4()]
    else:
        raise ValueError(f"no known spectrum for order {n}")
    assert len(values) == A000001[n]
    return sorted(values)


def is_group_table(rows) -> bool:
    """Identity at 0, every row and column a permutation, associativity."""
    n = len(rows)
    idx = list(range(n))
    if any(len(r) != n for r in rows) or list(rows[0]) != idx:
        return False
    if [r[0] for r in rows] != idx:
        return False
    if any(sorted(r) != idx for r in rows):
        return False
    if any(sorted(rows[i][j] for i in idx) != idx for j in idx):
        return False
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
               for a in idx for b in idx for c in idx)


def f_ratio(q: int) -> Fraction:
    """The second-maximal ratio ((q^2-1)q+1)(q+1) / (q^5+1)."""
    return Fraction(((q * q - 1) * q + 1) * (q + 1), q**5 + 1)


def equality_orders(nmax: int) -> set[int]:
    """n <= nmax of the form q^2 k with q the least prime and k free of primes <= q."""
    out = set()
    for n in range(2, nmax + 1):
        q = least_prime(n)
        if n % (q * q) == 0 and (n // (q * q)) % q != 0:
            out.add(n)
    return out


def sylow_semidirect_triples(mk_max: int) -> list[tuple[int, int, int]]:
    """(m, k, a): m a prime power, gcd(m, k) = 1, mk <= mk_max, a^k = 1 mod m."""
    return [(m, k, a)
            for m in range(2, mk_max + 1) if len(factorize(m)) == 1
            for k in range(1, mk_max // m + 1) if gcd(m, k) == 1
            for a in range(1, m) if gcd(a, m) == 1 and pow(a, k, m) == 1]


def action_kernel(m: int, k: int, a: int) -> int:
    """|C_z| = k / (multiplicative order of a mod m)."""
    t, cur = 1, a % m
    while cur != 1 % m:
        cur = cur * a % m
        t += 1
    return k // t


def lemma6_bound(m: int, k: int, a: int) -> Fraction:
    z = action_kernel(m, k, a)
    return psi_cyclic(m) * psi_cyclic(k) * (
        Fraction(psi_cyclic(z), psi_cyclic(k)) + Fraction(m, psi_cyclic(m)))


def audit_cross(q: int) -> tuple[int, int]:
    """Cross-multiplied sides of 1/(q^2-q+1) + (q+3)/(q+2)^2 < f(q)."""
    lhs = Fraction(1, q * q - q + 1) + Fraction(q + 3, (q + 2) ** 2)
    rhs = f_ratio(q)
    return lhs.numerator * rhs.denominator, rhs.numerator * lhs.denominator
