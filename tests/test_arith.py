import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordersum import arith
from ordersum.arith import (
    divisors,
    euler_phi,
    f_ratio,
    factorize,
    psi_cyclic,
    psi_cyclic_oracle,
    psi_cyclic_prime_power,
)

PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97]


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [(12, [(2, 2), (3, 1)]), (1, []), (97, [(97, 1)]), (360, [(2, 3), (3, 2), (5, 1)])],
    )
    def test_examples(self, n, expected):
        assert factorize(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(1, 100_000))
    def test_roundtrip(self, n):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(arith.is_prime(p) for p, _ in fac)
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


class TestIsPrime:
    def test_agrees_with_sieve(self):
        primes = [n for n in range(10**5 + 1) if arith.is_prime(n)]
        assert primes == list(arith.primes_up_to(10**5))

    def test_square_of_largest_sieve_prime(self):
        assert not arith.is_prime(999983**2)

    def test_prime_past_sieve_range(self):
        with pytest.raises(ValueError):
            arith.is_prime(1000000000039)


class TestEulerPhi:
    @pytest.mark.parametrize("n,expected", [(1, 1), (9, 6), (12, 4), (97, 96)])
    def test_examples(self, n, expected):
        assert euler_phi(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_divisor_sum_identity(self):
        # sum of phi(d) over divisors of n equals n
        for n in range(1, 500):
            assert sum(euler_phi(d) for d in divisors(n)) == n


class TestPsiCyclic:
    @pytest.mark.parametrize(
        "p,m,expected",
        [(2, 3, 43), (3, 2, 61), (2, 0, 1), (5, 0, 1), (7, 1, 43)],
    )
    def test_prime_power(self, p, m, expected):
        assert psi_cyclic_prime_power(p, m) == expected

    def test_prime_power_rejects_composite(self):
        with pytest.raises(ValueError):
            psi_cyclic_prime_power(6, 2)

    @pytest.mark.parametrize("n,expected", [(8, 43), (1, 1), (12, 77), (30, 441)])
    def test_closed_form(self, n, expected):
        assert psi_cyclic(n) == expected

    @pytest.mark.parametrize("n,expected", [(6, 21), (1, 1), (9, 61)])
    def test_oracle(self, n, expected):
        assert psi_cyclic_oracle(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            psi_cyclic(0)
        with pytest.raises(ValueError):
            psi_cyclic_oracle(0)

    def test_closed_form_matches_oracle_to_5000(self):
        for n in range(1, 5001):
            assert psi_cyclic(n) == psi_cyclic_oracle(n), n

    def test_odd_for_all_n(self):
        assert all(psi_cyclic(n) % 2 == 1 for n in range(1, 2001))

    @given(st.integers(1, 300), st.integers(1, 300))
    def test_multiplicative_over_coprime(self, a, b):
        if math.gcd(a, b) == 1:
            assert psi_cyclic(a * b) == psi_cyclic(a) * psi_cyclic(b)


class TestFRatio:
    def test_known_values(self):
        assert f_ratio(2) == Fraction(7, 11)
        assert f_ratio(3) == Fraction(25, 61)
        assert f_ratio(5) == Fraction(121, 521)

    def test_f3_matches_group_ratio(self):
        # f(3) equals psi(C3 x C3) / psi(C9), both by brute force.
        from ordersum.groups import Abelian, Cyclic, build_group

        num = build_group(Abelian([3, 3])).psi()
        den = build_group(Cyclic(9)).psi()
        assert f_ratio(3) == Fraction(num, den)

    def test_below_one(self):
        assert all(f_ratio(q) < 1 for q in PRIMES_TO_97)

    def test_strictly_decreasing(self):
        values = [f_ratio(q) for q in PRIMES_TO_97]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            f_ratio(4)


class TestHelpers:
    def test_multiplicative_order(self):
        assert arith.multiplicative_order(2, 3) == 2
        assert arith.multiplicative_order(2, 5) == 4
        assert arith.multiplicative_order(1, 7) == 1
        assert arith.multiplicative_order(4, 1) == 1
        with pytest.raises(ValueError):
            arith.multiplicative_order(2, 4)

    def test_prime_factor_extremes(self):
        assert arith.least_prime_factor(12) == 2
        with pytest.raises(ValueError):
            arith.least_prime_factor(1)
