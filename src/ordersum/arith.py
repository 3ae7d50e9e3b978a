"""Exact integer and rational arithmetic for element-order sums, and the
actions x -> x**a that make C_m x| C_k a group (``semidirect_actions``).

Everything here is integer or ``fractions.Fraction``; no floating point is
used anywhere in the package, so every comparison made by the verification
suites is bit-exact.  ``is_prime`` and the multiplicative functions all read
``factorize``, the one trial division by the primes up to ``SIEVE_BOUND``.
"""

from __future__ import annotations

import math
from functools import lru_cache

#: (prime, exponent) pairs with strictly increasing primes.
Factorization = list[tuple[int, int]]

SIEVE_BOUND = 1_000_000


@lru_cache(maxsize=None)
def primes_up_to(bound: int) -> tuple[int, ...]:
    """Primes up to ``bound`` by sieve of Eratosthenes."""
    if bound < 2:
        return ()
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> Factorization:
    """Factor ``n >= 1`` into (prime, exponent) pairs, primes ascending.

    Trial division against a cached sieve; ``factorize(1)`` is the empty
    product.  Raises for n = 0 and for inputs whose unfactored part could
    be composite (beyond ``SIEVE_BOUND**2``).
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; need n >= 1")
    out: Factorization = []
    rest = n
    for p in primes_up_to(min(SIEVE_BOUND, math.isqrt(n) + 1)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
    if rest > 1:
        if rest > SIEVE_BOUND * SIEVE_BOUND:
            raise ValueError(f"unfactored part {rest} exceeds sieve bound squared")
        out.append((rest, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    """Euler totient, computed from the factorization."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def least_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError(f"{n} has no prime factors")
    return factorize(n)[0][0]


def multiplicative_order(a: int, m: int) -> int:
    """Least t >= 1 with a**t == 1 (mod m); requires gcd(a, m) == 1."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m == 1:
        return 1
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible mod {m}")
    t, cur = 1, a
    while cur != 1:
        cur = cur * a % m
        t += 1
    return t


def semidirect_actions(m: int, k: int) -> list[int]:
    """Every a in 1..m-1 for which x -> x**a makes C_m x| C_k a group: a unit
    mod m with a**k == 1 (mod m)."""
    return [a for a in range(1, m) if math.gcd(a, m) == 1 and pow(a, k, m) == 1]


def psi_cyclic_prime_power(p: int, m: int) -> int:
    """Sum of element orders of the cyclic group of order p**m.

    Closed form (p**(2m+1) + 1) // (p + 1), an exact integer.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 0:
        raise ValueError(f"exponent must be >= 0, got {m}")
    num = p ** (2 * m + 1) + 1
    assert num % (p + 1) == 0
    return num // (p + 1)


def psi_cyclic(n: int) -> int:
    """Sum of element orders of the cyclic group of order n.

    Multiplicative over the prime-power factorization.
    """
    if n < 1:
        raise ValueError(f"psi_cyclic needs n >= 1, got {n}")
    out = 1
    for p, e in factorize(n):
        out *= psi_cyclic_prime_power(p, e)
    return out


def psi_cyclic_oracle(n: int) -> int:
    """Independent brute-force value of ``psi_cyclic``.

    A cyclic group of order n has exactly phi(d) elements of order d for
    each divisor d, so the sum of element orders is sum(d * phi(d)).
    Kept deliberately separate from the closed form as an anti-bug check.
    """
    if n < 1:
        raise ValueError(f"psi_cyclic_oracle needs n >= 1, got {n}")
    return sum(d * euler_phi(d) for d in divisors(n))


def f_ratio(q: int) -> Fraction:
    """The second-maximal ratio ((q^2-1)q+1)(q+1) / (q^5+1) at a prime q.

    This is the exact factor by which the top sum of element orders drops
    when passing from the cyclic group to the best non-cyclic group whose
    order has least prime divisor q.  Equals 7/11 at q = 2 and is strictly
    decreasing in q.
    """
    from fractions import Fraction  # here: psi, catalog and spectrum build no Fraction

    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return Fraction(((q * q - 1) * q + 1) * (q + 1), q**5 + 1)
