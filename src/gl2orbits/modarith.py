"""Exact arithmetic in the prime field Z/lZ and in its cyclic unit group.

Everything in this module is an immutable value or a pure function, so all
of it can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (desk scale, l <= ~500)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    if n < 2:
        return ()
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p = 3 if p == 2 else p + 2
    if m > 1:
        out.append(m)
    return tuple(out)


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors of non-positive {n}")
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return tuple(small + large[::-1])


@dataclass(frozen=True)
class PrimeModulus:
    """A prime l, the shared modulus of every residue in one computation."""

    ell: int

    def __post_init__(self) -> None:
        if not is_prime(self.ell):
            raise ValueError(f"modulus {self.ell} is not prime")

    def require_odd(self, context: str) -> None:
        """Explicitly reject l = 2 where the construction needs an odd prime."""
        if self.ell == 2:
            raise ValueError(f"{context} requires an odd prime, got l = 2")

    def __repr__(self) -> str:
        return f"PrimeModulus({self.ell})"


@dataclass(frozen=True)
class FpUnit:
    """A nonzero residue mod l, stored canonically in [1, l-1]."""

    value: int
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.modulus.ell)
        if self.value == 0:
            raise ValueError(f"0 is not a unit mod {self.modulus.ell}")

    def __mul__(self, other: FpUnit) -> FpUnit:
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")
        return FpUnit(self.value * other.value, self.modulus)

    def inverse(self) -> FpUnit:
        return FpUnit(pow(self.value, -1, self.modulus.ell), self.modulus)

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.modulus.ell})"


def multiplicative_order(x: FpUnit) -> int:
    n = x.modulus.ell - 1
    order = n
    for p in prime_factors(n):
        while order % p == 0 and pow(x.value, order // p, x.modulus.ell) == 1:
            order //= p
    return order


def least_primitive_root(m: PrimeModulus) -> FpUnit:
    """Smallest integer in [2, l-1] generating the full unit group mod l."""
    m.require_odd("least_primitive_root")
    n = m.ell - 1
    for g in range(2, m.ell):
        if multiplicative_order(FpUnit(g, m)) == n:
            return FpUnit(g, m)
    raise RuntimeError(f"no primitive root mod {m.ell}")  # unreachable for prime l


def power_image_order(n: int, k: int) -> int:
    """Order of the k-th power subgroup of a cyclic group of order n."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return n // math.gcd(k, n)

