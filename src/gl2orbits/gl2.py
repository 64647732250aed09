"""2x2 invertible matrices over Z/lZ and finite subgroups of GL2(l).

Groups carry their full element set. Constructions are exhaustive by
design; a prime cap keeps the largest standard group (the Borel, order
l(l-1)^2) near a million elements. Closure runs breadth-first over plain
integer 4-tuples and materializes matrix objects once at the end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .modarith import PrimeModulus, least_primitive_root, prime_factors

# The Borel at l = 97 holds 97 * 96^2 = 893,952 elements; above that the
# explicit-element-set representation stops being comfortable.
BOREL_PRIME_CAP = 97
CLOSURE_BUDGET = 2_000_000

MatTuple = tuple[int, int, int, int]


class ClosureBudgetError(ValueError):
    """A closure generated more elements than its budget allows."""


@dataclass(frozen=True, slots=True)
class Mat2:
    """Row-major [[a, b], [c, d]] over Z/lZ; must be invertible."""

    a: int
    b: int
    c: int
    d: int
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        ell = self.modulus.ell
        object.__setattr__(self, "a", self.a % ell)
        object.__setattr__(self, "b", self.b % ell)
        object.__setattr__(self, "c", self.c % ell)
        object.__setattr__(self, "d", self.d % ell)
        if (self.a * self.d - self.b * self.c) % ell == 0:
            raise ValueError(
                f"singular matrix [[{self.a},{self.b}],[{self.c},{self.d}]] mod {ell}"
            )

    @classmethod
    def identity(cls, modulus: PrimeModulus) -> Mat2:
        return cls(1, 0, 0, 1, modulus)

    @property
    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.modulus.ell

    @property
    def trace(self) -> int:
        return (self.a + self.d) % self.modulus.ell

    def encode(self) -> int:
        """Canonical integer encoding a*l^3 + b*l^2 + c*l + d."""
        ell = self.modulus.ell
        return ((self.a * ell + self.b) * ell + self.c) * ell + self.d

    def __hash__(self) -> int:
        return hash(self.encode())

    def __mul__(self, other: Mat2) -> Mat2:
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")
        ell = self.modulus.ell
        return Mat2(
            (self.a * other.a + self.b * other.c) % ell,
            (self.a * other.b + self.b * other.d) % ell,
            (self.c * other.a + self.d * other.c) % ell,
            (self.c * other.b + self.d * other.d) % ell,
            self.modulus,
        )

    def inverse(self) -> Mat2:
        ell = self.modulus.ell
        inv_det = pow(self.det, -1, ell)
        return Mat2(
            self.d * inv_det,
            -self.b * inv_det,
            -self.c * inv_det,
            self.a * inv_det,
            self.modulus,
        )

    def __pow__(self, k: int) -> Mat2:
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = Mat2.identity(self.modulus)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply(self, x: int, y: int) -> tuple[int, int]:
        """Image of the column vector (x, y) under left multiplication."""
        ell = self.modulus.ell
        return (self.a * x + self.b * y) % ell, (self.c * x + self.d * y) % ell

    @property
    def is_upper_triangular(self) -> bool:
        return self.c == 0

    @property
    def is_diagonal(self) -> bool:
        return self.b == 0 and self.c == 0

    @property
    def is_scalar(self) -> bool:
        return self.is_diagonal and self.a == self.d

    def diagonal_part(self) -> Mat2:
        """diag(a, d) for an upper-triangular matrix."""
        if self.c != 0:
            raise ValueError("diagonal part only defined for upper-triangular input")
        return Mat2(self.a, 0, 0, self.d, self.modulus)

    def as_tuple(self) -> MatTuple:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.modulus.ell}"


def _mul_t(x: MatTuple, y: MatTuple, ell: int) -> MatTuple:
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % ell,
        (a * f + b * h) % ell,
        (c * e + d * g) % ell,
        (c * f + d * h) % ell,
    )


def _pow_t(x: MatTuple, k: int, ell: int) -> MatTuple:
    result: MatTuple = (1, 0, 0, 1)
    base = x
    while k:
        if k & 1:
            result = _mul_t(result, base, ell)
        base = _mul_t(base, base, ell)
        k >>= 1
    return result


def _close(
    gen_tuples: Iterable[MatTuple],
    ell: int,
    seed: Iterable[MatTuple] = (),
    budget: int = CLOSURE_BUDGET,
) -> set[MatTuple]:
    """Breadth-first closure under right multiplication by the generators.

    A seed set speeds up joins of already-closed subgroups; correctness does
    not depend on it. Generators alone suffice because the ambient group is
    finite, so inverses are positive powers.
    """
    gens = list(dict.fromkeys(gen_tuples))
    seen: set[MatTuple] = {(1, 0, 0, 1)}
    seen.update(seed)
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = _mul_t(x, g, ell)
            if y not in seen:
                seen.add(y)
                if len(seen) > budget:
                    raise ClosureBudgetError(
                        f"closure exceeded element budget {budget}"
                    )
                queue.append(y)
    return seen


def decode_tuple(code: int, ell: int) -> MatTuple:
    d = code % ell
    c = (code // ell) % ell
    b = (code // (ell * ell)) % ell
    a = code // (ell * ell * ell)
    return (a, b, c, d)


@dataclass(frozen=True, eq=False)
class MatrixGroup:
    """A finite subgroup of GL2(l) with explicit elements and generators.

    Equality is element-set equality; generators are a non-canonical
    convenience kept for fast orbit computations. Instances are immutable
    and safe for concurrent reads.
    """

    modulus: PrimeModulus
    elements: frozenset[Mat2]
    generators: tuple[Mat2, ...]

    def __post_init__(self) -> None:
        ell = self.modulus.ell
        if Mat2.identity(self.modulus) not in self.elements:
            raise ValueError("group must contain the identity")
        for g in self.generators:
            if g not in self.elements:
                raise ValueError("generator outside element set")
        gl2_order = (ell * ell - 1) * (ell * ell - ell)
        if gl2_order % len(self.elements) != 0:
            raise ValueError("element count violates Lagrange in GL2(l)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixGroup):
            return NotImplemented
        return self.modulus == other.modulus and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.modulus.ell, self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Mat2:
        return Mat2.identity(self.modulus)

    def __contains__(self, m: Mat2) -> bool:
        return m in self.elements

    def __iter__(self) -> Iterator[Mat2]:
        return iter(self.elements)

    def sorted_elements(self) -> list[Mat2]:
        """Elements in ascending canonical encoding, for reproducible output."""
        return sorted(self.elements, key=Mat2.encode)

    def generator_tuples(self) -> list[MatTuple]:
        return [g.as_tuple() for g in self.generators]

    def is_subgroup_of(self, other: MatrixGroup) -> bool:
        return self.modulus == other.modulus and self.elements <= other.elements

    @cached_property
    def is_upper_triangular(self) -> bool:
        return all(m.c == 0 for m in self.elements)

    @cached_property
    def is_diagonal(self) -> bool:
        return all(m.b == 0 and m.c == 0 for m in self.elements)

    @cached_property
    def is_scalar(self) -> bool:
        return all(m.b == 0 and m.c == 0 and m.a == m.d for m in self.elements)

    @cached_property
    def is_abelian(self) -> bool:
        # Generators pairwise commuting is equivalent for the generated group.
        gens = self.generators
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                if g * h != h * g:
                    return False
        return True

    def __repr__(self) -> str:
        return f"MatrixGroup(order={self.order}, mod {self.modulus.ell})"


def _make_group(
    modulus: PrimeModulus,
    element_tuples: Iterable[MatTuple],
    generator_tuples: Iterable[MatTuple],
) -> MatrixGroup:
    elems = frozenset(Mat2(a, b, c, d, modulus) for a, b, c, d in element_tuples)
    gens = tuple(Mat2(a, b, c, d, modulus) for a, b, c, d in generator_tuples)
    return MatrixGroup(modulus, elems, gens)


def closure(
    generators: Iterable[Mat2],
    modulus: PrimeModulus | None = None,
    budget: int = CLOSURE_BUDGET,
) -> MatrixGroup:
    """Subgroup generated by the given invertible matrices.

    An empty generator list needs an explicit modulus and yields the
    trivial group.
    """
    gens = tuple(generators)
    if modulus is None:
        if not gens:
            raise ValueError("empty generator list needs an explicit modulus")
        modulus = gens[0].modulus
    for g in gens:
        if g.modulus != modulus:
            raise ValueError("mixed moduli in generator list")
    tuples = [g.as_tuple() for g in gens]
    closed = _close(tuples, modulus.ell, budget=budget)
    return _make_group(modulus, closed, tuples)


def trivial_group(m: PrimeModulus) -> MatrixGroup:
    return _make_group(m, [(1, 0, 0, 1)], [])


def borel(m: PrimeModulus, cap: int = BOREL_PRIME_CAP) -> MatrixGroup:
    """Full upper-triangular subgroup, order l(l-1)^2."""
    ell = m.ell
    if ell > cap:
        raise ValueError(f"borel({ell}) exceeds the prime cap {cap}")
    elems = [
        (a, b, 0, d)
        for a in range(1, ell)
        for d in range(1, ell)
        for b in range(ell)
    ]
    gens: list[MatTuple] = [(1, 1, 0, 1)]
    if ell > 2:
        g = least_primitive_root(m).value
        gens += [(g, 0, 0, 1), (1, 0, 0, g)]
    return _make_group(m, elems, gens)


def split_cartan(m: PrimeModulus) -> MatrixGroup:
    """All invertible diagonal matrices, order (l-1)^2."""
    ell = m.ell
    elems = [(a, 0, 0, d) for a in range(1, ell) for d in range(1, ell)]
    gens: list[MatTuple] = []
    if ell > 2:
        g = least_primitive_root(m).value
        gens = [(g, 0, 0, 1), (1, 0, 0, g)]
    return _make_group(m, elems, gens)


def scalars(m: PrimeModulus) -> MatrixGroup:
    """Scalar matrices a*I, order l-1."""
    ell = m.ell
    elems = [(a, 0, 0, a) for a in range(1, ell)]
    gens: list[MatTuple] = []
    if ell > 2:
        g = least_primitive_root(m).value
        gens = [(g, 0, 0, g)]
    return _make_group(m, elems, gens)


def unipotent(m: PrimeModulus) -> MatrixGroup:
    """Upper unitriangular matrices [[1, b], [0, 1]], order l."""
    ell = m.ell
    elems = [(1, b, 0, 1) for b in range(ell)]
    return _make_group(m, elems, [(1, 1, 0, 1)])


def nonsplit_cartan(m: PrimeModulus) -> MatrixGroup:
    """Matrices [[a, b*eps], [b, a]] with eps the least primitive root mod l.

    This is the unit group of the quadratic extension of Z/lZ in matrix
    form: it is cyclic of order l^2 - 1 and the returned group's single
    generator generates it. Rejects l = 2.
    """
    m.require_odd("nonsplit_cartan")
    ell = m.ell
    eps = least_primitive_root(m).value
    elems = [
        (a, (b * eps) % ell, b, a)
        for a in range(ell)
        for b in range(ell)
        if (a, b) != (0, 0)
    ]
    n = ell * ell - 1
    factors = prime_factors(n)
    gen: MatTuple | None = None
    for t in sorted(elems):
        if all(_pow_t(t, n // q, ell) != (1, 0, 0, 1) for q in factors):
            gen = t
            break
    if gen is None:
        raise RuntimeError(f"nonsplit Cartan mod {ell} has no cyclic generator")
    return _make_group(m, elems, [gen])


def kth_power_subgroup(G: MatrixGroup, k: int) -> MatrixGroup:
    """The subgroup {g^k : g in G} of an abelian group G."""
    if k < 1:
        raise ValueError("exponent must be positive")
    if not G.is_abelian:
        raise ValueError("k-th power subgroup only defined here for abelian groups")
    ell = G.modulus.ell
    elems = {_pow_t(g.as_tuple(), k, ell) for g in G.elements}
    gens = [_pow_t(g.as_tuple(), k, ell) for g in G.generators]
    return _make_group(G.modulus, elems, dict.fromkeys(gens))


def conjugate(G: MatrixGroup, P: Mat2) -> MatrixGroup:
    """The conjugate group P^-1 G P, elementwise."""
    if P.modulus != G.modulus:
        raise ValueError("mixed moduli")
    ell = G.modulus.ell
    p = P.as_tuple()
    p_inv = P.inverse().as_tuple()
    elems = [_mul_t(_mul_t(p_inv, g.as_tuple(), ell), p, ell) for g in G.elements]
    gens = [_mul_t(_mul_t(p_inv, g.as_tuple(), ell), p, ell) for g in G.generators]
    return _make_group(G.modulus, elems, gens)


def subgroup_index(G: MatrixGroup, H: MatrixGroup) -> int:
    """[G : H] for H a subgroup of G, verified by element containment."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    return G.order // H.order
