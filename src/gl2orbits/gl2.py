"""2x2 invertible matrices over Z/lZ and finite subgroups of GL2(l).

Groups carry their full element set as integer codes a*l^3 + b*l^2 + c*l + d;
``Mat2`` objects are built only at the API edge (``elements``, iteration,
generators and witnesses). Constructions are exhaustive by design and write
codes directly; a prime cap keeps the largest standard group (the Borel,
order l(l-1)^2) near a million elements. Closure runs breadth-first over
plain integer 4-tuples and encodes the result once at the end.

The constructor checks every code for nonsingularity. An upper-triangular
set is checked at C speed from its low halves code % l^2 = c*l + d: when
they all lie in 1..l-1, c = 0 gives det = a*d, and the smallest code being
at least l^3 gives a != 0. Other sets are scanned code by code. The same
test records ``is_upper_triangular`` at construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import mod
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
    budget: int = CLOSURE_BUDGET,
) -> set[MatTuple]:
    """Breadth-first closure under right multiplication by the generators.

    Generators alone suffice because the ambient group is finite, so
    inverses are positive powers.
    """
    gens = list(dict.fromkeys(gen_tuples))
    seen: set[MatTuple] = {(1, 0, 0, 1)}
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


def _encode_all(tuples: Iterable[MatTuple], ell: int) -> list[int]:
    """Codes a*l^3 + b*l^2 + c*l + d of reduced entry tuples."""
    return [((a * ell + b) * ell + c) * ell + d for a, b, c, d in tuples]


@dataclass(frozen=True, eq=False)
class MatrixGroup:
    """A finite subgroup of GL2(l) with explicit elements and generators.

    The elements are stored as the frozenset ``codes`` of their canonical
    integer encodings a*l^3 + b*l^2 + c*l + d (see ``Mat2.encode``); every
    entry is below l, so ascending codes are ascending (a, b, c, d) tuples.
    ``elements`` is the same set as ``Mat2`` objects, built on first
    access. Equality is element-set equality; generators are a
    non-canonical convenience kept for fast orbit computations. Instances
    are immutable and safe for concurrent reads.

    Construction rejects a code outside the entry range, a singular code,
    a missing identity, a generator outside the set and an order that does
    not divide |GL2(l)|. Every code is checked for nonsingularity: when all
    low halves code % l^2 = c*l + d lie in 1..l-1, c = 0 gives det = a*d
    and the range check's minimum settles a != 0; otherwise each
    determinant is computed. ``is_upper_triangular`` is recorded from the
    same low-half test.
    """

    modulus: PrimeModulus
    codes: frozenset[int]
    generators: tuple[Mat2, ...]
    is_upper_triangular: bool = field(init=False)

    def __post_init__(self) -> None:
        ell = self.modulus.ell
        codes = self.codes
        l2, l3 = ell * ell, ell * ell * ell
        lowest = min(codes, default=0)
        if lowest < 0 or max(codes, default=0) >= ell**4:
            raise ValueError("element code outside the reduced entry range")
        # A group is upper triangular exactly when its generators are, so a
        # non-triangular generator (checked below to lie in the set) skips
        # the low-half pass.
        triangular = all(g.c == 0 for g in self.generators)
        if triangular:
            # code % l^2 = c*l + d lies in 1..l-1 exactly when c = 0, d != 0.
            low = set(map(mod, codes, repeat(l2)))
            triangular = 0 not in low and max(low, default=0) < ell
        # With c = 0, det = a*d and a != 0 means code >= l^3.
        if not (triangular and lowest >= l3):
            for code in codes:
                # a * d - b * c, read off the code.
                det = code // l3 * (code % ell) - code // l2 % ell * (code // ell % ell)
                if det % ell == 0:
                    a, b, c, d = decode_tuple(code, ell)
                    raise ValueError(
                        f"singular matrix [[{a},{b}],[{c},{d}]] mod {ell}"
                    )
        object.__setattr__(self, "is_upper_triangular", triangular)
        if l3 + 1 not in codes:
            raise ValueError("group must contain the identity")
        for g in self.generators:
            if g.modulus != self.modulus or g.encode() not in codes:
                raise ValueError("generator outside element set")
        gl2_order = (ell * ell - 1) * (ell * ell - ell)
        if gl2_order % len(codes) != 0:
            raise ValueError("element count violates Lagrange in GL2(l)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixGroup):
            return NotImplemented
        return self.modulus == other.modulus and self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.modulus.ell, self.codes))

    @property
    def order(self) -> int:
        return len(self.codes)

    @property
    def identity(self) -> Mat2:
        return Mat2.identity(self.modulus)

    def decode(self, code: int) -> Mat2:
        return Mat2(*decode_tuple(code, self.modulus.ell), self.modulus)

    @cached_property
    def elements(self) -> frozenset[Mat2]:
        return frozenset(self)

    def element_tuples(self) -> Iterator[MatTuple]:
        ell = self.modulus.ell
        return (decode_tuple(code, ell) for code in self.codes)

    def __contains__(self, m: Mat2) -> bool:
        return m.modulus == self.modulus and m.encode() in self.codes

    def __iter__(self) -> Iterator[Mat2]:
        return map(self.decode, self.codes)

    def sorted_elements(self) -> list[Mat2]:
        """Elements in ascending canonical encoding, for reproducible output."""
        return [self.decode(code) for code in sorted(self.codes)]

    def generator_tuples(self) -> list[MatTuple]:
        return [g.as_tuple() for g in self.generators]

    def is_subgroup_of(self, other: MatrixGroup) -> bool:
        return self.modulus == other.modulus and self.codes <= other.codes

    # The predicates below read the codes: b = c = 0 exactly when the code
    # is below l modulo l^3, and diag(a, a) is a * (l^3 + 1).
    # is_upper_triangular (c = 0 everywhere) is recorded at construction.

    @cached_property
    def is_diagonal(self) -> bool:
        ell = self.modulus.ell
        l3 = ell * ell * ell
        return all(code % l3 < ell for code in self.codes)

    @cached_property
    def is_scalar(self) -> bool:
        l3 = self.modulus.ell ** 3
        return all(code % (l3 + 1) == 0 for code in self.codes)

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
    codes: Iterable[int],
    generator_tuples: Iterable[MatTuple],
) -> MatrixGroup:
    """The one constructor of groups: element codes plus reduced generator tuples.

    A frozenset of codes is kept as it is; any other iterable is read once.
    """
    gens = []
    for t in generator_tuples:
        g = Mat2(*t, modulus)
        if g.as_tuple() != tuple(t):
            raise ValueError(f"generator entries {t} are not reduced mod {modulus.ell}")
        gens.append(g)
    return MatrixGroup(modulus, frozenset(codes), tuple(gens))


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
    return _make_group(modulus, _encode_all(closed, modulus.ell), tuples)


def trivial_group(m: PrimeModulus) -> MatrixGroup:
    return _make_group(m, _encode_all([(1, 0, 0, 1)], m.ell), [])


def borel(m: PrimeModulus, cap: int = BOREL_PRIME_CAP) -> MatrixGroup:
    """Full upper-triangular subgroup, order l(l-1)^2."""
    ell = m.ell
    if ell > cap:
        raise ValueError(f"borel({ell}) exceeds the prime cap {cap}")
    l2, l3 = ell * ell, ell * ell * ell
    elems = [
        a * l3 + b * l2 + d
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
    l3 = ell * ell * ell
    elems = [a * l3 + d for a in range(1, ell) for d in range(1, ell)]
    gens: list[MatTuple] = []
    if ell > 2:
        g = least_primitive_root(m).value
        gens = [(g, 0, 0, 1), (1, 0, 0, g)]
    return _make_group(m, elems, gens)


def scalars(m: PrimeModulus) -> MatrixGroup:
    """Scalar matrices a*I, order l-1."""
    ell = m.ell
    elems = [a * (ell**3 + 1) for a in range(1, ell)]
    gens: list[MatTuple] = []
    if ell > 2:
        g = least_primitive_root(m).value
        gens = [(g, 0, 0, g)]
    return _make_group(m, elems, gens)


def unipotent(m: PrimeModulus) -> MatrixGroup:
    """Upper unitriangular matrices [[1, b], [0, 1]], order l."""
    ell = m.ell
    elems = [ell**3 + b * ell * ell + 1 for b in range(ell)]
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
    elems = _encode_all(
        (
            (a, (b * eps) % ell, b, a)
            for a in range(ell)
            for b in range(ell)
            if (a, b) != (0, 0)
        ),
        ell,
    )
    n = ell * ell - 1
    factors = prime_factors(n)
    gen: MatTuple | None = None
    for code in sorted(elems):
        t = decode_tuple(code, ell)
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
    if G.is_diagonal:
        l3 = ell**3
        power = [pow(x, k, ell) for x in range(ell)]
        elems = [power[code // l3] * l3 + power[code % ell] for code in G.codes]
    else:
        elems = _encode_all((_pow_t(t, k, ell) for t in G.element_tuples()), ell)
    gens = [_pow_t(g.as_tuple(), k, ell) for g in G.generators]
    return _make_group(G.modulus, elems, dict.fromkeys(gens))


def conjugate(G: MatrixGroup, P: Mat2) -> MatrixGroup:
    """The conjugate group P^-1 G P, elementwise."""
    if P.modulus != G.modulus:
        raise ValueError("mixed moduli")
    ell = G.modulus.ell
    p = P.as_tuple()
    p_inv = P.inverse().as_tuple()
    elems = _encode_all(
        (_mul_t(_mul_t(p_inv, t, ell), p, ell) for t in G.element_tuples()), ell
    )
    gens = [_mul_t(_mul_t(p_inv, g.as_tuple(), ell), p, ell) for g in G.generators]
    return _make_group(G.modulus, elems, gens)
