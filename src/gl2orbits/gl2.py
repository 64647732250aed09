"""2x2 invertible matrices over Z/lZ and finite subgroups of GL2(l).

A group is held by its generators, as reduced (a, b, c, d) tuples. Its
order, membership, uniform draws and element list come from a one-level
stabilizer chain over the l + 1 lines of the plane
(``_stabilizer_chain``): G permutes the lines, and the
stabilizer S of the axis line y = 0 is G ∩ B for the Borel B = U ⋊ T. So
G is the disjoint union of the cosets t_L * S over the axis line's orbit,
and S, which maps onto the group D of its diagonal parts with kernel 1 or
the unit shears U, is read off D's exponent lattice and one test for U.
Equality and containment sift generators through the chain, so no element
set is compared.

The element set is the frozenset ``codes`` of integer codes
a*l^3 + b*l^2 + c*l + d, listed on first read by ``_close`` as the codes
of t_L * s, and refused with ClosureBudgetError above ``CLOSURE_BUDGET``
elements before anything is listed. The listing must number |G| and hold
every generator. ``Mat2`` is the API edge: ``MatrixGroup(modulus, mats)``
and ``closure`` take validated ``Mat2``s, and ``elements``, iteration,
``generators`` and the trichotomy witnesses hand them out. Inside, groups
are built from tuples by ``_tuple_group`` (conjugates, powers, lattice
enumerations, projections), and every product, inverse and power is one
of the tuple kernels ``_mul_t``, ``_inverse_t`` and ``_pow_t``, which
``Mat2``'s own arithmetic calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from random import Random
from typing import Iterable, Iterator, Sequence

from .modarith import PrimeModulus, least_primitive_root, prime_factors

CLOSURE_BUDGET = 2_000_000

MatTuple = tuple[int, int, int, int]


class ClosureBudgetError(ValueError):
    """A group's code set would hold more than ``CLOSURE_BUDGET`` elements."""


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
        return _encode_t(self.as_tuple(), self.modulus.ell)

    def __hash__(self) -> int:
        return hash(self.encode())

    def __mul__(self, other: Mat2) -> Mat2:
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")
        return Mat2(
            *_mul_t(self.as_tuple(), other.as_tuple(), self.modulus.ell), self.modulus
        )

    def inverse(self) -> Mat2:
        return Mat2(*_inverse_t(self.as_tuple(), self.modulus.ell), self.modulus)

    def __pow__(self, k: int) -> Mat2:
        return Mat2(*_pow_t(self.as_tuple(), k, self.modulus.ell), self.modulus)

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


def _inverse_t(x: MatTuple, ell: int) -> MatTuple:
    a, b, c, d = x
    r = pow(a * d - b * c, -1, ell)
    return (d * r % ell, -b * r % ell, -c * r % ell, a * r % ell)


def _pow_t(x: MatTuple, k: int, ell: int) -> MatTuple:
    """x^k by square-and-multiply; a negative k powers the inverse."""
    result: MatTuple = (1, 0, 0, 1)
    base = x if k >= 0 else _inverse_t(x, ell)
    k = abs(k)
    while k:
        if k & 1:
            result = _mul_t(result, base, ell)
        base = _mul_t(base, base, ell)
        k >>= 1
    return result


def decode_tuple(code: int, ell: int) -> MatTuple:
    d = code % ell
    c = (code // ell) % ell
    b = (code // (ell * ell)) % ell
    a = code // (ell * ell * ell)
    return (a, b, c, d)


class MatrixGroup:
    """The subgroup of GL2(l) that its generators generate.

    ``MatrixGroup(modulus, generators)`` takes invertible ``Mat2``s of that
    modulus; the group holds them as reduced (a, b, c, d) tuples, which
    ``generator_tuples`` lists and every internal reader uses. The
    ``generators`` attribute gives them back as ``Mat2``s: the caller's own
    objects for a group built from them, else matrices built on first read.
    Groups derived inside the library (conjugates, powers, projections,
    lattice enumerations) are built from tuples by ``_tuple_group``.

    Order, membership (``__contains__``, ``contains_codes``) and
    ``is_subgroup_of`` come from the stabilizer chain (``_stabilizer_chain``),
    built on first use. Two groups are equal when they have one order and
    one holds the other's generators; the hash is (l, order), so groups
    that differ only in their generators are equal and hash alike. The
    structural predicates read the generators.

    ``codes`` is the element set as canonical integer encodings
    a*l^3 + b*l^2 + c*l + d (see ``Mat2.encode``); every entry is below l,
    so ascending codes are ascending (a, b, c, d) tuples. It is listed on
    first read from the chain by ``_close``; a group of more than
    ``CLOSURE_BUDGET`` elements raises ClosureBudgetError from its order
    instead, and a listing that does not number the order or misses a
    generator raises ValueError. Instances are immutable and safe for
    concurrent reads.
    """

    modulus: PrimeModulus
    _gens: tuple[MatTuple, ...]

    def __init__(self, modulus: PrimeModulus, generators: Iterable[Mat2]) -> None:
        mats = tuple(generators)
        if any(g.modulus != modulus for g in mats):
            raise ValueError("mixed moduli in generator list")
        fields = vars(self)
        fields["modulus"] = modulus
        fields["_gens"] = tuple(g.as_tuple() for g in mats)
        fields["generators"] = mats

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"MatrixGroup is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"MatrixGroup is immutable; cannot delete {name!r}")

    @cached_property
    def generators(self) -> tuple[Mat2, ...]:
        return tuple(Mat2(*t, self.modulus) for t in self._gens)

    @cached_property
    def _chain(self) -> _StabilizerChain:
        return _stabilizer_chain(self.generator_tuples(), self.modulus)

    @property
    def order(self) -> int:
        return self._chain.order

    @cached_property
    def codes(self) -> frozenset[int]:
        # The identity alone never overruns the budget.
        if self.order > max(CLOSURE_BUDGET, 1):
            raise ClosureBudgetError(f"closure exceeded element budget {CLOSURE_BUDGET}")
        codes = _close(self._chain)
        if len(codes) != self.order:
            raise ValueError(f"{len(codes)} codes for a group of order {self.order}")
        ell = self.modulus.ell
        if any(_encode_t(g, ell) not in codes for g in self._gens):
            raise ValueError("generator outside element set")
        return codes

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, MatrixGroup):
            return NotImplemented
        return self.order == other.order and self.is_subgroup_of(other)

    def __hash__(self) -> int:
        return hash((self.modulus.ell, self.order))

    @property
    def identity(self) -> Mat2:
        return Mat2.identity(self.modulus)

    def decode(self, code: int) -> Mat2:
        return Mat2(*decode_tuple(code, self.modulus.ell), self.modulus)

    @cached_property
    def elements(self) -> frozenset[Mat2]:
        return frozenset(self)

    def __contains__(self, m: Mat2) -> bool:
        return m.modulus == self.modulus and self._chain.sifts(m.encode())

    def __iter__(self) -> Iterator[Mat2]:
        return map(self.decode, self.codes)

    def generator_tuples(self) -> list[MatTuple]:
        return list(self._gens)

    def is_subgroup_of(self, other: MatrixGroup) -> bool:
        """Whether other holds every generator of this group."""
        ell = self.modulus.ell
        return self.modulus == other.modulus and other.contains_codes(
            _encode_t(g, ell) for g in self._gens
        )

    def contains_codes(self, codes: Iterable[int]) -> bool:
        return all(map(self._chain.sifts, codes))

    def random_element(self, rng: Random) -> Mat2:
        """A uniformly random element, drawn from the chain; no code set is built."""
        return Mat2(*self._chain.random_tuple(rng), self.modulus)

    # A group has a property below exactly when its generators have it.

    @property
    def is_upper_triangular(self) -> bool:
        return all(c == 0 for _, _, c, _ in self._gens)

    @property
    def is_diagonal(self) -> bool:
        return all(b == c == 0 for _, b, c, _ in self._gens)

    @property
    def is_scalar(self) -> bool:
        return all(b == c == 0 and a == d for a, b, c, d in self._gens)

    @cached_property
    def is_abelian(self) -> bool:
        # Generators pairwise commuting is equivalent for the generated group.
        return _commute(self._gens, self.modulus.ell)

    def __repr__(self) -> str:
        return f"MatrixGroup(order={self.order}, mod {self.modulus.ell})"


def _tuple_group(modulus: PrimeModulus, gens: tuple[MatTuple, ...]) -> MatrixGroup:
    """The group of invertible generator tuples whose entries are reduced mod l.

    Nothing is checked: every caller builds its tuples reduced and
    invertible, by a tuple kernel or from exponent tables.
    """
    G = object.__new__(MatrixGroup)
    fields = vars(G)
    fields["modulus"] = modulus
    fields["_gens"] = gens
    return G


def _make_group(modulus: PrimeModulus, generator_tuples: Iterable[MatTuple]) -> MatrixGroup:
    """The group of generator tuples, checked to be invertible and reduced mod l."""
    ell = modulus.ell
    gens = tuple(map(tuple, generator_tuples))
    for t in gens:
        a, b, c, d = t
        if (a * d - b * c) % ell == 0:
            raise ValueError(f"singular matrix [[{a},{b}],[{c},{d}]] mod {ell}")
        if any(not 0 <= x < ell for x in t):
            raise ValueError(f"generator entries {t} are not reduced mod {ell}")
    return _tuple_group(modulus, gens)


def _encode_t(x: MatTuple, ell: int) -> int:
    """The code a*l^3 + b*l^2 + c*l + d of a reduced tuple."""
    a, b, c, d = x
    return ((a * ell + b) * ell + c) * ell + d


def _commute(gens: Sequence[MatTuple], ell: int) -> bool:
    """Whether the tuples pairwise commute."""
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if _mul_t(g, h, ell) != _mul_t(h, g, ell):
                return False
    return True


# ---------------------------------------------------------------------------
# Diagonal groups from exponent lattices


@lru_cache(maxsize=None)
def _primitive_root_powers(m: PrimeModulus) -> tuple[int, ...]:
    """(g^0, ..., g^(l-2)) mod l for the least primitive root g (g = 1 at l = 2)."""
    ell = m.ell
    g = least_primitive_root(m) if ell > 2 else 1
    pow_g = [1] * (ell - 1)
    for i in range(1, ell - 1):
        pow_g[i] = (pow_g[i - 1] * g) % ell
    return tuple(pow_g)


@lru_cache(maxsize=None)
def _discrete_logs(m: PrimeModulus) -> tuple[int, ...]:
    """log[x] with g^log[x] = x for 1 <= x < l; log[0] is unused."""
    log = [0] * m.ell
    for k, x in enumerate(_primitive_root_powers(m)):
        log[x] = k
    return tuple(log)


def image_order(values: Iterable[int], m: PrimeModulus) -> int:
    """Order of the subgroup of (Z/lZ)^* that the nonzero values generate.

    It is g^(kZ) for k the gcd of l - 1 and the values' logs. A character
    of a group is a homomorphism, so its image is the subgroup its values
    on the generators generate.
    """
    n = m.ell - 1
    log = _discrete_logs(m)
    return n // gcd(n, *(log[v] for v in values))


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a > 0 and b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _diagonal_hnf(
    gen_tuples: Iterable[MatTuple], m: PrimeModulus
) -> tuple[int, int, int]:
    """Hermite form (d1, d2, c) of the exponent lattice of the diagonal parts.

    The lattice starts as (l-1)Z^2, columns (n, 0) and (0, n), and each
    generator's exponents (u, w) are merged into the column (c, d2): with
    e = gcd(d2, w) = s*d2 + t*w, the unimodular combinations of the two
    are (s*c + t*u, e) and ((d2/e)*u - (w/e)*c, 0), and the second joins
    (d1, 0) as d1 = gcd(d1, ...). Since (d1, 0) lies in the lattice, c is
    kept reduced mod d1.
    """
    n = m.ell - 1
    log = _discrete_logs(m)
    d1, d2, c = n, n, 0
    for a, _, _, d in gen_tuples:
        u, w = log[a], log[d]
        e, s, t = _extended_gcd(d2, w)
        d1 = gcd(d1, d2 // e * u - w // e * c)
        c, d2 = (s * c + t * u) % d1, e
    return d1, d2, c


def _diagonal_group_from_hnf(m: PrimeModulus, d1: int, d2: int, c: int) -> MatrixGroup:
    """The diagonal group whose exponent lattice has Hermite form [[d1, c], [0, d2]]."""
    n = m.ell - 1
    pow_g = _primitive_root_powers(m)
    gens = [(pow_g[d1 % n], 0, 0, 1), (pow_g[c], 0, 0, pow_g[d2 % n])]
    return _tuple_group(m, tuple(dict.fromkeys(gens)))


# ---------------------------------------------------------------------------
# The stabilizer chain over the lines


@dataclass(frozen=True)
class _StabilizerChain:
    """Order, membership, draws and elements of G from its action on the lines.

    Line t < l is spanned by (t, 1) and line l, the axis, by e1 = (1, 0).
    inverses maps each line L of the axis line's orbit to t_L^-1, for a
    t_L in G carrying the axis to L (t_l = 1). The axis stabilizer S is
    upper triangular: lattice is the Hermite form of the exponent lattice
    of its diagonal parts D, and shear is None when S holds the unit
    shears U, else the x0 with S = {[[a, x0*(d - a)], [0, d]] : diag(a, d)
    in D}, the matrices of D's diagonal parts that fix the line (x0, 1).
    """

    modulus: PrimeModulus
    inverses: dict[int, MatTuple]
    lattice: tuple[int, int, int]
    shear: int | None
    order: int

    def sifts(self, code: int) -> bool:
        """Whether the matrix with this code lies in G.

        It must be invertible and carry e1 to a line L of the orbit; then
        s = t_L^-1 * x fixes the axis, and lies in S when its diagonal
        exponents lie in D's lattice and, without U, b = x0 * (d - a).
        """
        ell = self.modulus.ell
        if not 0 <= code < ell**4:
            return False
        x = decode_tuple(code, ell)
        a, b, c, d = x
        if (a * d - b * c) % ell == 0:
            return False
        t_inv = self.inverses.get(a * pow(c, -1, ell) % ell if c else ell)
        if t_inv is None:
            return False
        a, b, _, d = _mul_t(t_inv, x, ell)
        log = _discrete_logs(self.modulus)
        u, w = log[a], log[d]
        d1, d2, c = self.lattice
        if w % d2 or (u - w // d2 * c) % d1:
            return False
        return self.shear is None or b == self.shear * (d - a) % ell

    def random_tuple(self, rng: Random) -> MatTuple:
        """A uniformly random element of G as a tuple.

        G is the disjoint union of the cosets t_L * S over the lines L of
        the orbit, so t_L * s is uniform for a uniform L and a uniform s in
        S. s has diagonal exponents x*(d1, 0) + y*(c, d2), one lattice
        point of D per x < n/d1 and y < n/d2 (n = l - 1), and b uniform
        when U <= S, else b = x0 * (d - a).
        """
        ell = self.modulus.ell
        n = ell - 1
        d1, d2, c = self.lattice
        x, y = rng.randrange(n // d1), rng.randrange(n // d2)
        pow_g = _primitive_root_powers(self.modulus)
        a, d = pow_g[(x * d1 + y * c) % n], pow_g[y * d2 % n]
        b = rng.randrange(ell) if self.shear is None else self.shear * (d - a) % ell
        t_inv = self.inverses[rng.choice(list(self.inverses))]
        return _mul_t(_inverse_t(t_inv, ell), (a, b, 0, d), ell)


def _stabilizer_chain(gens: Iterable[MatTuple], m: PrimeModulus) -> _StabilizerChain:
    """One-level Schreier–Sims chain of the group the generators generate.

    One breadth-first walk over the orbit O of the axis line keeps a
    transversal t_L per line. The Schreier products t_hL^-1 * h * t_L fix
    the axis and generate its stabilizer S (Schreier's lemma); at the axis
    t_hL = 1, so the product is h * t_L. S maps onto the group D of its
    diagonal parts with kernel S ∩ U, and |U| = l is prime, so
    |S| = |D| or l * |D|. S holds U exactly when some product has a = d and
    b != 0 (a power of it is a nontrivial shear) or two products with
    a != d fix different lines (x0, 1), x0 = b / (d - a) (then they do not
    commute, and their commutator is a nontrivial shear); otherwise every
    product fixes e1 and one line (x0, 1), and so does S. |G| = |O| * |S|.
    For an upper-triangular G the walk stays on the axis, so S = G and
    shear settles lemma 3.1's trichotomy: None when G holds the unit
    shears, else the x0 with [[1, x0], [0, 1]]^-1 G [[1, x0], [0, 1]]
    diagonal.
    """
    ell = m.ell
    gens = list(dict.fromkeys(gens))
    axis = ell
    inverses = {axis: (1, 0, 0, 1)}
    schreier: list[MatTuple] = []
    # (line, t_line) pairs; the list grows while it is read, as a
    # breadth-first queue.
    walk = [(axis, (1, 0, 0, 1))]
    for line, t in walk:
        for h in gens:
            ht = h if line == axis else _mul_t(h, t, ell)
            a, _, c, _ = ht
            image = a * pow(c, -1, ell) % ell if c else axis
            if image == axis:
                schreier.append(ht)
            elif image not in inverses:
                inverses[image] = _inverse_t(ht, ell)
                walk.append((image, ht))
            else:
                schreier.append(_mul_t(inverses[image], ht, ell))
    d1, d2, c = _diagonal_hnf(schreier, m)
    x0s = {b * pow(d - a, -1, ell) % ell for a, b, _, d in schreier if a != d}
    sheared = len(x0s) > 1 or any(a == d and b for a, b, _, d in schreier)
    shear = None if sheared else min(x0s, default=0)
    n = ell - 1
    order = len(walk) * n * n // (d1 * d2) * (ell if shear is None else 1)
    return _StabilizerChain(m, inverses, (d1, d2, c), shear, order)


def _close(chain: _StabilizerChain) -> frozenset[int]:
    """The codes of the chain's group G, listed as t_L * s.

    t_L runs over the transversal and s over S: diagonal exponents
    x*(d1, 0) + y*(c, d2) for x < n/d1 and y < n/d2 (n = l - 1), and b over
    all of Z/l when U <= S, else b = x0 * (d - a). This is the enumeration
    ``_StabilizerChain.random_tuple`` draws from. With t_L = [[p, q], [r, s]],
    t_L * [[a, b], [0, d]] = [[p*a, p*b + q*d], [r*a, r*b + s*d]].
    """
    m = chain.modulus
    ell = m.ell
    n = ell - 1
    l2, l3 = ell * ell, ell * ell * ell
    d1, d2, c = chain.lattice
    pow_g = _primitive_root_powers(m)
    diagonals = [
        (pow_g[(x * d1 + y * c) % n], pow_g[y * d2 % n])
        for x in range(n // d1)
        for y in range(n // d2)
    ]
    x0 = chain.shear
    codes: list[int] = []
    for t_inv in chain.inverses.values():
        p, q, r, s = _inverse_t(t_inv, ell)
        for a, d in diagonals:
            high = p * a % ell * l3 + r * a % ell * ell
            shears = range(ell) if x0 is None else (x0 * (d - a),)
            codes += [
                high + (p * b + q * d) % ell * l2 + (r * b + s * d) % ell for b in shears
            ]
    return frozenset(codes)


def closure(
    generators: Iterable[Mat2], modulus: PrimeModulus | None = None
) -> MatrixGroup:
    """Subgroup generated by the given invertible matrices.

    An empty generator list needs an explicit modulus and yields the
    trivial group. Nothing is built here; reading ``codes`` of a group
    larger than ``CLOSURE_BUDGET`` raises ClosureBudgetError.
    """
    gens = tuple(generators)
    if modulus is None:
        if not gens:
            raise ValueError("empty generator list needs an explicit modulus")
        modulus = gens[0].modulus
    return MatrixGroup(modulus, gens)


def trivial_group(m: PrimeModulus) -> MatrixGroup:
    return _tuple_group(m, ())


def borel(m: PrimeModulus) -> MatrixGroup:
    """Full upper-triangular subgroup, order l(l-1)^2.

    Reading its ``codes`` raises ClosureBudgetError when that order exceeds
    ``CLOSURE_BUDGET``.
    """
    gens: list[MatTuple] = [(1, 1, 0, 1)]
    if m.ell > 2:
        g = _primitive_root_powers(m)[1]
        gens += [(g, 0, 0, 1), (1, 0, 0, g)]
    return _make_group(m, gens)


def split_cartan(m: PrimeModulus) -> MatrixGroup:
    """All invertible diagonal matrices, order (l-1)^2."""
    if m.ell == 2:
        return trivial_group(m)
    g = _primitive_root_powers(m)[1]
    return _tuple_group(m, ((g, 0, 0, 1), (1, 0, 0, g)))


def scalars(m: PrimeModulus) -> MatrixGroup:
    """Scalar matrices a*I, order l-1."""
    if m.ell == 2:
        return trivial_group(m)
    g = _primitive_root_powers(m)[1]
    return _tuple_group(m, ((g, 0, 0, g),))


def unipotent(m: PrimeModulus) -> MatrixGroup:
    """Upper unitriangular matrices [[1, b], [0, 1]], order l."""
    return _tuple_group(m, ((1, 1, 0, 1),))


@lru_cache(maxsize=None)
def _nonsplit_generator(m: PrimeModulus) -> MatTuple:
    """The least code of order l^2 - 1 in the nonsplit Cartan, which generates it.

    Kept per prime. The walk takes the tuples (a, s, s/eps mod l, a), the
    matrices [[a, b*eps], [b, a]] with b = s/eps, for a = 1 .. l-1 and
    s = 0 .. l-1, which is ascending code order, and stops at the first of
    order l^2 - 1; so a caller that needs only the generator and its powers
    builds neither the Cartan's code set nor its group. It starts at a = 1,
    since [[0, b*eps], [b, 0]] squares to the scalar eps*b^2 and so has order
    at most 2(l - 1).
    """
    m.require_odd("nonsplit_cartan")
    ell = m.ell
    n = ell * ell - 1
    factors = prime_factors(n)
    eps_inv = pow(_primitive_root_powers(m)[1], -1, ell)  # cached per prime
    for a in range(1, ell):
        for s in range(ell):
            t = (a, s, s * eps_inv % ell, a)
            if all(_pow_t(t, n // q, ell) != (1, 0, 0, 1) for q in factors):
                return t
    raise RuntimeError(f"nonsplit Cartan mod {ell} has no cyclic generator")


def nonsplit_cartan(m: PrimeModulus) -> MatrixGroup:
    """Matrices [[a, b*eps], [b, a]] with eps the least primitive root mod l.

    This is the unit group of the quadratic extension of Z/lZ in matrix
    form: it is cyclic of order l^2 - 1, and it is the group its generator,
    the least code of that order, generates, held as that one tuple. The
    tuple walk that finds it skips a = 0, whose squares are scalars.
    Rejects l = 2.
    """
    return _tuple_group(m, (_nonsplit_generator(m),))


def kth_power_subgroup(G: MatrixGroup, k: int) -> MatrixGroup:
    """The subgroup {g^k : g in G} of an abelian group G, generated by the
    k-th powers of G's generators."""
    if k < 1:
        raise ValueError("exponent must be positive")
    if not G.is_abelian:
        raise ValueError("k-th power subgroup only defined here for abelian groups")
    ell = G.modulus.ell
    powers = dict.fromkeys(_pow_t(g, k, ell) for g in G._gens)
    return _tuple_group(G.modulus, tuple(powers))


def conjugate(G: MatrixGroup, P: Mat2) -> MatrixGroup:
    """The conjugate group P^-1 G P, generated by the conjugated generators."""
    if P.modulus != G.modulus:
        raise ValueError("mixed moduli")
    return _tuple_group(G.modulus, _conjugates(G._gens, P.as_tuple(), G.modulus.ell))


def _conjugates(
    gens: Iterable[MatTuple], p: MatTuple, ell: int
) -> tuple[MatTuple, ...]:
    """p^-1 * g * p for each tuple g, in order."""
    p_inv = _inverse_t(p, ell)
    return tuple(_mul_t(_mul_t(p_inv, g, ell), p, ell) for g in gens)
