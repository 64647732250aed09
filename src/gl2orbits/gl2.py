"""2x2 invertible matrices over Z/lZ and finite subgroups of GL2(l).

A group is held by its generators. Its order and membership come from a
one-level stabilizer chain over the l + 1 lines of the plane
(``_stabilizer_chain``): G permutes the lines, and the stabilizer of the
axis line y = 0 is G ∩ B for the Borel B = U ⋊ T. So |G| is the length of
the axis line's orbit times the stabilizer's order, and the stabilizer,
which maps onto the group D of its diagonal parts with kernel 1 or the
unit shears U, is read off D's exponent lattice and one test for U.
Equality and containment sift generators through the chain, so no element
set is compared.

The element set is the frozenset ``codes`` of integer codes
a*l^3 + b*l^2 + c*l + d, built on first read and refused with
ClosureBudgetError above ``CLOSURE_BUDGET`` elements before anything is
built; ``random_element`` draws from the chain without it. ``Mat2``
objects are built only at the API edge (``elements``, iteration,
generators and witnesses).
Constructions that list their elements directly (the Borel, the nonsplit
Cartan) hand their codes to ``_make_group``. Either way the codes pass
the same checks, the last of which is that they number |G|.

A set of diagonal generators is closed from its exponent lattice. With g
the least primitive root, diag(g^u, g^w) has exponents (u, w), and the
group generated by such matrices is a lattice L with (l-1)Z^2 <= L <= Z^2.
L has one Hermite form [[d1, c], [0, d2]], columns (d1, 0) and (c, d2),
with d1 and d2 dividing l - 1 and 0 <= c < d1; the group has order
(l-1)^2 / (d1 * d2) and is built from the form. Every other generator set
is closed breadth-first over element codes. Right multiplication by a
generator h acts on each row of a matrix on its own, so one table T_h of
the l^2 row codes gives code(X * h) = T_h[code // l^2] * l^2 +
T_h[code % l^2]. T_h is the image list of [[d, b], [c, a]] for
h = [[a, b], [c, d]], built by ``_image_list``; the powers of one matrix
(the nonsplit Cartan's power table) are walked on the same table.

Every code is checked for nonsingularity. An upper-triangular set is
checked at C speed from its low halves code % l^2 = c*l + d: when they all
lie in 1..l-1, c = 0 gives det = a*d, and the smallest code being at least
l^3 gives a != 0. Other sets are scanned code by code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import gcd
from operator import add, mod
from random import Random
from typing import Iterable, Iterator

from .modarith import PrimeModulus, least_primitive_root, prime_factors

# The Borel at l = 97 holds 97 * 96^2 = 893,952 elements; above that the
# explicit-element-set representation stops being comfortable.
BOREL_PRIME_CAP = 97
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


def _image_list(g: MatTuple, ell: int) -> list[int]:
    """The code of g * v at index code(v), for every column vector v = (x, y).

    A vector's code is y*l + x. This is the one table builder:
    ``_row_table`` reads one as right multiplication on rows, for closures
    and power tables.

    Built one row y at a time. With the doubled table A[x] = a*x mod l,
    x' = a*x + b*y = A[x + s] for the offset s = b*y/a, so the row's x'
    values are the slice A[s : s + l]; likewise l*y' = l*(c*x + d*y) is a
    slice of the doubled table l*(c*x mod l) at offset d*y/c. A zero a or
    c makes that part constant along the row; g is invertible, so a and c
    are not both zero.
    """
    a, b, c, d = g
    xs = range(2 * ell)
    a_table = [a * x % ell for x in xs]
    c_table = [c * x % ell * ell for x in xs]
    a_inv = pow(a, -1, ell) if a else 0
    c_inv = pow(c, -1, ell) if c else 0
    image: list[int] = []
    for y in range(ell):
        if a:
            s = b * y * a_inv % ell
            low = a_table[s : s + ell]
        else:
            low = repeat(b * y % ell)
        if c:
            t = d * y * c_inv % ell
            high = c_table[t : t + ell]
        else:
            high = repeat(d * y % ell * ell)
        image += map(add, low, high)
    return image


def _row_table(h: MatTuple, ell: int) -> list[int]:
    """Right multiplication by h on the row codes x*l + y of a matrix's rows.

    The row (x, y) times h = [[a, b], [c, d]] is (a*x + c*y, b*x + d*y).
    Read as the column vector (y, x), whose code is x*l + y, that is the
    column vector [[d, b], [c, a]] * (y, x). So the table is that matrix's
    image list, and a matrix code splits into its two row codes as
    code = (code // l^2) * l^2 + code % l^2, giving
    code(X * h) = T[code // l^2] * l^2 + T[code % l^2].
    """
    a, b, c, d = h
    return _image_list((d, b, c, a), ell)




def _close(gen_tuples: Iterable[MatTuple], ell: int) -> set[int]:
    """Codes of the group the generators generate, breadth-first on codes.

    Each step multiplies on the right by a generator through its row table
    (``_row_table``), so no matrix is built. Generators alone suffice
    because the ambient group is finite, so inverses are positive powers.
    """
    l2 = ell * ell
    tables = [_row_table(g, ell) for g in dict.fromkeys(gen_tuples)]
    identity = l2 * ell + 1
    seen = {identity}
    # The list grows while it is read, as a breadth-first queue.
    queue = [identity]
    for code in queue:
        high, low = divmod(code, l2)
        for table in tables:
            nxt = table[high] * l2 + table[low]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def decode_tuple(code: int, ell: int) -> MatTuple:
    d = code % ell
    c = (code // ell) % ell
    b = (code // (ell * ell)) % ell
    a = code // (ell * ell * ell)
    return (a, b, c, d)


@dataclass(frozen=True, eq=False)
class MatrixGroup:
    """The subgroup of GL2(l) that ``generators`` generate.

    Order, membership (``__contains__``, ``contains_codes``) and
    ``is_subgroup_of`` come from the stabilizer chain (``_stabilizer_chain``),
    built on first use. Two groups are equal when they have one order and
    one holds the other's generators; the hash is (l, order), so groups
    that differ only in their generators are equal and hash alike. The
    structural predicates read the generators.

    ``codes`` is the element set as canonical integer encodings
    a*l^3 + b*l^2 + c*l + d (see ``Mat2.encode``); every entry is below l,
    so ascending codes are ascending (a, b, c, d) tuples. It is built on
    first read, from the Hermite form for diagonal generators and by
    ``_close`` otherwise, unless ``_make_group`` supplied it; a group of
    more than ``CLOSURE_BUDGET`` elements raises ClosureBudgetError from its
    order instead. Instances are immutable and safe for concurrent reads.
    """

    modulus: PrimeModulus
    generators: tuple[Mat2, ...]

    def __post_init__(self) -> None:
        if any(g.modulus != self.modulus for g in self.generators):
            raise ValueError("mixed moduli in generator list")

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
            raise ClosureBudgetError(
                f"closure exceeded element budget {CLOSURE_BUDGET}"
            )
        if self.is_diagonal:
            codes = _diagonal_codes(self.modulus, *self._chain.lattice)
        else:
            codes = _close(self.generator_tuples(), self.modulus.ell)
        return self._checked(codes)

    def _checked(self, codes: Iterable[int]) -> frozenset[int]:
        """The codes as a frozenset, once they pass every check.

        Rejects a code outside the entry range, a singular code, a
        non-triangular code for triangular generators, a missing identity,
        a generator outside the set and a count other than the order.
        """
        codes = frozenset(codes)
        ell = self.modulus.ell
        l2, l3 = ell * ell, ell * ell * ell
        lowest = min(codes, default=0)
        if lowest < 0 or max(codes, default=0) >= ell**4:
            raise ValueError("element code outside the reduced entry range")
        triangular = self.is_upper_triangular
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
            if self.is_upper_triangular:
                raise ValueError("a code with c != 0 for triangular generators")
        if l3 + 1 not in codes:
            raise ValueError("group must contain the identity")
        if any(g.encode() not in codes for g in self.generators):
            raise ValueError("generator outside element set")
        if len(codes) != self.order:
            raise ValueError(
                f"{len(codes)} codes for a generated group of order {self.order}"
            )
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

    def sorted_elements(self) -> list[Mat2]:
        """Elements in ascending canonical encoding, for reproducible output."""
        return [self.decode(code) for code in sorted(self.codes)]

    def generator_tuples(self) -> list[MatTuple]:
        return [g.as_tuple() for g in self.generators]

    def is_subgroup_of(self, other: MatrixGroup) -> bool:
        """Whether other holds every generator of this group."""
        return self.modulus == other.modulus and other.contains_codes(
            g.encode() for g in self.generators
        )

    def contains_codes(self, codes: Iterable[int]) -> bool:
        return all(map(self._chain.sifts, codes))

    def random_element(self, rng: Random) -> Mat2:
        """A uniformly random element, drawn from the chain; no code set is built."""
        return Mat2(*self._chain.random_tuple(rng), self.modulus)

    # A group has a property below exactly when its generators have it.

    @property
    def is_upper_triangular(self) -> bool:
        return all(g.is_upper_triangular for g in self.generators)

    @property
    def is_diagonal(self) -> bool:
        return all(g.is_diagonal for g in self.generators)

    @property
    def is_scalar(self) -> bool:
        return all(g.is_scalar for g in self.generators)

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
    """The group of reduced generator tuples, with its codes listed directly.

    The codes are read once and pass every check of ``MatrixGroup.codes``.
    """
    gens = []
    for t in generator_tuples:
        g = Mat2(*t, modulus)
        if g.as_tuple() != tuple(t):
            raise ValueError(f"generator entries {t} are not reduced mod {modulus.ell}")
        gens.append(g)
    group = MatrixGroup(modulus, tuple(gens))
    # codes is a cached property, so the stored set is never rebuilt.
    object.__setattr__(group, "codes", group._checked(codes))
    return group


# ---------------------------------------------------------------------------
# Diagonal groups from exponent lattices


@lru_cache(maxsize=None)
def _primitive_root_powers(m: PrimeModulus) -> tuple[int, ...]:
    """(g^0, ..., g^(l-2)) mod l for the least primitive root g (g = 1 at l = 2)."""
    ell = m.ell
    g = least_primitive_root(m).value if ell > 2 else 1
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


def _diagonal_codes(m: PrimeModulus, d1: int, d2: int, c: int) -> list[int]:
    """Codes of the diagonal group with exponent Hermite form [[d1, c], [0, d2]].

    Its elements are diag(g^(x*d1 + y*c), g^(y*d2)) for x < n/d1 and
    y < n/d2. Each y gives one row: the stride-d1 slice at offset y*c of
    the doubled table g^k * l^3, plus the code g^(y*d2) of the lower entry.
    """
    n = m.ell - 1
    pow_g = _primitive_root_powers(m)
    l3 = m.ell**3
    high = [p * l3 for p in pow_g] * 2
    codes: list[int] = []
    for y in range(n // d2):
        s = y * c % n
        codes += map(add, high[s : s + n : d1], repeat(pow_g[y * d2 % n]))
    return codes


def _diagonal_group_from_hnf(m: PrimeModulus, d1: int, d2: int, c: int) -> MatrixGroup:
    """The diagonal group whose exponent lattice has Hermite form [[d1, c], [0, d2]]."""
    n = m.ell - 1
    pow_g = _primitive_root_powers(m)
    gens = [(pow_g[d1 % n], 0, 0, 1), (pow_g[c], 0, 0, pow_g[d2 % n])]
    return MatrixGroup(m, tuple(Mat2(*t, m) for t in dict.fromkeys(gens)))


# ---------------------------------------------------------------------------
# The stabilizer chain over the lines


def _inverse_t(x: MatTuple, ell: int) -> MatTuple:
    a, b, c, d = x
    r = pow(a * d - b * c, -1, ell)
    return (d * r % ell, -b * r % ell, -c * r % ell, a * r % ell)


@dataclass(frozen=True)
class _StabilizerChain:
    """Order and membership of a group G from its action on the lines.

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
    return MatrixGroup(m, ())


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
        g = _primitive_root_powers(m)[1]
        gens += [(g, 0, 0, 1), (1, 0, 0, g)]
    return _make_group(m, elems, gens)


def split_cartan(m: PrimeModulus) -> MatrixGroup:
    """All invertible diagonal matrices, order (l-1)^2."""
    if m.ell == 2:
        return trivial_group(m)
    g = _primitive_root_powers(m)[1]
    return MatrixGroup(m, (Mat2(g, 0, 0, 1, m), Mat2(1, 0, 0, g, m)))


def scalars(m: PrimeModulus) -> MatrixGroup:
    """Scalar matrices a*I, order l-1."""
    if m.ell == 2:
        return trivial_group(m)
    g = _primitive_root_powers(m)[1]
    return MatrixGroup(m, (Mat2(g, 0, 0, g, m),))


def unipotent(m: PrimeModulus) -> MatrixGroup:
    """Upper unitriangular matrices [[1, b], [0, 1]], order l."""
    return MatrixGroup(m, (Mat2(1, 1, 0, 1, m),))


def _nonsplit_codes(m: PrimeModulus) -> Iterator[int]:
    """Codes of the nonzero [[a, b*eps], [b, a]], eps the least primitive root.

    The code of [[a, b*eps], [b, a]] is a*(l^3 + 1) + (b*eps mod l)*l^2 + b*l.
    Taking b = s/eps for s = 0 .. l-1 lists each a's codes in ascending
    order, so the codes come in ascending order.
    """
    ell = m.ell
    l2 = ell * ell
    eps = _primitive_root_powers(m)[1]  # cached per prime
    eps_inv = pow(eps, -1, ell)
    off_diagonal = [s * l2 + s * eps_inv % ell * ell for s in range(ell)]
    codes = chain.from_iterable(
        map(add, off_diagonal, repeat(a * (l2 * ell + 1))) for a in range(ell)
    )
    next(codes)  # a = b = 0
    return codes


@lru_cache(maxsize=None)
def _nonsplit_generator(m: PrimeModulus) -> Mat2:
    """The least code of order l^2 - 1 in the nonsplit Cartan, which generates it.

    Kept per prime. The codes are walked lazily up to the generator, so a
    caller that needs only the generator and its powers builds neither the
    Cartan's code set nor its group.
    """
    m.require_odd("nonsplit_cartan")
    ell = m.ell
    n = ell * ell - 1
    factors = prime_factors(n)
    for code in _nonsplit_codes(m):
        t = decode_tuple(code, ell)
        if all(_pow_t(t, n // q, ell) != (1, 0, 0, 1) for q in factors):
            return Mat2(*t, m)
    raise RuntimeError(f"nonsplit Cartan mod {ell} has no cyclic generator")


def nonsplit_cartan(m: PrimeModulus) -> MatrixGroup:
    """Matrices [[a, b*eps], [b, a]] with eps the least primitive root mod l.

    This is the unit group of the quadratic extension of Z/lZ in matrix
    form: it is cyclic of order l^2 - 1, and the returned group's single
    generator, the least code of that order, generates it. Rejects l = 2.
    """
    gen = _nonsplit_generator(m)
    return _make_group(m, _nonsplit_codes(m), [gen.as_tuple()])


def kth_power_subgroup(G: MatrixGroup, k: int) -> MatrixGroup:
    """The subgroup {g^k : g in G} of an abelian group G, generated by the
    k-th powers of G's generators."""
    if k < 1:
        raise ValueError("exponent must be positive")
    if not G.is_abelian:
        raise ValueError("k-th power subgroup only defined here for abelian groups")
    return MatrixGroup(G.modulus, tuple(dict.fromkeys(g**k for g in G.generators)))


def conjugate(G: MatrixGroup, P: Mat2) -> MatrixGroup:
    """The conjugate group P^-1 G P, generated by the conjugated generators."""
    if P.modulus != G.modulus:
        raise ValueError("mixed moduli")
    P_inv = P.inverse()
    return MatrixGroup(G.modulus, tuple(P_inv * g * P for g in G.generators))
