"""Orbits of matrix groups acting on the nonzero vectors of (Z/lZ)^2.

The action is left multiplication on column vectors. Orbit traversal is
breadth-first over integer-encoded vectors using only the group's
generators, which suffices in a finite group. The punctured plane V* has
l^2 - 1 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from types import MappingProxyType
from typing import Literal, Mapping
from weakref import WeakKeyDictionary

from .gl2 import MatrixGroup, MatTuple
from .modarith import PrimeModulus


@dataclass(frozen=True, slots=True)
class Vector2:
    """A column vector (x, y) over Z/lZ with canonical encoding y*l + x."""

    x: int
    y: int
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        ell = self.modulus.ell
        object.__setattr__(self, "x", self.x % ell)
        object.__setattr__(self, "y", self.y % ell)

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def encode(self) -> int:
        return self.y * self.modulus.ell + self.x

    @classmethod
    def decode(cls, code: int, modulus: PrimeModulus) -> Vector2:
        return cls(code % modulus.ell, code // modulus.ell, modulus)

    def __repr__(self) -> str:
        return f"({self.x},{self.y}) mod {self.modulus.ell}"


@dataclass(frozen=True)
class Orbit:
    """One orbit: representative of smallest encoding, members, and size."""

    representative: Vector2
    members: frozenset[Vector2]
    size: int

    def __post_init__(self) -> None:
        if self.size != len(self.members) or self.representative not in self.members:
            raise ValueError("inconsistent orbit")


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of the punctured plane into orbits, ordered by representative."""

    group: MatrixGroup
    orbits: tuple[Orbit, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(o.size for o in self.orbits)


@dataclass(frozen=True)
class DiagonalOrbitPrediction:
    """Predicted orbit structure of a diagonal group from its two characters.

    The two axis character images have sizes axis1_size and axis2_size and
    indices index1 and index2 in the unit group; off-axis orbits all share
    mixed_orbit_size and there are mixed_count of them.
    """

    index1: int
    index2: int
    axis1_size: int
    axis2_size: int
    mixed_orbit_size: int
    mixed_count: int
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        n = self.modulus.ell - 1
        if self.index1 * self.axis1_size != n or self.index2 * self.axis2_size != n:
            raise ValueError("axis orbit counts do not multiply to l - 1")
        if self.mixed_count * self.mixed_orbit_size != n * n:
            raise ValueError("mixed orbit counts do not multiply to (l - 1)^2")


def _orbit_codes(gens: list[MatTuple], ell: int, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        code = stack.pop()
        x, y = code % ell, code // ell
        for a, b, c, d in gens:
            nxt = ((c * x + d * y) % ell) * ell + (a * x + b * y) % ell
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# Orbit size maps by group. Equal groups share one entry, and an entry is
# dropped when the group object it was stored under is freed.
_ORBIT_SIZE_MAPS: WeakKeyDictionary[MatrixGroup, Mapping[int, int]] = (
    WeakKeyDictionary()
)


def orbit_size_map(G: MatrixGroup) -> Mapping[int, int]:
    """Orbit size for every nonzero vector, keyed by vector encoding.

    Computed once per group and cached; the returned mapping is read-only.
    """
    sizes = _ORBIT_SIZE_MAPS.get(G)
    if sizes is None:
        sizes = MappingProxyType(_orbit_sizes(G))
        _ORBIT_SIZE_MAPS[G] = sizes
    return sizes


def _orbit_sizes(G: MatrixGroup) -> dict[int, int]:
    """The uncached orbit size map, walked from G's generators."""
    ell = G.modulus.ell
    gens = G.generator_tuples()
    sizes: dict[int, int] = {}
    for code in range(1, ell * ell):
        if code in sizes:
            continue
        component = _orbit_codes(gens, ell, code)
        sizes.update(dict.fromkeys(component, len(component)))
    return sizes


def orbit(G: MatrixGroup, v: Vector2) -> Orbit:
    """Orbit of v under left multiplication by G."""
    if v.is_zero:
        raise ValueError("orbit of the zero vector is excluded")
    if v.modulus != G.modulus:
        raise ValueError("mixed moduli")
    codes = _orbit_codes(G.generator_tuples(), G.modulus.ell, v.encode())
    members = frozenset(Vector2.decode(c, G.modulus) for c in codes)
    rep = Vector2.decode(min(codes), G.modulus)
    size = len(codes)
    if G.order % size != 0:
        raise RuntimeError("orbit size does not divide group order")
    return Orbit(rep, members, size)


def orbit_decomposition(G: MatrixGroup) -> OrbitDecomposition:
    """All orbits on the punctured plane, ordered by smallest representative."""
    ell = G.modulus.ell
    gens = G.generator_tuples()
    seen: set[int] = set()
    orbits = []
    for code in range(1, ell * ell):
        if code in seen:
            continue
        codes = _orbit_codes(gens, ell, code)
        seen |= codes
        members = frozenset(Vector2.decode(c, G.modulus) for c in codes)
        orbits.append(Orbit(Vector2.decode(code, G.modulus), members, len(codes)))
    total = sum(o.size for o in orbits)
    if total != ell * ell - 1:
        raise RuntimeError("orbits do not partition the punctured plane")
    return OrbitDecomposition(G, tuple(orbits))


def stabilizer_order(G: MatrixGroup, v: Vector2) -> int:
    """Number of elements of G fixing v, counted directly."""
    if v.is_zero:
        raise ValueError("stabilizer of the zero vector is excluded")
    if v.modulus != G.modulus:
        raise ValueError("mixed moduli")
    return sum(1 for g in G.elements if g.apply(v.x, v.y) == (v.x, v.y))


def predict_diagonal_orbits(Gp: MatrixGroup) -> DiagonalOrbitPrediction:
    """Orbit structure of a diagonal group from its diagonal characters.

    The image of each diagonal character determines the axis orbits; the
    single off-axis orbit through (1, 1) determines all the others.
    """
    if not Gp.is_diagonal:
        raise ValueError("diagonal orbit prediction needs a diagonal group")
    ell = Gp.modulus.ell
    n = ell - 1
    l3 = ell * ell * ell
    im1 = {code // l3 for code in Gp.codes}
    im2 = {code % ell for code in Gp.codes}
    mixed = orbit(Gp, Vector2(1, 1, Gp.modulus)).size
    if (n * n) % mixed != 0:
        raise RuntimeError("mixed orbit size does not divide (l - 1)^2")
    return DiagonalOrbitPrediction(
        index1=n // len(im1),
        index2=n // len(im2),
        axis1_size=len(im1),
        axis2_size=len(im2),
        mixed_orbit_size=mixed,
        mixed_count=(n * n) // mixed,
        modulus=Gp.modulus,
    )


def coset_orbit_refinement(
    G: MatrixGroup, H: MatrixGroup, v: Vector2
) -> tuple[Orbit, ...]:
    """The H-orbits partitioning the G-orbit of v.

    H must be a subgroup of G; the G-orbit is H-stable, so the returned
    orbits are pairwise disjoint, cover it exactly, and their sizes sum to
    its size. Ordered by smallest representative encoding.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    if v.is_zero:
        raise ValueError("orbit of the zero vector is excluded")
    ell = G.modulus.ell
    g_codes = _orbit_codes(G.generator_tuples(), ell, v.encode())
    h_gens = H.generator_tuples()
    remaining = set(g_codes)
    parts = []
    while remaining:
        start = min(remaining)
        codes = _orbit_codes(h_gens, ell, start)
        if not codes <= g_codes:
            raise RuntimeError("H-orbit escapes the G-orbit")
        remaining -= codes
        members = frozenset(Vector2.decode(c, G.modulus) for c in codes)
        parts.append(Orbit(Vector2.decode(start, G.modulus), members, len(codes)))
    if sum(p.size for p in parts) != len(g_codes):
        raise RuntimeError("H-orbits do not partition the G-orbit")
    return tuple(parts)


TransferDirection = Literal["up", "down"]


@dataclass(frozen=True)
class TransferVerdict:
    """Outcome of a uniform-divisibility transfer between nested groups.

    A failed hypothesis is an uninteresting scenario; a held hypothesis
    with a failed conclusion would falsify the transfer principle itself.
    """

    direction: str
    divisor: int
    constant: int
    index: int
    hypothesis_holds: bool
    hypothesis_counterexample: Vector2 | None
    conclusion_holds: bool
    conclusion_counterexample: Vector2 | None

    @property
    def conclusion_constant(self) -> int:
        return self.constant * self.index if self.direction == "down" else self.constant

    @property
    def transfer_upheld(self) -> bool:
        return not self.hypothesis_holds or self.conclusion_holds


def _first_violation(
    sizes: Mapping[int, int], multiplier: int, divisor: int, modulus: PrimeModulus
) -> Vector2 | None:
    bad = [code for code, s in sizes.items() if (multiplier * s) % divisor != 0]
    if not bad:
        return None
    return Vector2.decode(min(bad), modulus)


def uniform_divisibility_transfer(
    M: int,
    c: int,
    G: MatrixGroup,
    H: MatrixGroup,
    direction: TransferDirection,
) -> TransferVerdict:
    """Transfer uniform divisibility of orbit sizes between H and G.

    direction "up": if M divides c * (every H-orbit size) then M divides
    c * (every G-orbit size), with the same constant. direction "down":
    if M divides c * (every G-orbit size) then M divides
    c * [G:H] * (every H-orbit size). Both checks are run exhaustively
    over the punctured plane and the verdict records any counterexample.
    """
    if M < 1 or c < 1:
        raise ValueError("divisor and constant must be positive")
    if direction not in ("up", "down"):
        raise ValueError(f"unknown direction {direction!r}")
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    index = G.order // H.order
    h_sizes = orbit_size_map(H)
    g_sizes = orbit_size_map(G)
    if direction == "up":
        hyp_bad = _first_violation(h_sizes, c, M, G.modulus)
        ccl_bad = _first_violation(g_sizes, c, M, G.modulus)
    else:
        hyp_bad = _first_violation(g_sizes, c, M, G.modulus)
        ccl_bad = _first_violation(h_sizes, c * index, M, G.modulus)
    return TransferVerdict(
        direction=direction,
        divisor=M,
        constant=c,
        index=index,
        hypothesis_holds=hyp_bad is None,
        hypothesis_counterexample=hyp_bad,
        conclusion_holds=ccl_bad is None,
        conclusion_counterexample=ccl_bad,
    )


def minimal_uniform_constant(sizes: Mapping[int, int], M: int) -> int:
    """Smallest c with M dividing c * s for every orbit size s."""
    c = 1
    for s in set(sizes.values()):
        need = M // gcd(M, s)
        c = c * need // gcd(c, need)
    return c
