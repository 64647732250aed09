"""Orbits of matrix groups acting on the nonzero vectors of (Z/lZ)^2.

The action is left multiplication on column vectors; a vector (x, y) is
encoded as y*l + x, and the punctured plane V* has the l^2 - 1 codes
1 .. l^2 - 1. A group's orbits come from its generators' action on the
l + 1 lines through the origin, which suffices in a finite group: every
G-orbit lies over one orbit W of lines, and on a line of W it is a coset
of the scalars g^(kZ) by which the line's stabilizer acts (Schreier's
lemma gives k from one walk over W's lines, g the least primitive root).
So over W there are k orbits, each of |W| * (l - 1) / k codes.

The resulting ``OrbitPartition`` holds that walk and nothing per vector:
each orbit of lines with its k, and every line's offset. Its size view,
one (size, count) per orbit of lines, answers every reader that needs only
sizes: the divisibility checks and transfers, lemma32's prediction, the
lemma33 constants and the nonsplit check. The code views (the orbits as
code tuples, the label of every code and the per-code size map) are built
on first read, as stride slices of the lines' codes listed per prime in
primitive-root order; ``orbit``, ``orbit_decomposition``, the refinements
(``refinement_violation`` checks that one partition refines another in one
pass over the codes) and a failing check's counterexample read them. The
partition is cached once per group.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from math import gcd
from operator import ne
from types import MappingProxyType
from typing import Collection, Iterable, Literal, Mapping
from weakref import WeakKeyDictionary

from .gl2 import (
    MatrixGroup,
    _discrete_logs,
    _primitive_root_powers,
    image_order,
)
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


@dataclass(frozen=True)
class OrbitPartition:
    """A group's orbits on the punctured plane, held by its line walk.

    walks holds one (lines, k) per orbit W of the l + 1 lines, its lines in
    the order the walk reached them (see ``_line_orbits``), and offset[L]
    is the log of line L's tree-vector scale. These are the only data.
    size_counts, one (size, count) per orbit of lines, says that count = k
    orbits of size |W| * (l - 1) / k lie over W.

    The code views are built on first read and kept: orbits holds each
    orbit's codes in ascending order, the orbits ordered by smallest
    member; label[code] is the index in orbits of the orbit holding code
    (-1 for the zero vector); sizes is the read-only orbit size map keyed
    by nonzero code.
    """

    modulus: PrimeModulus
    walks: tuple[tuple[tuple[int, ...], int], ...]
    offset: tuple[int, ...]

    @cached_property
    def size_counts(self) -> tuple[tuple[int, int], ...]:
        units = self.modulus.ell - 1
        return tuple((len(lines) * units // k, k) for lines, k in self.walks)

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Over each orbit of lines the root's spanning vector w_0 has
        stabilizer scalars g^(kZ), so the orbit of g^j * w_0 meets line L
        in g^(j + offset[L] + kZ) times L's spanning vector: k orbits, each
        a stride-k slice of every line's codes, sorted. When every line is
        its own orbit with k = l - 1 (a group with no non-identity
        generator), every nonzero code is its own orbit and no line is read.
        """
        ell = self.modulus.ell
        if len(self.walks) == ell + 1 and all(k == ell - 1 for _, k in self.walks):
            return tuple(zip(range(1, ell * ell)))
        lines = _line_codes(self.modulus)
        orbits: list[tuple[int, ...]] = []
        for walk, k in self.walks:
            # Each line rotated by its offset: orbit j is every entry at a
            # position j mod k, as k divides l - 1.
            flat: list[int] = []
            for line in walk:
                r = self.offset[line] % k
                flat += lines[line][r:]
                flat += lines[line][:r]
            orbits += [tuple(sorted(flat[j::k])) for j in range(k)]
        # Disjoint orbits compare by their smallest members.
        orbits.sort()
        return tuple(orbits)

    @cached_property
    def label(self) -> tuple[int, ...]:
        n = self.modulus.ell ** 2
        if len(self.orbits) == n - 1:
            # Singleton orbits, sorted: code c is orbit c - 1.
            return tuple(range(-1, n - 1))
        label = [-1] * n
        for index, members in enumerate(self.orbits):
            for code in members:
                label[code] = index
        return tuple(label)

    @cached_property
    def sizes(self) -> Mapping[int, int]:
        sizes: dict[int, int] = {}
        for members in self.orbits:
            sizes.update(dict.fromkeys(members, len(members)))
        return MappingProxyType(sizes)


def _orbit_lengths(size_counts: Iterable[tuple[int, int]]) -> list[int]:
    """One size per orbit, in the order of the size view's entries."""
    return [size for size, count in size_counts for _ in range(count)]


# Kept for every prime, like the primitive-root tables: each workload's
# rounds revisit the same few primes, and one prime's tables hold l^2 - 1
# codes.
@lru_cache(maxsize=None)
def _line_codes(m: PrimeModulus) -> tuple[array, ...]:
    """The codes of every line of the plane less zero, in primitive-root order.

    Line t < l is spanned by (t, 1) and line l, the axis y = 0, by (1, 0).
    Entry j of a line's array is the code of g^j times its spanning vector,
    g the least primitive root. Stored as compact arrays.
    """
    ell = m.ell
    pow_g = _primitive_root_powers(m)
    lines = [array("l", [p * ell + p * t % ell for p in pow_g]) for t in range(ell)]
    lines.append(array("l", pow_g))
    return tuple(lines)


def _line_orbits(
    gens: Collection[tuple[int, int, int, int]], m: PrimeModulus
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[int, ...]]:
    """The orbits of the generators on the l + 1 lines, by one walk each.

    Each walk goes breadth-first from its root line, the least line not yet
    reached, and carries the root's spanning vector to a tree vector
    w_L = g^offset[L] * (L's spanning vector) on every line L it reaches
    (see ``_line_codes``). An edge (L, h) whose target is already reached is a
    Schreier generator of the root's stabilizer, which scales the root's
    spanning vector by the ratio of h * w_L to w_hL; k is the gcd of l - 1
    and the logs of those ratios. Returns every (walk, k), and the offsets.
    """
    ell = m.ell
    units = ell - 1
    pow_g = _primitive_root_powers(m)
    log = _discrete_logs(m)
    offset = [-1] * (ell + 1)  # -1 marks a line not yet reached
    line_orbits = []
    for root in range(ell + 1):
        if offset[root] >= 0:
            continue
        offset[root] = 0
        walk = [root]
        k = units
        # The list grows while it is read, as a breadth-first queue.
        for line in walk:
            x, y = (line, 1) if line < ell else (1, 0)
            for a, b, c, d in gens:
                # h * (x, y) = (u, v) is v * (u/v, 1), or u * (1, 0) if v = 0.
                u = (a * x + b * y) % ell
                v = (c * x + d * y) % ell
                if v:
                    nxt = u * pow_g[-log[v] % units] % ell
                    e = offset[line] + log[v]
                else:
                    nxt = ell
                    e = offset[line] + log[u]
                if offset[nxt] < 0:
                    offset[nxt] = e % units
                    walk.append(nxt)
                else:
                    k = gcd(k, e - offset[nxt])
        line_orbits.append((tuple(walk), k))
    return tuple(line_orbits), tuple(offset)


def _orbit_partition(G: MatrixGroup) -> OrbitPartition:
    """The uncached partition: G's generators walked over the l + 1 lines."""
    gens = dict.fromkeys(G.generator_tuples())
    gens.pop((1, 0, 0, 1), None)
    return OrbitPartition(G.modulus, *_line_orbits(gens, G.modulus))


# Orbit partitions by group. Equal groups share one entry, and an entry is
# dropped when the group it was stored under is freed.
_PARTITIONS: WeakKeyDictionary[MatrixGroup, OrbitPartition] = WeakKeyDictionary()


def orbit_partition(G: MatrixGroup) -> OrbitPartition:
    """G's orbit partition, computed once per group and cached."""
    partition = _PARTITIONS.get(G)
    if partition is None:
        partition = _orbit_partition(G)
        _PARTITIONS[G] = partition
    return partition


def orbit_size_map(G: MatrixGroup) -> Mapping[int, int]:
    """Orbit size for every nonzero vector, keyed by vector encoding.

    Derived from the cached partition's orbits on the first call for a
    group and kept with the partition; the returned mapping is read-only.
    """
    return orbit_partition(G).sizes


def _orbit_from_codes(codes: tuple[int, ...], modulus: PrimeModulus) -> Orbit:
    members = frozenset(Vector2.decode(c, modulus) for c in codes)
    return Orbit(Vector2.decode(codes[0], modulus), members, len(codes))


def orbit(G: MatrixGroup, v: Vector2) -> Orbit:
    """Orbit of v under left multiplication by G."""
    if v.is_zero:
        raise ValueError("orbit of the zero vector is excluded")
    if v.modulus != G.modulus:
        raise ValueError("mixed moduli")
    partition = orbit_partition(G)
    codes = partition.orbits[partition.label[v.encode()]]
    if G.order % len(codes) != 0:
        raise RuntimeError("orbit size does not divide group order")
    return _orbit_from_codes(codes, G.modulus)


def orbit_decomposition(G: MatrixGroup) -> OrbitDecomposition:
    """All orbits on the punctured plane, ordered by smallest representative."""
    ell = G.modulus.ell
    orbits = tuple(
        _orbit_from_codes(codes, G.modulus) for codes in orbit_partition(G).orbits
    )
    total = sum(o.size for o in orbits)
    if total != ell * ell - 1:
        raise RuntimeError("orbits do not partition the punctured plane")
    return OrbitDecomposition(G, orbits)


def stabilizer_order(G: MatrixGroup, v: Vector2) -> int:
    """Number of elements of G fixing v, counted directly."""
    if v.is_zero:
        raise ValueError("stabilizer of the zero vector is excluded")
    if v.modulus != G.modulus:
        raise ValueError("mixed moduli")
    return sum(1 for g in G.elements if g.apply(v.x, v.y) == (v.x, v.y))


def predict_diagonal_orbits(Gp: MatrixGroup) -> DiagonalOrbitPrediction:
    """Orbit structure of a diagonal group from its diagonal characters.

    The image of each diagonal character, read off the generators,
    determines the axis orbits. diag(a, d) fixes (x, y) with xy != 0 only
    when a = d = 1, so Gp acts freely off the axes: every off-axis orbit
    has size |Gp|, and there are (l - 1)^2 / |Gp| of them. No orbit is read.
    """
    if not Gp.is_diagonal:
        raise ValueError("diagonal orbit prediction needs a diagonal group")
    n = Gp.modulus.ell - 1
    order = Gp.order
    im1 = image_order((g.a for g in Gp.generators), Gp.modulus)
    im2 = image_order((g.d for g in Gp.generators), Gp.modulus)
    return DiagonalOrbitPrediction(
        index1=n // im1,
        index2=n // im2,
        axis1_size=im1,
        axis2_size=im2,
        mixed_orbit_size=order,
        mixed_count=(n * n) // order,
        modulus=Gp.modulus,
    )


ESCAPES_G_ORBIT = "H-orbit escapes the G-orbit"
MISSES_G_ORBIT = "H-orbits do not partition the G-orbit"


def refine_orbit_codes(
    g: OrbitPartition, index: int, h: OrbitPartition
) -> list[tuple[int, ...]]:
    """The H-orbits partitioning G's orbit number index, as code tuples.

    g and h are the partitions of G and of a subgroup H. The G-orbit's
    codes are scanned in ascending order and each H-orbit is taken from h
    when first met, so the parts come ordered by smallest member.
    """
    g_codes = g.orbits[index]
    met: set[int] = set()
    parts = []
    for code in g_codes:
        k = h.label[code]
        if k in met:
            continue
        met.add(k)
        part = h.orbits[k]
        if set(map(g.label.__getitem__, part)) != {index}:
            raise RuntimeError(ESCAPES_G_ORBIT)
        parts.append(part)
    if sum(map(len, parts)) != len(g_codes):
        raise RuntimeError(MISSES_G_ORBIT)
    return parts


def refinement_violation(g: OrbitPartition, h: OrbitPartition) -> str | None:
    """Whether H's orbits refine every orbit of G, in one pass over the plane.

    g and h are the partitions of G and of a subgroup H. A code is flagged
    when its G-label differs from that of the first member of its H-orbit
    (label -1, the zero code's, for an orbit with no members): an H-orbit
    with a flagged member meets two G-orbits. Returns ESCAPES_G_ORBIT when
    a code is flagged, else MISSES_G_ORBIT when the H-orbits hold fewer
    than the l^2 - 1 nonzero codes, else None. That is the verdict of
    ``refine_orbit_codes`` over all of G's orbits; with two faults in
    different G-orbits the loop may report the other one first.
    """
    n = len(g.label)
    heads = map(next, map(iter, h.orbits), repeat(0))
    first = list(map(g.label.__getitem__, heads))
    if any(map(ne, map(first.__getitem__, h.label[1:]), g.label[1:])):
        return ESCAPES_G_ORBIT
    if sum(map(len, h.orbits)) != n - 1:
        return MISSES_G_ORBIT
    return None


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
    if v.modulus != G.modulus:
        raise ValueError("mixed moduli")
    g = orbit_partition(G)
    parts = refine_orbit_codes(g, g.label[v.encode()], orbit_partition(H))
    return tuple(_orbit_from_codes(part, G.modulus) for part in parts)


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
    partition: OrbitPartition, multiplier: int, divisor: int
) -> tuple[int, ...] | None:
    """The orbit holding the smallest code whose orbit size s fails
    divisor | multiplier * s, if any.

    The sizes come from the size view; only a failure reads the orbits,
    which are ordered by smallest member, so the first one of a failing
    size is that orbit, and the code is its first member.
    """
    bad = {s for s, _ in partition.size_counts if multiplier * s % divisor}
    if not bad:
        return None
    return next(codes for codes in partition.orbits if len(codes) in bad)


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
    c * [G:H] * (every H-orbit size). Both checks read every orbit size
    of each group from its partition's size view; the verdict records the
    smallest vector of a failing orbit as the counterexample.
    """
    if M < 1 or c < 1:
        raise ValueError("divisor and constant must be positive")
    if direction not in ("up", "down"):
        raise ValueError(f"unknown direction {direction!r}")
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    index = G.order // H.order
    h = orbit_partition(H)
    g = orbit_partition(G)
    if direction == "up":
        hyp = _first_violation(h, c, M)
        ccl = _first_violation(g, c, M)
    else:
        hyp = _first_violation(g, c, M)
        ccl = _first_violation(h, c * index, M)
    hyp_bad = None if hyp is None else Vector2.decode(hyp[0], G.modulus)
    ccl_bad = None if ccl is None else Vector2.decode(ccl[0], G.modulus)
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


def minimal_uniform_constant(sizes: Iterable[int], M: int) -> int:
    """Smallest c with M dividing c * s for every orbit size s in sizes."""
    c = 1
    for s in set(sizes):
        need = M // gcd(M, s)
        c = c * need // gcd(c, need)
    return c
