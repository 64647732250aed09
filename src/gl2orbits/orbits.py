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
sizes: the divisibility checks and transfers with their counterexamples,
lemma32's prediction, the lemma33 constants and the nonsplit check.
lemma33's refinement compares two walks line by line
(``refinement_violation``). Codes are read through two helpers:
``OrbitPartition.locate`` names the orbit holding a code, and
``OrbitPartition.orbit_codes``, the one place codes are listed, lists an
orbit's. ``orbit``, ``orbit_decomposition``, ``orbit_size_map`` and
``coset_orbit_refinement`` build their results from them on each call.
The partition is cached once per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
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
    is the log of line L's tree-vector scale. These are the only data; the
    views derived from them have at most l + 1 entries. size_counts, one
    (size, count) per orbit of lines, says that count = k orbits of size
    |W| * (l - 1) / k lie over W; walk_of[L] is the index in walks of the
    orbit of lines holding line L, or -1 when no walk holds L.

    Orbit j over walks[w] meets each line L of it in g^e times L's
    spanning vector, (t, 1) for line t < l and (1, 0) for line l, for
    every e = j + offset[L] mod k: the root's spanning vector has
    stabilizer scalars g^(kZ), and the walk carries it to g^offset[L]
    times L's. ``locate`` and ``orbit_codes`` read that rule both ways.
    """

    modulus: PrimeModulus
    walks: tuple[tuple[tuple[int, ...], int], ...]
    offset: tuple[int, ...]

    @cached_property
    def size_counts(self) -> tuple[tuple[int, int], ...]:
        units = self.modulus.ell - 1
        return tuple((len(lines) * units // k, k) for lines, k in self.walks)

    @cached_property
    def walk_of(self) -> tuple[int, ...]:
        walk_of = [-1] * (self.modulus.ell + 1)
        for index, (lines, _) in enumerate(self.walks):
            for line in lines:
                walk_of[line] = index
        return tuple(walk_of)

    def locate(self, code: int) -> tuple[int, int]:
        """(w, j) of the orbit holding a nonzero code: orbit j over walks[w].

        (x, y) with y != 0 is y times (x/y, 1), on line x/y with e = log y;
        (x, 0) is x times (1, 0), on line l with e = log x. Then
        j = (e - offset[L]) mod k. w is -1 when no walk holds the line.
        """
        ell = self.modulus.ell
        x, y = code % ell, code // ell
        log = _discrete_logs(self.modulus)
        line, e = (x * pow(y, -1, ell) % ell, log[y]) if y else (ell, log[x])
        w = self.walk_of[line]
        return w, (e - self.offset[line]) % self.walks[w][1]

    def orbit_codes(self, w: int, j: int) -> tuple[int, ...]:
        """The codes of orbit j over walks[w], ascending: on each line L of
        the walk, every k-th power of g from j + offset[L]."""
        # Computed from the cached powers of g, with no per-prime table of
        # line codes: no sweep lists codes, so no table would be reused.
        ell = self.modulus.ell
        pow_g = _primitive_root_powers(self.modulus)
        lines, k = self.walks[w]
        codes: list[int] = []
        for line in lines:
            powers = pow_g[(j + self.offset[line]) % k :: k]
            if line < ell:
                powers = [p * ell + p * line % ell for p in powers]
            codes += powers
        return tuple(sorted(codes))


def _listed_orbits(partition: OrbitPartition) -> list[tuple[int, ...]]:
    """Every orbit's codes, walk by walk."""
    return [
        partition.orbit_codes(w, j)
        for w, (_, k) in enumerate(partition.walks)
        for j in range(k)
    ]


def _size_map(partition: OrbitPartition) -> Mapping[int, int]:
    """The read-only orbit size of every nonzero code, listed orbit by orbit."""
    sizes: dict[int, int] = {}
    for codes in _listed_orbits(partition):
        sizes.update(dict.fromkeys(codes, len(codes)))
    return MappingProxyType(sizes)


def _orbit_lengths(size_counts: Iterable[tuple[int, int]]) -> list[int]:
    """One size per orbit, in the order of the size view's entries."""
    return [size for size, count in size_counts for _ in range(count)]


def _line_orbits(
    gens: Collection[tuple[int, int, int, int]], m: PrimeModulus
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[int, ...]]:
    """The orbits of the generators on the l + 1 lines, by one walk each.

    Each walk goes breadth-first from its root line, the least line not yet
    reached, and carries the root's spanning vector to a tree vector
    w_L = g^offset[L] * (L's spanning vector) on every line L it reaches
    (see ``OrbitPartition``). An edge (L, h) whose target is already
    reached is a Schreier generator of the root's stabilizer, which scales
    the root's spanning vector by the ratio of h * w_L to w_hL; k is the gcd
    of l - 1 and the logs of those ratios. Returns every (walk, k), and the
    offsets.
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

    Listed from the cached partition on each call; the returned mapping is
    read-only.
    """
    return _size_map(orbit_partition(G))


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
    codes = partition.orbit_codes(*partition.locate(v.encode()))
    if G.order % len(codes) != 0:
        raise RuntimeError("orbit size does not divide group order")
    return _orbit_from_codes(codes, G.modulus)


def orbit_decomposition(G: MatrixGroup) -> OrbitDecomposition:
    """All orbits on the punctured plane, ordered by smallest representative."""
    ell = G.modulus.ell
    # Disjoint orbits compare by their smallest members.
    listed = sorted(_listed_orbits(orbit_partition(G)))
    orbits = tuple(_orbit_from_codes(codes, G.modulus) for codes in listed)
    total = sum(o.size for o in orbits)
    if total != ell * ell - 1:
        raise RuntimeError("orbits do not partition the punctured plane")
    return OrbitDecomposition(G, orbits)


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
    gens = Gp.generator_tuples()
    im1 = image_order((a for a, _, _, _ in gens), Gp.modulus)
    im2 = image_order((d for _, _, _, d in gens), Gp.modulus)
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


def refinement_violation(g: OrbitPartition, h: OrbitPartition) -> str | None:
    """Whether H's orbits refine every orbit of G, read off the two walks.

    g and h are the partitions of G and of a subgroup H. H's orbit j over
    an H-walk W_H meets each line L of it in the powers g^e of L's spanning
    vector with e = j + off_H(L) mod k_H, and G puts each of them in its
    orbit (e - off_G(L)) mod k_G over L's G-walk. So every H-orbit over
    W_H lies in one G-orbit exactly when W_H lies in one G-walk, k_G
    divides k_H, and off_H(L) - off_G(L) is constant mod k_G over W_H.
    Returns ESCAPES_G_ORBIT when some H-walk fails that, else
    MISSES_G_ORBIT when h's orbit sizes do not sum to l^2 - 1, else None.
    """
    for lines, k_h in h.walks:
        w = g.walk_of[lines[0]]
        k_g = g.walks[w][1]
        shifts = {(h.offset[line] - g.offset[line]) % k_g for line in lines}
        if k_h % k_g or len(shifts) > 1 or any(g.walk_of[line] != w for line in lines):
            return ESCAPES_G_ORBIT
    ell = g.modulus.ell
    if sum(size * count for size, count in h.size_counts) != ell * ell - 1:
        return MISSES_G_ORBIT
    return None


def coset_orbit_refinement(
    G: MatrixGroup, H: MatrixGroup, v: Vector2
) -> tuple[Orbit, ...]:
    """The H-orbits partitioning the G-orbit of v.

    H must be a subgroup of G; the G-orbit is H-stable, so the returned
    orbits are pairwise disjoint, cover it exactly, and their sizes sum to
    its size. The G-orbit's codes are scanned in ascending order and each
    H-orbit is listed from H's partition when first met, so the parts come
    ordered by smallest member. A faulty partition raises RuntimeError:
    ESCAPES_G_ORBIT when a part leaves the G-orbit, MISSES_G_ORBIT when
    the parts do not cover it.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    if v.is_zero:
        raise ValueError("orbit of the zero vector is excluded")
    if v.modulus != G.modulus:
        raise ValueError("mixed moduli")
    g, h = orbit_partition(G), orbit_partition(H)
    target = g.locate(v.encode())
    g_codes = g.orbit_codes(*target)
    met: set[tuple[int, int]] = set()
    parts = []
    for code in g_codes:
        found = h.locate(code)
        if found[0] < 0 or found in met:
            continue
        met.add(found)
        part = h.orbit_codes(*found)
        if any(g.locate(c) != target for c in part):
            raise RuntimeError(ESCAPES_G_ORBIT)
        parts.append(part)
    if sum(map(len, parts)) != len(g_codes):
        raise RuntimeError(MISSES_G_ORBIT)
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
) -> tuple[int, int] | None:
    """(code, s) for the smallest code whose orbit size s fails
    divisor | multiplier * s, if any.

    Every orbit over a walk W has W's size, and the least code on W's
    lines is 1, that of (1, 0), when W holds the axis (line l), else
    l + min W, that of (min W, 1).
    """
    ell = partition.modulus.ell
    failing = [
        (1 if ell in lines else ell + min(lines), size)
        for (lines, _), (size, _) in zip(partition.walks, partition.size_counts)
        if multiplier * size % divisor
    ]
    return min(failing, default=None)


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
