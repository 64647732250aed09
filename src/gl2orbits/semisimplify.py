"""Semisimplification of upper-triangular matrix groups, with checkable witnesses.

The diagonal-parts group of an upper-triangular group G is always contained
in G or G is simultaneously diagonalizable. Classification reads which
from the shear of G's stabilizer chain (see ``gl2._stabilizer_chain``) and
produces one of two machine-checkable witnesses for this trichotomy:

  * TransvectionWitness: the one matrix gamma, a non-diagonal element of G
    with repeated eigenvalues. The verifier derives the rest from gamma:
    gamma^(l-1) is the shear [[1, lam], [0, 1]] with
    lam = (l-1) * b * a^(l-2) != 0, and gamma^((l-1) * lam^-1) is the unit
    shear [[1, 1], [0, 1]]. Shearing then moves every element of G onto
    its diagonal part inside G.
  * DiagonalizerWitness: a basis change P with P^-1 G P diagonal.

The third case of the trichotomy, a non-abelian G, needs no witness of
its own: such a G holds the unit shears, so it gets the transvection
witness, and "noncommutative" is recorded only among the matched cases.
``verify_witness`` reads neither the chain's shear nor its derivation of
U <= G: it conjugates G's generator tuples by a basis change, and derives
U <= G for a transvection witness from the generator tuples alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .gl2 import (
    Mat2,
    MatrixGroup,
    MatTuple,
    _commute,
    _conjugates,
    _pow_t,
    _tuple_group,
)


@dataclass(frozen=True)
class TransvectionWitness:
    """A non-diagonal matrix gamma in G with repeated eigenvalues."""

    gamma: Mat2


@dataclass(frozen=True)
class DiagonalizerWitness:
    """A basis change P such that P^-1 G P is diagonal."""

    basis_change: Mat2


TrichotomyWitness = Union[TransvectionWitness, DiagonalizerWitness]

# Classification order: the shear case is tried before diagonalization.
CASE_REPEATED_EIGENVALUE = "repeated_eigenvalue"
CASE_NONCOMMUTATIVE = "noncommutative"
CASE_DIAGONALIZABLE = "diagonalizable"


@dataclass(frozen=True)
class SemisimplificationResult:
    """Outcome of classifying an upper-triangular group.

    contained_in_G is False with a diagonalizer; with the transvection
    witness it is True when the diagonal-parts group was verified to sit
    inside G.
    cases_matched records every case predicate that held, in priority
    order, for audit; the witness realizes the first of them.
    """

    Gss: MatrixGroup
    contained_in_G: bool
    witness: TrichotomyWitness
    cases_matched: tuple[str, ...]


def _require_upper_triangular(G: MatrixGroup) -> None:
    if not G.is_upper_triangular:
        raise ValueError("group is not upper triangular")


def semisimplification(G: MatrixGroup) -> MatrixGroup:
    """Diagonal-parts group {diag(a, d) : [[a, b], [0, d]] in G}.

    Computed as the group the projected generators generate; projection
    onto diagonal parts is a homomorphism on upper-triangular matrices, so
    this equals the elementwise projection of G.
    """
    _require_upper_triangular(G)
    gens = dict.fromkeys((a, 0, 0, d) for a, _, _, d in G.generator_tuples())
    result = _tuple_group(G.modulus, tuple(gens))
    if G.order % result.order != 0:
        raise RuntimeError("semisimplification order does not divide group order")
    return result


def classify_semisimplification(G: MatrixGroup) -> SemisimplificationResult:
    """Classify an upper-triangular group and build the matching witness.

    G's stabilizer chain has shear None exactly when G holds the unit
    shear [[1, 1], [0, 1]], the least non-diagonal element with repeated
    eigenvalues: it becomes the transvection witness, and the containment
    of the diagonal-parts group in G is checked by sifting its generators
    through the chain. Otherwise the shear is the x0 for which
    P = [[1, x0], [0, 1]] diagonalizes G. "noncommutative" is read off the
    generators and only recorded in cases_matched, after
    "repeated_eigenvalue".
    """
    _require_upper_triangular(G)
    gss = semisimplification(G)
    x0 = G._chain.shear
    nonabelian = not G.is_abelian

    matched = []
    if x0 is None:
        matched.append(CASE_REPEATED_EIGENVALUE)
    if nonabelian:
        matched.append(CASE_NONCOMMUTATIVE)
    if x0 is not None and not nonabelian:
        matched.append(CASE_DIAGONALIZABLE)

    witness: TrichotomyWitness
    if x0 is None:
        witness = TransvectionWitness(Mat2(1, 1, 0, 1, G.modulus))
        # [[a, b], [0, d]] * [[1, n], [0, 1]] = [[a, an + b], [0, d]] is
        # diag(a, d) for n = -b * a^-1, so G, which holds all unit shears,
        # holds every diagonal part.
        contained = gss.is_subgroup_of(G)
    else:
        witness = DiagonalizerWitness(Mat2(1, x0, 0, 1, G.modulus))
        contained = False
    return SemisimplificationResult(gss, contained, witness, tuple(matched))


def verify_witness(G: MatrixGroup, witness: TrichotomyWitness) -> bool:
    """Re-derive every claim of a witness from scratch.

    Returns False on any violation, including malformed witnesses, rather
    than raising.
    """
    try:
        if isinstance(witness, TransvectionWitness):
            return _verify_transvection(G, witness)
        if isinstance(witness, DiagonalizerWitness):
            return _verify_diagonalizer(G, witness)
    except ValueError:
        return False
    return False


def _holds_unit_shears(gens: Sequence[MatTuple], ell: int) -> bool:
    """Whether the upper-triangular group these tuples generate holds U.

    A generator [[a, b], [0, a]] with b != 0 has a nontrivial shear as its
    (l - 1)-th power, and B / U is abelian, so two generators that do not
    commute have a nontrivial shear as their commutator; either generates
    U. Otherwise every generator is scalar or has two distinct eigenvalues,
    and commuting generators share their eigenvectors: G is conjugate to a
    diagonal group, whose order is prime to l.
    """
    return any(a == d and b for a, b, _, d in gens) or not _commute(gens, ell)


def _verify_transvection(G: MatrixGroup, w: TransvectionWitness) -> bool:
    ell = G.modulus.ell
    gamma = w.gamma
    if gamma not in G:  # a gamma of another modulus is in no such G
        return False
    a, b, c, d = t = gamma.as_tuple()
    if b == 0 or a != d or c != 0:
        return False
    lam = (ell - 1) * b * pow(a, ell - 2, ell) % ell
    if _pow_t(t, ell - 1, ell) != (1, lam, 0, 1):
        return False
    if _pow_t(t, (ell - 1) * pow(lam, -1, ell), ell) != (1, 1, 0, 1):
        return False
    # U <= G is derived from G's generators, not from the chain that gamma
    # was sifted through.
    return _holds_unit_shears(G.generator_tuples(), ell)


def _verify_diagonalizer(G: MatrixGroup, w: DiagonalizerWitness) -> bool:
    # Diagonal matrices form a group, so P^-1 G P is diagonal exactly when
    # every conjugated generator is.
    P = w.basis_change
    if P.modulus != G.modulus:
        return False
    conjugated = _conjugates(G.generator_tuples(), P.as_tuple(), G.modulus.ell)
    return all(b == c == 0 for _, b, c, _ in conjugated)
