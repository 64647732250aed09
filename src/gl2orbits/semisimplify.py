"""Semisimplification of upper-triangular matrix groups, with checkable witnesses.

The diagonal-parts group of an upper-triangular group G is always contained
in G or G is simultaneously diagonalizable. Classification produces one of
two machine-checkable witnesses for this trichotomy:

  * TransvectionWitness: G holds a non-diagonal matrix gamma with repeated
    eigenvalues; gamma^(l-1) is the shear [[1, lam], [0, 1]] with
    lam = (l-1) * b * a^(l-2) != 0, and a further power is the unit shear
    [[1, 1], [0, 1]]. Shearing then moves every element of G onto its
    diagonal part inside G.
  * DiagonalizerWitness: a basis change P with P^-1 G P diagonal.

The third case of the trichotomy, a non-abelian G, needs no witness of
its own: two non-commuting elements of the Borel have a nontrivial shear
as their commutator, so G holds every unit shear, and the unit shear
[[1, 1], [0, 1]] is a repeated-eigenvalue candidate. A non-abelian G gets
the transvection witness, and "noncommutative" is recorded only among the
matched cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .gl2 import Mat2, MatrixGroup, conjugate
from .modarith import FpUnit


@dataclass(frozen=True)
class TransvectionWitness:
    """Evidence built from a repeated-eigenvalue matrix gamma in G."""

    gamma: Mat2
    lam: FpUnit
    lam_inverse: int
    transvection: Mat2


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
    gens = dict.fromkeys(g.diagonal_part() for g in G.generators)
    result = MatrixGroup(G.modulus, tuple(gens))
    if G.order % result.order != 0:
        raise RuntimeError("semisimplification order does not divide group order")
    return result


def _unit_shear(G: MatrixGroup, n: int) -> Mat2:
    return Mat2(1, n, 0, 1, G.modulus)


def _case_flags(G: MatrixGroup) -> tuple[Mat2 | None, bool, bool]:
    """(least repeated-eigenvalue non-diagonal element, non-abelian, diagonalizable).

    A non-diagonal [[a, b], [0, a]] has a nontrivial shear as its
    (l-1)-th power, so G holds such an element exactly when it holds the
    unit shears, and then the least one by code is [[1, 1], [0, 1]].
    """
    shear = _unit_shear(G, 1)
    candidate = shear if shear in G else None
    nonabelian = not G.is_abelian
    diagonalizable = candidate is None and not nonabelian
    return candidate, nonabelian, diagonalizable


def _transvection_witness(G: MatrixGroup, gamma: Mat2) -> TransvectionWitness:
    ell = G.modulus.ell
    lam_value = ((ell - 1) * gamma.b * pow(gamma.a, ell - 2, ell)) % ell
    power = gamma ** (ell - 1)
    if power != _unit_shear(G, lam_value):
        raise RuntimeError("shear power disagrees with the closed form")
    lam = FpUnit(lam_value, G.modulus)
    lam_inverse = pow(lam_value, -1, ell)
    transvection = gamma ** ((ell - 1) * lam_inverse)
    return TransvectionWitness(gamma, lam, lam_inverse, transvection)


def _diagonalizer_witness(G: MatrixGroup) -> DiagonalizerWitness:
    """Basis change to the line that every element of G fixes besides e1's.

    Called for a G without the unit shears. Then a matrix [[a, b], [0, d]]
    of G with b != 0 has a != d, and it fixes the line (x0, 1) for
    x0 = b / (d - a). Every element of G fixes that one line: two elements
    of the Borel that fix different such lines do not commute, and their
    commutator is a nontrivial shear. So x0 is read off the first
    generator with b != 0, and P = [[1, x0], [0, 1]] carries e2 onto that
    line. Diagonal generators get P = I.
    """
    ell = G.modulus.ell
    chosen = next((g for g in G.generators if g.b), None)
    if chosen is None:
        return DiagonalizerWitness(Mat2.identity(G.modulus))
    x = (chosen.b * pow(chosen.d - chosen.a, -1, ell)) % ell
    return DiagonalizerWitness(Mat2(1, x, 0, 1, G.modulus))


def classify_semisimplification(G: MatrixGroup) -> SemisimplificationResult:
    """Classify an upper-triangular group and build the matching witness.

    A group with a repeated-eigenvalue shear gets a transvection witness,
    and the containment of the diagonal-parts group in G is checked by
    sifting its generators through G's stabilizer chain. Every other group
    gets a diagonalizer. A non-abelian group always has such a
    shear (see the module docstring), so "noncommutative" is only recorded
    in cases_matched, after "repeated_eigenvalue".
    """
    _require_upper_triangular(G)
    gss = semisimplification(G)
    candidate, nonabelian, diagonalizable = _case_flags(G)

    matched = []
    if candidate is not None:
        matched.append(CASE_REPEATED_EIGENVALUE)
    if nonabelian:
        matched.append(CASE_NONCOMMUTATIVE)
    if diagonalizable:
        matched.append(CASE_DIAGONALIZABLE)

    witness: TrichotomyWitness
    if candidate is not None:
        witness = _transvection_witness(G, candidate)
        # [[a, b], [0, d]] * [[1, n], [0, 1]] = [[a, an + b], [0, d]] is
        # diag(a, d) for n = -b * a^-1, so G, which holds all unit shears,
        # holds every diagonal part.
        contained = gss.is_subgroup_of(G)
    else:
        witness = _diagonalizer_witness(G)
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


def _verify_transvection(G: MatrixGroup, w: TransvectionWitness) -> bool:
    ell = G.modulus.ell
    gamma = w.gamma
    if gamma.modulus != G.modulus or gamma not in G:
        return False
    if gamma.b == 0 or gamma.a != gamma.d or gamma.c != 0:
        return False
    lam_formula = ((ell - 1) * gamma.b * pow(gamma.a, ell - 2, ell)) % ell
    if w.lam.value != lam_formula or lam_formula == 0:
        return False
    if gamma ** (ell - 1) != Mat2(1, lam_formula, 0, 1, G.modulus):
        return False
    if (w.lam_inverse * lam_formula) % ell != 1:
        return False
    expected = gamma ** ((ell - 1) * w.lam_inverse)
    unit_shear = Mat2(1, 1, 0, 1, G.modulus)
    return w.transvection == expected == unit_shear and unit_shear in G


def _verify_diagonalizer(G: MatrixGroup, w: DiagonalizerWitness) -> bool:
    # Diagonal matrices form a group, so P^-1 G P is diagonal exactly when
    # every conjugated generator is.
    if w.basis_change.modulus != G.modulus:
        return False
    return conjugate(G, w.basis_change).is_diagonal
