"""Scenario models and certificate checkers for the orbit divisibility chains.

Three arguments are verified computationally:

  * case 1 (split image): an upper-triangular group G containing its
    diagonal-parts group, tied to a diagonal group G' through equality of
    their 12th-power subgroups, with the index of G' in the full diagonal
    group dividing 6d. The chain of transfers proves that l - 1 divides
    864 * d * (every G-orbit size).
  * case 2 (scalar sixth powers): every diag(a, b) in the diagonal-parts
    group satisfies a^6 = b^6, and the index of the determinant image in
    the unit group divides d. The sixth-power subgroup is scalar and the
    same conclusion follows with intermediate constant 36.
  * the inert exclusion: divisor arithmetic forcing l + 1 to divide
    12 * w * f whenever the two divisibility hypotheses are satisfiable,
    alongside the simply-transitive orbit facts of the nonsplit Cartan,
    read off its generator, its stabilizer chain and its line orbits
    without listing an element.

Both chains share one skeleton: the triangular prefix of validation, the
lift into G (lower <= G^ss <= G, then the transfer up) and the finish,
which re-runs the final divisibility directly from orbit sizes, so a bug
in the chain bookkeeping cannot silently pass. Case 2's order_chain check
is order_arithmetic_holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .gl2 import (
    MatrixGroup,
    _primitive_root_powers,
    image_order,
    kth_power_subgroup,
    nonsplit_cartan,
    split_cartan,
)
from .modarith import PrimeModulus, divisors, power_image_order
from .orbits import (
    OrbitPartition,
    TransferVerdict,
    Vector2,
    _first_violation,
    _orbit_lengths,
    _orbit_partition,
    _size_map,
    orbit_partition,
    uniform_divisibility_transfer,
)
from .semisimplify import semisimplification

FINAL_CONSTANT = 864


class InvalidScenarioError(ValueError):
    """Raised when a chain meets an invalid scenario; ``report`` is its report."""

    def __init__(self, kind: str, report: ValidationReport) -> None:
        # Both arguments stay in args, so the error survives pickling.
        super().__init__(kind, report)
        self.report = report

    def __str__(self) -> str:
        return f"invalid {self.args[0]} scenario: {', '.join(self.report.failed_names)}"


@dataclass(frozen=True)
class DegreeParameter:
    """Abstract positive-integer degree through which field constraints enter."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("degree must be a positive integer")


@dataclass(frozen=True)
class Case1Scenario:
    """Split-image scenario: triangular image G, diagonal comparison group Gp."""

    G: MatrixGroup
    Gp: MatrixGroup
    degree: DegreeParameter


@dataclass(frozen=True)
class Case2Scenario:
    """Scalar-sixth-power scenario: triangular image G alone."""

    G: MatrixGroup
    degree: DegreeParameter


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """A scenario's validity checks and the groups they derived.

    gss is G's diagonal-parts group, twelfth is Gp^12 (case 1) and
    det_image_order is the order of det(G^ss) (case 2); each is None where
    its check was not evaluated.
    """

    checks: tuple[CheckRecord, ...]
    gss: MatrixGroup | None = None
    twelfth: MatrixGroup | None = None
    det_image_order: int | None = None

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


@dataclass(frozen=True)
class DivisibilityCertificate:
    """A validated scenario's verified divisibility conclusion.

    partition is G's orbit partition, held by its line walk; the checks
    and a failing check's counterexample read only its walks and size
    view. orbit_sizes maps every nonzero vector encoding to its G-orbit
    size, listed from the partition on each read. factors records the
    multiplicative chain; verdict is True only when every recorded check
    passed, including the direct final check that l - 1 divides
    final_constant * d * (orbit size) for every G-orbit.
    """

    kind: str
    ell: int
    degree: int
    partition: OrbitPartition
    factors: tuple[tuple[str, int], ...]
    checks: tuple[CheckRecord, ...]
    final_constant: int
    verdict: bool
    counterexample: dict | None

    @property
    def orbit_sizes(self) -> Mapping[int, int]:
        return _size_map(self.partition)


@lru_cache(maxsize=None)
def _cached_cartan(m: PrimeModulus) -> MatrixGroup:
    return split_cartan(m)


def _det_image_order(G: MatrixGroup) -> int:
    ell = G.modulus.ell
    dets = ((a * d - b * c) % ell for a, b, c, d in G.generator_tuples())
    return image_order(dets, G.modulus)


def _divisibility_check(
    name: str, partition: OrbitPartition, multiplier: int, modulus: PrimeModulus
) -> tuple[CheckRecord, dict | None]:
    """Whether l - 1 divides multiplier * (every orbit size), and where not."""
    divisor = modulus.ell - 1
    violation = _first_violation(partition, multiplier, divisor)
    if violation is None:
        return CheckRecord(name, True), None
    code, size = violation
    v = Vector2.decode(code, modulus)
    detail = f"{divisor} does not divide {multiplier} * {size} at {v!r}"
    counterexample = {
        "vector": [v.x, v.y],
        "expected_divisor": divisor,
        "value": multiplier * size,
    }
    return CheckRecord(name, False, detail), counterexample


def _not_evaluated(name: str, reason: str) -> CheckRecord:
    return CheckRecord(name, False, f"not evaluated: {reason}")


def _transfer_record(name: str, t: TransferVerdict, detail: str) -> CheckRecord:
    return CheckRecord(name, t.hypothesis_holds and t.conclusion_holds, detail)


def _triangular_prefix(
    G: MatrixGroup,
    checks: list[CheckRecord],
    dependent: tuple[str, ...],
) -> MatrixGroup | None:
    """Record G triangular and G^ss <= G, and return G^ss; or None, with
    the containment and the dependent checks recorded as not evaluated."""
    ut = G.is_upper_triangular
    checks.append(CheckRecord("upper_triangular", ut))
    if not ut:
        checks.extend(
            _not_evaluated(name, "G not triangular")
            for name in ("semisimplification_contained", *dependent)
        )
        return None
    gss = semisimplification(G)
    checks.append(CheckRecord("semisimplification_contained", gss.is_subgroup_of(G)))
    return gss


def validate_case1(s: Case1Scenario) -> ValidationReport:
    """Check each validity condition of a split-image scenario independently."""
    checks = []
    twelfth = None
    same_modulus = s.G.modulus == s.Gp.modulus
    checks.append(
        CheckRecord("modulus_match", same_modulus, "G and Gp share one modulus")
    )
    gss = _triangular_prefix(s.G, checks, ())
    diag = s.Gp.is_diagonal
    checks.append(CheckRecord("comparison_group_diagonal", diag))
    if diag and gss is not None and same_modulus:
        twelfth = kth_power_subgroup(s.Gp, 12)
        match = twelfth == kth_power_subgroup(gss, 12)
        checks.append(CheckRecord("twelfth_power_match", match))
    else:
        checks.append(_not_evaluated("twelfth_power_match", "prior failure"))
    if diag:
        n = s.Gp.modulus.ell - 1
        index = (n * n) // s.Gp.order
        ok = (6 * s.degree.d) % index == 0
        checks.append(
            CheckRecord(
                "cartan_index_divides",
                ok,
                f"[Cartan : Gp] = {index} against 6 * {s.degree.d}",
            )
        )
    else:
        checks.append(_not_evaluated("cartan_index_divides", "Gp not diagonal"))
    return ValidationReport(tuple(checks), gss, twelfth)


def validate_case2(s: Case2Scenario) -> ValidationReport:
    """Check each validity condition of a scalar-sixth-power scenario."""
    checks = []
    n_chi = None
    ell = s.G.modulus.ell
    dependent = ("sixth_powers_agree", "determinant_index_divides")
    gss = _triangular_prefix(s.G, checks, dependent)
    if gss is not None:
        # a^6 = d^6 on G^ss exactly when the character (a/d)^6 is trivial.
        gens = gss.generator_tuples()
        ratios = (pow(a * pow(d, -1, ell), 6, ell) for a, _, _, d in gens)
        sixth = image_order(ratios, gss.modulus) == 1
        checks.append(CheckRecord("sixth_powers_agree", sixth))
        n_chi = _det_image_order(gss)
        index = (ell - 1) // n_chi
        checks.append(
            CheckRecord(
                "determinant_index_divides",
                s.degree.d % index == 0,
                f"[units : det image] = {index} against {s.degree.d}",
            )
        )
    return ValidationReport(tuple(checks), gss, det_image_order=n_chi)


def _lift_to_image(
    G: MatrixGroup,
    gss: MatrixGroup,
    lower: MatrixGroup,
    constant: int,
) -> list[CheckRecord]:
    """Record lower <= G^ss <= G, then carry constant up into the G-orbits."""
    contained = lower.is_subgroup_of(gss) and gss.is_subgroup_of(G)
    up = _not_evaluated("transfer_up_to_image", "chain broken")
    if contained:
        t = uniform_divisibility_transfer(G.modulus.ell - 1, constant, G, lower, "up")
        detail = f"constant {constant} carried to G-orbits"
        up = _transfer_record(up.name, t, detail)
    return [CheckRecord("containment_chain", contained), up]


def _finish(
    kind: str,
    s: Case1Scenario | Case2Scenario,
    g_partition: OrbitPartition,
    checks: list[CheckRecord],
    factors: tuple[tuple[str, int], ...],
) -> DivisibilityCertificate:
    """Append the direct 864 * d check over G's orbits; certify the chain."""
    m = s.G.modulus
    deg = s.degree.d
    final, counterexample = _divisibility_check(
        "final_direct", g_partition, FINAL_CONSTANT * deg, m
    )
    checks.append(final)
    return DivisibilityCertificate(
        kind=kind,
        ell=m.ell,
        degree=deg,
        partition=g_partition,
        factors=(*factors, ("final_constant", FINAL_CONSTANT)),
        checks=tuple(checks),
        final_constant=FINAL_CONSTANT,
        verdict=all(c.passed for c in checks),
        counterexample=counterexample,
    )


def verify_case1_chain(s: Case1Scenario) -> DivisibilityCertificate:
    """Execute the split-image divisibility proof as a computation.

    Steps: check the three diagonal-group orbits of sizes l-1, l-1,
    (l-1)^2 (base constant 1); transfer down to Gp, down again to its
    12th-power subgroup, then up into G through the containment chain;
    check the intermediate constant 144 * [Cartan : Gp]; and finish with
    the direct check that l - 1 divides 864 * d * (every G-orbit size).

    The one validate_case1 report supplies G^ss and Gp^12; an invalid
    scenario raises InvalidScenarioError carrying that report.
    """
    report = validate_case1(s)
    if not report.valid:
        raise InvalidScenarioError("case-1", report)
    m = s.G.modulus
    n = m.ell - 1
    deg = s.degree.d
    cartan = _cached_cartan(m)
    g12 = report.twelfth
    index_cartan = (n * n) // s.Gp.order
    index_twelfth = s.Gp.order // g12.order

    orbit_multiset = sorted(_orbit_lengths(orbit_partition(cartan).size_counts))
    checks = [
        CheckRecord(
            "cartan_three_orbits",
            orbit_multiset == sorted([n, n, n * n]),
            f"diagonal group orbit sizes {orbit_multiset}, base constant 1",
        )
    ]
    for name, constant, upper, lower in (
        ("transfer_down_to_comparison", 1, cartan, s.Gp),
        ("transfer_down_to_twelfth_powers", index_cartan, s.Gp, g12),
    ):
        t = uniform_divisibility_transfer(n, constant, upper, lower, "down")
        detail = f"constant grows to {t.conclusion_constant}"
        checks.append(_transfer_record(name, t, detail))
    checks += _lift_to_image(s.G, report.gss, g12, index_cartan * index_twelfth)
    g_partition = orbit_partition(s.G)
    intermediate, _ = _divisibility_check(
        "intermediate_144_times_index", g_partition, 144 * 1 * index_cartan, m
    )
    checks += [
        CheckRecord(
            "twelfth_index_bounded",
            144 % index_twelfth == 0,
            f"[Gp : Gp^12] = {index_twelfth}",
        ),
        intermediate,
        CheckRecord(
            "assembled_constant_divides",
            (FINAL_CONSTANT * deg) % (index_cartan * index_twelfth) == 0,
            f"{index_cartan} * {index_twelfth} into {FINAL_CONSTANT} * {deg}",
        ),
    ]
    factors = (
        ("base_constant", 1),
        ("cartan_over_comparison", index_cartan),
        ("comparison_over_twelfth", index_twelfth),
        ("twelfth_index_bound", 144),
    )
    return _finish("case1", s, g_partition, checks, factors)


def verify_case2_chain(s: Case2Scenario) -> DivisibilityCertificate:
    """Execute the scalar-sixth-power divisibility proof as a computation.

    Steps: confirm the sixth-power subgroup of the diagonal-parts group is
    scalar; run the cyclic order arithmetic of order_arithmetic_holds on
    the images of the first diagonal character and the determinant; check
    l - 1 divides 36 * d * the sixth-power image order; carry 36 * d up
    into G; and finish with the direct 864 * d check over all G-orbits.

    The one validate_case2 report supplies G^ss and its determinant image
    order; an invalid scenario raises InvalidScenarioError carrying that
    report. Its sixth_powers_agree check gives a^6 = d^6 on G^ss, so
    (ad)^6 = a^12: the precondition of order_arithmetic_holds holds.
    """
    report = validate_case2(s)
    if not report.valid:
        raise InvalidScenarioError("case-2", report)
    n = s.G.modulus.ell - 1
    deg = s.degree.d
    gss = report.gss
    sixth = kth_power_subgroup(gss, 6)
    n_r = image_order((a for a, _, _, _ in gss.generator_tuples()), gss.modulus)
    n_chi = report.det_image_order
    r6 = power_image_order(n_r, 6)
    sixth_lengths = {size for size, _ in orbit_partition(sixth).size_counts}
    checks = [
        CheckRecord("sixth_power_scalar", sixth.is_scalar, f"order {sixth.order}"),
        CheckRecord(
            "order_chain",
            order_arithmetic_holds(n_r, n_chi),
            f"det image {n_chi} against 6 * {n_r} and 36 * {r6}",
        ),
        CheckRecord(
            "scalar_uniform_divisibility",
            (36 * deg * r6) % n == 0,
            f"{n} into 36 * {deg} * {r6}",
        ),
        CheckRecord(
            "sixth_power_orbit_sizes",
            sixth_lengths == {r6},
            f"all orbits of the scalar subgroup have size {r6}",
        ),
        *_lift_to_image(s.G, gss, sixth, 36 * deg),
    ]
    factors = (("scalar_bound", 36), ("sixth_power_order", r6))
    return _finish("case2", s, orbit_partition(s.G), checks, factors)


def order_arithmetic_holds(n_r: int, n_chi: int) -> bool:
    """Cyclic order chain for compatible character image orders.

    Given the order relation (12th powers of an order-n_r cyclic image and
    6th powers of an order-n_chi one have equal size), the chain asserts
    n_chi divides 6 * n_r and n_chi divides 36 * (n_r / gcd(6, n_r)).
    """
    if power_image_order(n_r, 12) != power_image_order(n_chi, 6):
        raise ValueError("order relation between the images does not hold")
    r6 = power_image_order(n_r, 6)
    return (6 * n_r) % n_chi == 0 and (36 * r6) % n_chi == 0


def _check_units_and_f(w: int, f: int) -> None:
    """Rejects a unit group order w outside (2, 4, 6) and a non-positive f."""
    if w not in (2, 4, 6):
        raise ValueError(f"unit group order {w} not in (2, 4, 6)")
    if f < 1:
        raise ValueError("f must be positive")


def admissible_rho_orders(ell: PrimeModulus, w: int, f: int) -> tuple[int, ...]:
    """Orders dividing 12(l-1) that satisfy (l^2 - 1) | w * f * order."""
    _check_units_and_f(w, f)
    n = ell.ell * ell.ell - 1
    return tuple(
        r for r in divisors(12 * (ell.ell - 1)) if (w * f * r) % n == 0
    )


def inert_bound_check(
    ell: PrimeModulus, w: int, f: int, rho_order: int | None = None
) -> bool:
    """Inert-prime exclusion: whether l + 1 divides 12 * w * f.

    With rho_order given, both divisibility hypotheses (rho_order divides
    12(l-1) and l^2 - 1 divides w * f * rho_order) are required and the
    pure arithmetic conclusion is returned; it always holds under the
    hypotheses. With rho_order omitted, returns False when no admissible
    order exists at all, else the same conclusion.
    """
    if rho_order is None:
        # admissible_rho_orders checks w and f.
        if not admissible_rho_orders(ell, w, f):
            return False
    else:
        _check_units_and_f(w, f)
        if (12 * (ell.ell - 1)) % rho_order != 0:
            raise ValueError(f"rho order {rho_order} does not divide 12(l-1)")
        if (w * f * rho_order) % (ell.ell * ell.ell - 1) != 0:
            raise ValueError("l^2 - 1 does not divide w * f * rho_order")
    return (12 * w * f) % (ell.ell + 1) == 0


def nonsplit_orbit_check(ell: PrimeModulus) -> bool:
    """Transitivity facts for the nonsplit Cartan and all of its subgroups.

    True when the nonsplit Cartan C acts with a single orbit of size
    n = l^2 - 1 and every subgroup (one per divisor d of n, C being cyclic)
    has order d and all orbits of size exactly d.

    Three gates on C = <g>, g = [[a, b], [c, d]], read no element:

      (i) containment: a = d and b = eps*c mod l, eps the least primitive
          root, so g lies in the unit group {[[x, y*eps], [y, x]] != 0} of
          F_l(sqrt(eps)), a group of order n;
      (ii) order: |<g>| = n, read off the stabilizer chain, so <g> is that
          whole unit group;
      (iii) one orbit: the line kernel finds a single orbit on V*.

    By orbit-stabilizer, (iii) makes every stabilizer of C trivial, and a
    subgroup inherits trivial stabilizers, so every orbit of the cyclic
    subgroup of order d has size d.
    """
    ell.require_odd("nonsplit_orbit_check")
    cns = nonsplit_cartan(ell)
    p = ell.ell
    ((a, b, c, d),) = cns.generator_tuples()
    eps = _primitive_root_powers(ell)[1]
    return (
        a == d
        and b == eps * c % p
        and cns.order == p * p - 1
        and orbit_partition(cns).size_counts == ((p * p - 1, 1),)
    )


def replay_certificate(
    cert: DivisibilityCertificate, scenario: Case1Scenario | Case2Scenario
) -> bool:
    """Independently replay a certificate against its scenario.

    Recomputes every orbit size from a fresh partition, bypassing the
    partition cache, compares with the stored sizes, and re-evaluates the
    final divisibility; for small groups the orbit of a sample of vectors
    is additionally recomputed elementwise, without the generator walk.
    Returns True when the stored verdict is reproduced exactly.
    """
    G = scenario.G
    ell = G.modulus.ell
    fresh = _size_map(_orbit_partition(G))
    if dict(cert.orbit_sizes) != fresh:
        return False
    n = ell - 1
    direct = all(
        (cert.final_constant * cert.degree * s) % n == 0 for s in fresh.values()
    )
    # A False verdict may come from a non-final step; only a True verdict
    # pins down the final divisibility.
    if cert.verdict and not direct:
        return False
    if G.order <= 20_000:
        codes = sorted(fresh)[:: max(1, len(fresh) // 16)]
        for code in codes:
            x, y = code % ell, code // ell
            elementwise = {g.apply(x, y) for g in G.elements}
            if len(elementwise) != fresh[code]:
                return False
    return True
