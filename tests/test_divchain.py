import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2orbits import divchain, orbits
from gl2orbits.divchain import (
    Case1Scenario,
    Case2Scenario,
    DegreeParameter,
    InvalidScenarioError,
    admissible_rho_orders,
    inert_bound_check,
    nonsplit_orbit_check,
    order_arithmetic_holds,
    replay_certificate,
    validate_case1,
    validate_case2,
    verify_case1_chain,
    verify_case2_chain,
)
from gl2orbits.gl2 import (
    Mat2,
    _nonsplit_codes,
    borel,
    closure,
    kth_power_subgroup,
    nonsplit_cartan,
    scalars,
    split_cartan,
    trivial_group,
)
from gl2orbits.modarith import PrimeModulus, divisors, is_prime, power_image_order
from gl2orbits.orbits import orbit_partition, orbit_size_map
from gl2orbits.semisimplify import semisimplification
from gl2orbits.sweep import _times_unit_shears
from oracle import breadth_first_codes, breadth_first_partition, power_codes

M5 = PrimeModulus(5)
M7 = PrimeModulus(7)
M13 = PrimeModulus(13)


def _with_walks(partition, *walks):
    """partition with its line walks replaced by walks, offsets kept."""
    return dataclasses.replace(partition, walks=walks)


def checks_by_name(report_or_cert):
    return {c.name: c.passed for c in report_or_cert.checks}


def test_validate_case1_full_borel():
    s = Case1Scenario(borel(M13), split_cartan(M13), DegreeParameter(1))
    report = validate_case1(s)
    assert report.valid
    # Both 12th-power subgroups are trivial mod 13, checked by enumeration.
    assert {g**12 for g in split_cartan(M13).elements} == {Mat2.identity(M13)}


def test_validate_case1_trivial_comparison_group():
    s = Case1Scenario(borel(M5), trivial_group(M5), DegreeParameter(1))
    report = validate_case1(s)
    by_name = checks_by_name(report)
    # All units mod 5 have trivial 12th powers, so the power condition holds...
    assert {g**12 for g in split_cartan(M5).elements} == {Mat2.identity(M5)}
    assert by_name["twelfth_power_match"]
    # ...but the index gate fails: [Cartan : trivial] = 16 does not divide 6.
    assert not by_name["cartan_index_divides"]
    assert not report.valid


def test_validate_case1_flags_non_triangular():
    s = Case1Scenario(nonsplit_cartan(M5), split_cartan(M5), DegreeParameter(1))
    report = validate_case1(s)
    by_name = checks_by_name(report)
    assert not by_name["upper_triangular"]
    assert not report.valid


def test_case1_chain_borel_13():
    s = Case1Scenario(borel(M13), split_cartan(M13), DegreeParameter(1))
    cert = verify_case1_chain(s)
    assert cert.verdict
    assert sorted(set(cert.orbit_sizes.values())) == [12, 156]
    assert (864 * 12) % 12 == 0 and (864 * 156) % 12 == 0
    factors = dict(cert.factors)
    assert factors["base_constant"] == 1
    assert factors["cartan_over_comparison"] == 1
    assert factors["final_constant"] == 864
    by_name = checks_by_name(cert)
    assert by_name["intermediate_144_times_index"]
    assert by_name["twelfth_index_bounded"]
    assert replay_certificate(cert, s)


def test_case1_chain_cartan_as_own_image():
    s = Case1Scenario(split_cartan(M5), split_cartan(M5), DegreeParameter(1))
    cert = verify_case1_chain(s)
    assert cert.verdict
    assert sorted(orbits._orbit_lengths(orbit_partition(s.G).size_counts)) == [4, 4, 16]


def test_case1_chain_monotone_in_degree():
    s = Case1Scenario(split_cartan(M5), split_cartan(M5), DegreeParameter(720))
    cert = verify_case1_chain(s)
    assert cert.verdict


def test_case1_chain_rejects_invalid():
    s = Case1Scenario(borel(M5), trivial_group(M5), DegreeParameter(1))
    with pytest.raises(InvalidScenarioError):
        verify_case1_chain(s)


def test_final_constant_72_is_sharp_on_the_l73_witness(monkeypatch):
    # G = <diag(5, 1), [[1, 1], [0, 1]]> at l = 73, with Gp = <diag(5, 1),
    # diag(1, 3)> of index 6 in the diagonal group and d = 1, is a valid
    # case-1 scenario whose orbits are 72 of size 73 and one of size 72.
    # l - 1 = 72 divides 72 * 73 but not 36 * 73, so the direct check
    # passes with the final constant 72 and fails with 36 on an orbit of
    # size 73. The chain assembles [Cartan : Gp] * [Gp : Gp^12] = 6 * 144
    # = 864, so its assembled-constant gate rejects both.
    m = PrimeModulus(73)
    G = closure([Mat2(5, 0, 0, 1, m), Mat2(1, 1, 0, 1, m)], m)
    Gp = closure([Mat2(5, 0, 0, 1, m), Mat2(1, 0, 0, 3, m)], m)
    assert (G.order, Gp.order, 72 * 72 // Gp.order) == (5256, 864, 6)
    s = Case1Scenario(G, Gp, DegreeParameter(1))
    assert validate_case1(s).valid
    assert orbit_partition(G).size_counts == ((73, 72), (72, 1))
    cert = verify_case1_chain(s)
    assert cert.verdict and cert.counterexample is None
    assert dict(cert.factors)["comparison_over_twelfth"] == 144

    monkeypatch.setattr(divchain, "FINAL_CONSTANT", 72)
    cert = verify_case1_chain(s)
    assert not cert.verdict and cert.counterexample is None
    assert [c.name for c in cert.checks if not c.passed] == [
        "assembled_constant_divides"
    ]

    monkeypatch.setattr(divchain, "FINAL_CONSTANT", 36)
    cert = verify_case1_chain(s)
    assert [c.name for c in cert.checks if not c.passed] == [
        "assembled_constant_divides",
        "final_direct",
    ]
    assert cert.counterexample == {
        "vector": [0, 1],
        "expected_divisor": 72,
        "value": 36 * 73,
    }


@pytest.mark.parametrize(
    "chain, validate, s",
    [
        (
            verify_case1_chain,
            validate_case1,
            Case1Scenario(borel(M5), trivial_group(M5), DegreeParameter(1)),
        ),
        (
            verify_case2_chain,
            validate_case2,
            Case2Scenario(scalars(M13), DegreeParameter(1)),
        ),
    ],
)
def test_invalid_scenario_error_carries_report(chain, validate, s):
    with pytest.raises(InvalidScenarioError, match="invalid case-") as info:
        chain(s)
    assert info.value.report.failed_names == validate(s).failed_names
    assert info.value.report.failed_names
    assert ", ".join(info.value.report.failed_names) in str(info.value)
    unpickled = pickle.loads(pickle.dumps(info.value))
    assert (str(unpickled), unpickled.report) == (str(info.value), info.value.report)


@pytest.mark.parametrize(
    "chain, s, power_calls",
    [
        (
            verify_case1_chain,
            Case1Scenario(borel(M13), split_cartan(M13), DegreeParameter(1)),
            2,
        ),
        (verify_case2_chain, Case2Scenario(scalars(M13), DegreeParameter(2)), 1),
        (verify_case2_chain, Case2Scenario(borel(M7), DegreeParameter(1)), 1),
    ],
)
def test_chain_derives_each_group_once(monkeypatch, chain, s, power_calls):
    # The chain reads G^ss (in case 1 also Gp^12, in case 2 the order of
    # det(G^ss)) from its validation report instead of deriving it again.
    det_calls = 1 if chain is verify_case2_chain else 0
    calls = {"gss": 0, "power": 0, "det": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        divchain, "semisimplification", counting(semisimplification, "gss")
    )
    monkeypatch.setattr(
        divchain, "kth_power_subgroup", counting(kth_power_subgroup, "power")
    )
    monkeypatch.setattr(
        divchain, "_det_image_order", counting(divchain._det_image_order, "det")
    )
    assert chain(s).verdict
    assert calls == {"gss": 1, "power": power_calls, "det": det_calls}


def test_validation_report_carries_derived_groups():
    s = Case1Scenario(borel(M13), split_cartan(M13), DegreeParameter(1))
    report = validate_case1(s)
    assert report.gss == semisimplification(s.G)
    assert report.twelfth == kth_power_subgroup(s.Gp, 12)
    # Groups whose checks were not evaluated are absent.
    s = Case1Scenario(nonsplit_cartan(M5), split_cartan(M5), DegreeParameter(1))
    assert (validate_case1(s).gss, validate_case1(s).twelfth) == (None, None)
    s2 = Case2Scenario(scalars(M13), DegreeParameter(2))
    assert validate_case2(s2).gss == semisimplification(s2.G)
    # det(a * I) = a^2 takes the (l - 1) / 2 squares mod 13.
    assert validate_case2(s2).det_image_order == 6
    assert validate_case1(s).det_image_order is None
    s2 = Case2Scenario(nonsplit_cartan(M5), DegreeParameter(1))
    assert validate_case2(s2).det_image_order is None


def test_validate_case2_scalars_degrees():
    # det image of the scalars mod 13 is the squares: index 2, so d must be even.
    assert not validate_case2(
        Case2Scenario(scalars(M13), DegreeParameter(1))
    ).valid
    assert validate_case2(Case2Scenario(scalars(M13), DegreeParameter(2))).valid


def test_case2_chain_scalars_13():
    s = Case2Scenario(scalars(M13), DegreeParameter(2))
    cert = verify_case2_chain(s)
    assert cert.verdict
    factors = dict(cert.factors)
    # Sixth powers of units mod 13 are {1, 12}: the scalar subgroup has order 2.
    sixth = kth_power_subgroup(scalars(M13), 6)
    assert sixth.order == 2
    assert factors["sixth_power_order"] == 2
    assert (36 * 2) % 12 == 0
    assert replay_certificate(cert, s)


def test_case2_degenerate_identity_group():
    # The trivial group needs d divisible by 6 = [units : det image] mod 7;
    # the final divisibility 6 | 864 d then holds for every d.
    assert (864 * 1) % 6 == 0
    invalid = validate_case2(Case2Scenario(trivial_group(M7), DegreeParameter(1)))
    assert not invalid.valid
    s = Case2Scenario(trivial_group(M7), DegreeParameter(6))
    assert validate_case2(s).valid
    cert = verify_case2_chain(s)
    assert cert.verdict
    assert set(cert.orbit_sizes.values()) == {1}


def test_case2_rejects_unequal_sixth_powers():
    from gl2orbits.modarith import least_primitive_root

    g = least_primitive_root(M13).value
    G = closure([Mat2(g, 0, 0, 1, M13)])
    report = validate_case2(Case2Scenario(G, DegreeParameter(12)))
    assert not checks_by_name(report)["sixth_powers_agree"]
    with pytest.raises(InvalidScenarioError):
        verify_case2_chain(Case2Scenario(G, DegreeParameter(12)))


def test_sixth_power_scalar_iff_elementwise_condition():
    # Both directions, by enumeration over diagonal subgroups.
    from gl2orbits.sweep import enumerate_diagonal_subgroups

    for p in (5, 7, 13):
        m = PrimeModulus(p)
        for Gp in enumerate_diagonal_subgroups(m):
            elementwise = all(
                pow(g.a, 6, p) == pow(g.d, 6, p) for g in Gp.elements
            )
            scalar = kth_power_subgroup(Gp, 6).is_scalar
            assert elementwise == scalar


def test_twelfth_power_index_divides_144():
    from gl2orbits.sweep import enumerate_diagonal_subgroups

    for p in [q for q in range(3, 32) if is_prime(q)]:
        m = PrimeModulus(p)
        for Gp in enumerate_diagonal_subgroups(m):
            index = Gp.order // kth_power_subgroup(Gp, 12).order
            assert 144 % index == 0


def test_order_arithmetic_examples():
    # (12, 6): both power images have order 1; (4, 6): likewise.
    assert power_image_order(12, 12) == power_image_order(6, 6) == 1
    assert order_arithmetic_holds(12, 6)
    assert order_arithmetic_holds(4, 6)
    with pytest.raises(ValueError):
        order_arithmetic_holds(5, 7)


def test_order_arithmetic_chain_exhaustive():
    for p in [q for q in range(3, 98) if is_prime(q)]:
        n = p - 1
        for n_r in divisors(n):
            for n_chi in divisors(n):
                if power_image_order(n_r, 12) != power_image_order(n_chi, 6):
                    continue
                assert order_arithmetic_holds(n_r, n_chi)
                r6 = power_image_order(n_r, 6)
                assert (6 * n_r) % n_chi == 0
                assert (36 * r6) % n_chi == 0


def test_inert_bound_examples():
    m71 = PrimeModulus(71)
    rhos = admissible_rho_orders(m71, 6, 2)
    assert rhos == (420, 840)
    assert all(inert_bound_check(m71, 6, 2, r) for r in rhos)
    assert (12 * 6 * 2) % 72 == 0

    m11 = PrimeModulus(11)
    assert inert_bound_check(m11, 2, 1) is True
    assert 24 % 12 == 0

    m97 = PrimeModulus(97)
    assert admissible_rho_orders(m97, 2, 1) == ()
    assert inert_bound_check(m97, 2, 1) is False


def test_inert_bound_check_validates_arguments():
    with pytest.raises(ValueError):
        inert_bound_check(PrimeModulus(11), 3, 1)
    with pytest.raises(ValueError):
        inert_bound_check(PrimeModulus(11), 2, 0)
    with pytest.raises(ValueError):
        inert_bound_check(PrimeModulus(11), 2, 1, rho_order=7)
    with pytest.raises(ValueError):
        # 60 divides 12 * 10 but 120 does not divide 2 * 1 * 12.
        inert_bound_check(PrimeModulus(11), 2, 1, rho_order=12)


def test_inert_argument_checks_read_the_same_with_and_without_rho_order():
    m = PrimeModulus(11)
    for w, f in ((3, 1), (2, 0)):
        with pytest.raises(ValueError) as without:
            inert_bound_check(m, w, f)
        with pytest.raises(ValueError) as given_order:
            inert_bound_check(m, w, f, rho_order=12)
        with pytest.raises(ValueError) as admissible:
            admissible_rho_orders(m, w, f)
        assert str(without.value) == str(given_order.value) == str(admissible.value)
    assert str(without.value) == "f must be positive"


def test_inert_implication_small_grid():
    for p in [q for q in range(3, 60) if is_prime(q)]:
        m = PrimeModulus(p)
        for w in (2, 4, 6):
            for f in range(1, 6):
                rhos = admissible_rho_orders(m, w, f)
                if rhos:
                    assert (12 * w * f) % (p + 1) == 0
                    assert inert_bound_check(m, w, f) is True


def test_nonsplit_orbit_check_small_primes():
    for p in (3, 5, 7, 13):
        assert nonsplit_orbit_check(PrimeModulus(p))
    with pytest.raises(ValueError):
        nonsplit_orbit_check(PrimeModulus(2))


def test_nonsplit_subgroup_orbits_match_order():
    m = PrimeModulus(7)
    cns = nonsplit_cartan(m)
    sub = closure([g for g in scalars(m).generators], m)
    assert sub.is_subgroup_of(cns)
    assert set(orbit_size_map(sub).values()) == {6}


def test_nonsplit_orbit_check_gates_can_fail(monkeypatch):
    # Each control breaks one gate and leaves the other two passing.
    assert nonsplit_orbit_check(M7)
    (g,) = nonsplit_cartan(M7).generators

    # (iii) one orbit: a cached Cartan partition whose walk over all eight
    # lines finds k = 2, so two orbits of size 24.
    cns = nonsplit_cartan(M7)
    true = orbits.orbit_partition(cns)
    ((lines, k),) = true.walks
    assert k == 1 and sorted(lines) == list(range(8))
    forged = _with_walks(true, (lines, 2))
    assert forged.size_counts == ((24, 2),)
    monkeypatch.setitem(orbits._PARTITIONS, cns, forged)
    assert not nonsplit_orbit_check(M7)
    monkeypatch.undo()

    # (ii) order: <g^2> keeps the Cartan form but has order 24. A group of
    # that form with one orbit on V* has order 48, so the single orbit must
    # be forged for this control to leave (iii) passing.
    a, b, c, d = (g * g).as_tuple()
    assert a == d and b == 3 * c % 7  # 3 is the least primitive root mod 7
    half = closure([g * g], M7)
    assert half.order == 24
    # Its true walks are two orbits of four lines; forged, all lines are in
    # one walk with k = 1.
    assert orbits.orbit_partition(half).size_counts == ((24, 1), (24, 1))
    forged = _with_walks(orbits.orbit_partition(half), (tuple(range(8)), 1))
    monkeypatch.setitem(orbits._PARTITIONS, half, forged)
    monkeypatch.setattr(divchain, "nonsplit_cartan", lambda m: half)
    assert orbits.orbit_partition(half).size_counts == ((48, 1),)
    assert not nonsplit_orbit_check(M7)
    monkeypatch.undo()

    # (i) containment: the conjugate of <g> by u = [[1, 1], [0, 1]] has
    # order 48 and one orbit, but its generator is not of the Cartan form.
    u = Mat2(1, 1, 0, 1, M7)
    moved = closure([u.inverse() * g * u], M7)
    assert moved.order == 48 and orbit_partition(moved).size_counts == ((48, 1),)
    monkeypatch.setattr(divchain, "nonsplit_cartan", lambda m: moved)
    assert not nonsplit_orbit_check(M7)
    # Each half of (i) alone: [[2, 3], [1, 3]] has b = 3c but a != d, and
    # the conjugate of g by diag(1, 2) has a = d but b = 5c.
    t = Mat2(1, 0, 0, 2, M7)
    for h in (Mat2(2, 3, 1, 3, M7), t.inverse() * g * t):
        skew = closure([h], M7)
        assert skew.order == 48 and orbit_partition(skew).size_counts == ((48, 1),)
        monkeypatch.setattr(divchain, "nonsplit_cartan", lambda m: skew)
        assert not nonsplit_orbit_check(M7)


def test_power_codes_match_tuple_powers():
    # Matrix powers and one-generator closures against one tuple product
    # per power, for the Cartan generator at every odd l <= 31 and its
    # square at l = 7.
    for p in [q for q in range(3, 32) if is_prime(q)]:
        n = p * p - 1
        (gen,) = nonsplit_cartan(PrimeModulus(p)).generators
        codes = power_codes(gen.as_tuple(), n, p)
        assert [(gen**k).encode() for k in range(n)] == codes
        assert set(codes) == breadth_first_codes([gen.as_tuple()], p)
    (gen,) = nonsplit_cartan(M7).generators
    codes = power_codes((gen * gen).as_tuple(), 48, 7)
    assert [(gen ** (2 * k)).encode() for k in range(48)] == codes
    assert codes[24:] == codes[:24]


def test_nonsplit_power_table_slices_are_the_cyclic_subgroups():
    # Each slice of the tuple power table equals the closure of its
    # generator, and that subgroup's orbits all have its order.
    for p in (3, 5, 7, 11):
        m = PrimeModulus(p)
        n = p * p - 1
        cns = nonsplit_cartan(m)
        gen = cns.generators[0]
        codes = power_codes(gen.as_tuple(), n, p)
        assert frozenset(codes) == cns.codes
        for d in divisors(n):
            sub = closure([gen ** (n // d)], m)
            assert sub.codes == frozenset(codes[:: n // d])
            assert set(orbit_size_map(sub).values()) == {d}


def test_nonsplit_cartan_is_its_generators_power_table():
    # The elementwise form of nonsplit_orbit_check's gates (i) and (ii), at
    # every prime of the full verification's nonsplit stage: the n powers
    # of the generator are n distinct codes, the listed Cartan's.
    for p in [q for q in range(3, 200) if is_prime(q)]:
        m = PrimeModulus(p)
        n = p * p - 1
        (gen,) = nonsplit_cartan(m).generators
        powers = set(power_codes(gen.as_tuple(), n, p))
        assert len(powers) == n
        assert powers == set(_nonsplit_codes(m))
        if p <= 31:
            assert nonsplit_cartan(m).codes == powers


def _case1_checks(down1, down2, up, twelfth, assembled):
    return [
        (
            "cartan_three_orbits",
            True,
            "diagonal group orbit sizes [12, 12, 144], base constant 1",
        ),
        ("transfer_down_to_comparison", True, f"constant grows to {down1}"),
        ("transfer_down_to_twelfth_powers", True, f"constant grows to {down2}"),
        ("containment_chain", True, ""),
        ("transfer_up_to_image", True, f"constant {up} carried to G-orbits"),
        ("twelfth_index_bounded", True, f"[Gp : Gp^12] = {twelfth}"),
        ("intermediate_144_times_index", True, ""),
        ("assembled_constant_divides", True, assembled),
        ("final_direct", True, ""),
    ]


def _case2_checks(sixth, order_chain, scalar, up):
    return [
        ("sixth_power_scalar", True, f"order {sixth}"),
        ("order_chain", True, order_chain),
        ("scalar_uniform_divisibility", True, scalar),
        (
            "sixth_power_orbit_sizes",
            True,
            f"all orbits of the scalar subgroup have size {sixth}",
        ),
        ("containment_chain", True, ""),
        ("transfer_up_to_image", True, f"constant {up} carried to G-orbits"),
        ("final_direct", True, ""),
    ]


def _case1_factors(cartan, twelfth):
    return (
        ("base_constant", 1),
        ("cartan_over_comparison", cartan),
        ("comparison_over_twelfth", twelfth),
        ("twelfth_index_bound", 144),
        ("final_constant", 864),
    )


def _case2_factors(sixth):
    return (("scalar_bound", 36), ("sixth_power_order", sixth), ("final_constant", 864))


def test_certificate_checks_cover_intermediate_step():
    # Reports print only the names of failed checks; this pins every
    # check's name, verdict and detail in order, and the recorded factors.
    from random import Random

    from gl2orbits.sweep import _sample_case1

    sampled = _sample_case1(Random(0), M13, 6)
    # D·U, held by its generators.
    assert not sampled.G.is_diagonal and "codes" not in vars(sampled.G)
    assert (sampled.G.order, sampled.Gp.order) == (624, 16)
    certificates = [
        (
            verify_case1_chain(
                Case1Scenario(borel(M13), split_cartan(M13), DegreeParameter(3))
            ),
            _case1_checks(1, 144, 144, 144, "1 * 144 into 864 * 3"),
            _case1_factors(1, 144),
        ),
        (
            verify_case1_chain(sampled),
            _case1_checks(9, 144, 144, 16, "9 * 16 into 864 * 6"),
            _case1_factors(9, 16),
        ),
        (
            verify_case2_chain(Case2Scenario(scalars(M13), DegreeParameter(2))),
            _case2_checks(
                2,
                "det image 6 against 6 * 12 and 36 * 2",
                "12 into 36 * 2 * 2",
                72,
            ),
            _case2_factors(2),
        ),
        (
            verify_case2_chain(Case2Scenario(borel(M7), DegreeParameter(1))),
            _case2_checks(
                1,
                "det image 6 against 6 * 6 and 36 * 1",
                "6 into 36 * 1 * 1",
                36,
            ),
            _case2_factors(1),
        ),
    ]
    for cert, checks, factors in certificates:
        assert [(c.name, c.passed, c.detail) for c in cert.checks] == checks
        assert cert.factors == factors
        assert cert.counterexample is None and cert.verdict


def test_invalid_scenarios_record_every_check_in_order():
    ok = ("modulus_match", True, "G and Gp share one modulus")
    unevaluated = ("twelfth_power_match", False, "not evaluated: prior failure")
    index_one = ("cartan_index_divides", True, "[Cartan : Gp] = 1 against 6 * 1")
    not_triangular = "not evaluated: G not triangular"
    reports = [
        (
            validate_case1(
                Case1Scenario(borel(M5), split_cartan(M7), DegreeParameter(1))
            ),
            [
                ("modulus_match", False, "G and Gp share one modulus"),
                ("upper_triangular", True, ""),
                ("semisimplification_contained", True, ""),
                ("comparison_group_diagonal", True, ""),
                unevaluated,
                index_one,
            ],
        ),
        (
            validate_case1(
                Case1Scenario(nonsplit_cartan(M5), split_cartan(M5), DegreeParameter(1))
            ),
            [
                ok,
                ("upper_triangular", False, ""),
                ("semisimplification_contained", False, not_triangular),
                ("comparison_group_diagonal", True, ""),
                unevaluated,
                index_one,
            ],
        ),
        (
            validate_case1(
                Case1Scenario(borel(M5), nonsplit_cartan(M5), DegreeParameter(1))
            ),
            [
                ok,
                ("upper_triangular", True, ""),
                ("semisimplification_contained", True, ""),
                ("comparison_group_diagonal", False, ""),
                unevaluated,
                ("cartan_index_divides", False, "not evaluated: Gp not diagonal"),
            ],
        ),
        (
            validate_case2(Case2Scenario(nonsplit_cartan(M5), DegreeParameter(1))),
            [
                ("upper_triangular", False, ""),
                ("semisimplification_contained", False, not_triangular),
                ("sixth_powers_agree", False, not_triangular),
                ("determinant_index_divides", False, not_triangular),
            ],
        ),
    ]
    for report, checks in reports:
        assert [(c.name, c.passed, c.detail) for c in report.checks] == checks


def test_replay_detects_tampered_orbit_sizes():
    # The sizes are derived from the stored partition, so it is tampered:
    # the axis walk (line 5, the axis y = 0) with k = 2 cuts the axis orbit
    # in two.
    s = Case1Scenario(split_cartan(M5), split_cartan(M5), DegreeParameter(1))
    cert = verify_case1_chain(s)
    walks = [(lines, 2 if lines == (5,) else k) for lines, k in cert.partition.walks]
    assert walks != list(cert.partition.walks)
    bad = dataclasses.replace(cert, partition=_with_walks(cert.partition, *walks))
    assert bad.orbit_sizes[1] == 2 != cert.orbit_sizes[1]
    assert not replay_certificate(bad, s)
    assert replay_certificate(cert, s)


def test_replay_ignores_a_corrupted_orbit_cache():
    # Above 20,000 elements replay skips its elementwise sample, so only
    # its own recomputation of the orbit map can see the corruption.
    m = PrimeModulus(31)
    G = borel(m)
    assert G.order > 20_000
    s = Case1Scenario(G, split_cartan(m), DegreeParameter(1))
    # The axis walk (line 31 alone, the axis y = 0) forged to k = 30: every
    # axis code is its own orbit, and code 1's cached orbit size becomes 1.
    true = orbits.orbit_partition(G)
    assert true.walks[-1] == ((31,), 1) and orbits._size_map(true)[1] == 30
    corrupted = _with_walks(true, *true.walks[:-1], ((31,), 30))
    assert orbits._size_map(corrupted)[1] == 1
    orbits._PARTITIONS[G] = corrupted
    try:
        cert = verify_case1_chain(s)
        assert cert.partition is corrupted and cert.orbit_sizes[1] == 1
        assert not replay_certificate(cert, s)
    finally:
        del orbits._PARTITIONS[G]
    assert replay_certificate(verify_case1_chain(s), s)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 5, 7, 13, 31]), st.integers(0, 10_000))
def test_sampled_scenarios_produce_passing_certificates(p, seed):
    from random import Random

    from gl2orbits.sweep import _sample_case1, _sample_case2

    m = PrimeModulus(p)
    s1 = _sample_case1(Random(seed), m, 6)
    assert s1 is not None
    assert validate_case1(s1).valid
    cert1 = verify_case1_chain(s1)
    assert cert1.verdict
    s2 = _sample_case2(Random(seed), m, (1, 2, 3, 6, 12))
    assert s2 is not None
    assert validate_case2(s2).valid
    cert2 = verify_case2_chain(s2)
    assert cert2.verdict
    assert semisimplification(s2.G).is_subgroup_of(s2.G)


def _certificate_scenarios():
    """The scenarios of the benchmark's certificates round (l = 37..67)."""
    from gl2orbits.sweep import SweepConfig, sample_scenarios

    cfg = SweepConfig(
        primes=tuple(p for p in range(37, 68) if is_prime(p)),
        sample_count=16,
        suites=("case1", "case2"),
        seed=864,
        degrees=(1, 2, 3, 6, 12),
    )
    return list(sample_scenarios(cfg, "case1")) + list(sample_scenarios(cfg, "case2"))


def test_chains_leave_descriptors_unmaterialized():
    # Every scenario group is held by its generators, D·U (not diagonal)
    # in more than half of them, and the chains never build its codes.
    scenarios = _certificate_scenarios()
    descriptors = [s.G for s in scenarios if not s.G.is_diagonal]
    assert len(descriptors) > len(scenarios) // 2
    for s in scenarios:
        chain = verify_case1_chain if isinstance(s, Case1Scenario) else verify_case2_chain
        cert = chain(s)
        assert cert.verdict
        assert "codes" not in vars(s.G)
        # The certificate holds the partition: its walk and per-line views.
        views = {"modulus", "walks", "offset", "size_counts", "walk_of"}
        assert vars(cert.partition).keys() <= views
    assert all("codes" not in vars(s.G) for s in scenarios)
    # The partition of D·U is the oracle's, walked from its generators.
    G = descriptors[0]
    oracle = breadth_first_partition(G.generator_tuples(), G.modulus.ell)
    assert sorted(orbits._listed_orbits(orbit_partition(G))) == list(oracle[0])


def test_containment_checks_fail_against_a_descriptor(monkeypatch):
    m = PrimeModulus(13)
    D = kth_power_subgroup(split_cartan(m), 6)
    G = _times_unit_shears(D)
    outside = split_cartan(m)
    assert not outside.is_subgroup_of(G)
    with pytest.raises(ValueError, match="not a subgroup"):
        orbits.uniform_divisibility_transfer(12, 1, G, outside, "up")
    with pytest.raises(ValueError, match="not a subgroup"):
        orbits.uniform_divisibility_transfer(12, 1, G, nonsplit_cartan(m), "down")
    s1 = Case1Scenario(G, split_cartan(m), DegreeParameter(6))
    s2 = Case2Scenario(G, DegreeParameter(12))
    assert checks_by_name(validate_case1(s1))["semisimplification_contained"]
    assert checks_by_name(validate_case2(s2))["semisimplification_contained"]
    # A diagonal-parts group that escapes D·U fails the check.
    monkeypatch.setattr(divchain, "semisimplification", lambda group: outside)
    assert not checks_by_name(validate_case1(s1))["semisimplification_contained"]
    assert not checks_by_name(validate_case2(s2))["semisimplification_contained"]
    assert "codes" not in vars(G)
