import dataclasses
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2orbits import gl2
from gl2orbits.gl2 import (
    Mat2,
    borel,
    closure,
    conjugate,
    split_cartan,
    unipotent,
)
from gl2orbits.modarith import FpUnit, PrimeModulus
from gl2orbits.semisimplify import (
    DiagonalizerWitness,
    TransvectionWitness,
    _holds_unit_shears,
    classify_semisimplification,
    semisimplification,
    verify_witness,
)
from gl2orbits.sweep import (
    _check_triangular_group,
    _sample_triangular_group,
    _scenario_rng,
    enumerate_upper_triangular_subgroups,
)
from oracle import (
    breadth_first_codes,
    contains_unsheared,
    diagonalizes,
    holds_unit_shears,
    least_repeated_eigenvalue_code,
    least_sheared_x,
    mul,
)

M5 = PrimeModulus(5)
M7 = PrimeModulus(7)


def brute_semisimplification(G):
    """Elementwise projection oracle, independent of the closure route."""
    return frozenset(Mat2(g.a, 0, 0, g.d, G.modulus) for g in G.elements)


def triangular_strategy(primes=(3, 5, 7)):
    def build(p, data):
        m = PrimeModulus(p)
        gens = [
            Mat2(1 + a % (p - 1), b % p, 0, 1 + d % (p - 1), m)
            for a, b, d in data
        ]
        return closure(gens, m)

    return st.builds(
        build,
        st.sampled_from(list(primes)),
        st.lists(
            st.tuples(st.integers(0, 90), st.integers(0, 90), st.integers(0, 90)),
            min_size=1,
            max_size=3,
        ),
    )


def test_semisimplification_examples():
    assert semisimplification(borel(M5)) == split_cartan(M5)
    assert semisimplification(unipotent(M7)).order == 1
    G = closure([Mat2(1, 1, 0, 2, M5)])
    assert G.order == 4
    gss = semisimplification(G)
    assert gss == closure([Mat2(1, 0, 0, 2, M5)])
    assert gss.order == 4


def test_semisimplification_powers_oracle():
    # Direct powers of [[1,1],[0,2]] mod 5 pin down the projected group.
    x = Mat2(1, 1, 0, 2, M5)
    assert x * x == Mat2(1, 3, 0, 4, M5)
    assert x * x * x == Mat2(1, 2, 0, 3, M5)
    assert x**4 == Mat2.identity(M5)
    expected = {Mat2(1, 0, 0, d, M5) for d in (1, 2, 3, 4)}
    assert semisimplification(closure([x])).elements == frozenset(expected)


def test_semisimplification_rejects_non_triangular():
    from gl2orbits.gl2 import nonsplit_cartan

    with pytest.raises(ValueError):
        semisimplification(nonsplit_cartan(M5))


@settings(max_examples=60)
@given(triangular_strategy())
def test_semisimplification_matches_elementwise_projection(G):
    assert semisimplification(G).elements == brute_semisimplification(G)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_semisimplification_is_the_projection_on_the_whole_lattice(p):
    # Every subgroup of the Borel: the Hermite-form build from the projected
    # generators against the projection a*l^3 + d of every code.
    m = PrimeModulus(p)
    l3 = p**3
    for G in enumerate_upper_triangular_subgroups(m):
        projected = frozenset(code // l3 * l3 + code % p for code in G.codes)
        assert semisimplification(G).codes == projected


@settings(max_examples=40)
@given(triangular_strategy())
def test_semisimplification_idempotent(G):
    gss = semisimplification(G)
    assert semisimplification(gss) == gss
    assert G.order % gss.order == 0


@settings(max_examples=25)
@given(triangular_strategy(primes=(3, 5)))
def test_semisimplification_monotone(G):
    # Any cyclic subgroup of G projects into the projection of G.
    gss = semisimplification(G)
    for g in sorted(G.elements, key=Mat2.encode)[:6]:
        sub = closure([g], G.modulus)
        assert semisimplification(sub).is_subgroup_of(gss)


def test_classify_transvection_case_with_frozen_values():
    # gamma = [[2,1],[0,2]]: gamma^4 = [[1,2],[0,1]] and gamma^12 = [[1,1],[0,1]].
    gamma = Mat2(2, 1, 0, 2, M5)
    assert gamma**4 == Mat2(1, 2, 0, 1, M5)
    assert gamma**12 == Mat2(1, 1, 0, 1, M5)
    lam = (4 * 1 * pow(2, 3, 5)) % 5
    assert lam == 2
    assert (3 * lam) % 5 == 1
    G = closure([gamma])
    manual = TransvectionWitness(
        gamma=gamma,
        lam=FpUnit(2, M5),
        lam_inverse=3,
        transvection=Mat2(1, 1, 0, 1, M5),
    )
    assert verify_witness(G, manual)
    result = classify_semisimplification(G)
    assert isinstance(result.witness, TransvectionWitness)
    assert verify_witness(G, result.witness)
    assert result.contained_in_G
    assert result.Gss.is_subgroup_of(G)


def test_classify_picks_smallest_encoding_candidate():
    G = closure([Mat2(2, 1, 0, 2, M5)])
    result = classify_semisimplification(G)
    candidates = [g for g in G.elements if g.b != 0 and g.a == g.d]
    assert result.witness.gamma == min(candidates, key=Mat2.encode)


def test_classify_borel_fires_shear_case():
    result = classify_semisimplification(borel(M5))
    assert isinstance(result.witness, TransvectionWitness)
    assert result.cases_matched[0] == "repeated_eigenvalue"
    assert "noncommutative" in result.cases_matched
    assert result.contained_in_G
    assert result.Gss == split_cartan(M5)
    assert result.Gss.is_subgroup_of(borel(M5))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_noncommutative_groups_lead_with_a_repeated_eigenvalue(p):
    # A non-abelian subgroup of the Borel holds the unit shears, so the
    # repeated-eigenvalue case always comes first and no classification
    # leads with "noncommutative".
    for G in enumerate_upper_triangular_subgroups(PrimeModulus(p)):
        result = classify_semisimplification(G)
        assert result.cases_matched[0] != "noncommutative"
        if not G.is_abelian:
            assert result.cases_matched == ("repeated_eigenvalue", "noncommutative")
            assert isinstance(result.witness, TransvectionWitness)


def test_shear_containment_fails_without_a_diagonal_part(monkeypatch):
    # D·U for D = <diag(4, 1)> mod 5, with membership forged to refuse
    # diag(4, 1): the group still holds every unit shear and [[4, 1], [0, 1]],
    # but not that element's diagonal part.
    G = closure([Mat2(1, 1, 0, 1, M5), Mat2(4, 1, 0, 1, M5)])
    assert G.order == 10 and classify_semisimplification(G).contained_in_G
    diagonal_part = Mat2(4, 0, 0, 1, M5).encode()
    sifts = gl2._StabilizerChain.sifts
    monkeypatch.setattr(
        gl2._StabilizerChain,
        "sifts",
        lambda chain, code: code != diagonal_part and sifts(chain, code),
    )
    assert Mat2(4, 1, 0, 1, M5) in G and Mat2(1, 1, 0, 1, M5) in G
    result = classify_semisimplification(G)
    assert isinstance(result.witness, TransvectionWitness)
    assert verify_witness(G, result.witness)
    assert not result.contained_in_G
    status, failure = _check_triangular_group(G)
    assert (status, failure["scenario"]["note"]) == ("fail", "shear containment failed")


def test_forged_chain_shear_turns_lemma31_red():
    # The basis change is read off the chain's shear, and the checker
    # conjugates G's generators by it, so a wrong x0 turns the row red.
    # A forged shear=None is caught by the checker's own derivation of
    # U <= G (test_forged_unit_shears_turn_lemma31_red).
    G = closure([Mat2(1, 1, 0, 2, M5)])
    assert G._chain.shear == 1
    assert _check_triangular_group(G) == ("pass", None)
    vars(G)["_chain"] = dataclasses.replace(G._chain, shear=2)
    status, failure = _check_triangular_group(G)
    note = failure["scenario"]["note"]
    assert (status, note) == ("fail", "witness rejected on re-derivation")


def test_forged_unit_shears_turn_lemma31_red():
    # G = <[[1, 1], [0, 2]]> mod 5 has order 4 and no unit shears. With its
    # chain forged to report them, the classifier builds the transvection
    # witness and the unit shear and G's diagonal parts sift through the
    # forged chain; the checker derives U <= G from G's generators instead
    # and rejects the witness.
    G = closure([Mat2(1, 1, 0, 2, M5)])
    vars(G)["_chain"] = dataclasses.replace(G._chain, shear=None)
    assert Mat2(1, 1, 0, 1, M5) in G
    result = classify_semisimplification(G)
    assert isinstance(result.witness, TransvectionWitness) and result.contained_in_G
    assert not verify_witness(G, result.witness)
    status, failure = _check_triangular_group(G)
    note = failure["scenario"]["note"]
    assert (status, note) == ("fail", "witness rejected on re-derivation")


def _noncommuting_draws(rng, p, count):
    """Two or three upper-triangular tuples, each with a != d, so that only
    a failure to commute can put the unit shears in their group."""
    draws = []
    while len(draws) < count:
        gens = []
        while len(gens) < rng.choice([2, 3]):
            a, b, d = rng.randrange(1, p), rng.randrange(p), rng.randrange(1, p)
            if a != d:
                gens.append((a, b, 0, d))
        draws.append(gens)
    return draws


def test_unit_shear_criterion_matches_the_elementwise_containment():
    # For upper-triangular G: U <= G exactly when some generator is
    # [[a, b], [0, a]] with b != 0 or two generators do not commute. Against
    # the elementwise U <= G on every Borel subgroup at l <= 13, whose
    # groups holding U all have the unit shear as a generator, and on
    # generator sets with a != d throughout, which reach the commutator.
    rng = Random(31)
    by_commutator = 0
    for p in (2, 3, 5, 7, 11, 13):
        m = PrimeModulus(p)
        draws = [G.generator_tuples() for G in enumerate_upper_triangular_subgroups(m)]
        if p > 3:
            draws += _noncommuting_draws(rng, p, 40)
        for gens in draws:
            expected = holds_unit_shears(breadth_first_codes(gens, p), p)
            assert _holds_unit_shears(gens, p) == expected
            by_commutator += expected and not any(a == d and b for a, b, _, d in gens)
    assert by_commutator > 50


def test_shear_power_self_check_can_fire(monkeypatch):
    # Mat2 powers go through gl2._pow_t; a forged kernel that returns the
    # identity contradicts the closed form gamma^(l-1) = [[1, lam], [0, 1]].
    monkeypatch.setattr(gl2, "_pow_t", lambda x, k, ell: (1, 0, 0, 1))
    message = "shear power disagrees with the closed form"
    with pytest.raises(RuntimeError, match=message):
        classify_semisimplification(borel(M5))


def test_semisimplification_order_self_check_can_fire(monkeypatch):
    # The chain of the projected group <diag(1, 2)> forged to five times
    # its order, which then no longer divides |G| = 4.
    G = closure([Mat2(1, 1, 0, 2, M5)])
    assert G.order == semisimplification(G).order == 4
    chain_of = gl2._stabilizer_chain

    def forged(gens, m):
        chain = chain_of(gens, m)
        if gens != [(1, 0, 0, 2)]:
            return chain
        return dataclasses.replace(chain, order=5 * chain.order)

    monkeypatch.setattr(gl2, "_stabilizer_chain", forged)
    message = "semisimplification order does not divide group order"
    with pytest.raises(RuntimeError, match=message):
        semisimplification(G)


def test_classify_diagonalizer_case():
    G = closure([Mat2(1, 1, 0, 2, M5)])
    result = classify_semisimplification(G)
    assert isinstance(result.witness, DiagonalizerWitness)
    assert result.witness.basis_change == Mat2(1, 1, 0, 1, M5)
    assert not result.contained_in_G
    assert result.cases_matched == ("diagonalizable",)
    assert conjugate(G, result.witness.basis_change).is_diagonal
    assert verify_witness(G, result.witness)


def test_classify_diagonal_group_gets_identity_diagonalizer():
    result = classify_semisimplification(split_cartan(M5))
    assert isinstance(result.witness, DiagonalizerWitness)
    assert result.witness.basis_change == Mat2.identity(M5)
    assert result.Gss == split_cartan(M5)


def test_verify_witness_rejects_bad_witnesses():
    # Identity basis change against a non-diagonal group.
    G = closure([Mat2(1, 1, 0, 2, M5)])
    assert not verify_witness(G, DiagonalizerWitness(Mat2.identity(M5)))
    # Wrong lambda on an otherwise valid gamma.
    gamma = Mat2(2, 1, 0, 2, M5)
    G2 = closure([gamma])
    wrong = TransvectionWitness(gamma, FpUnit(1, M5), 1, Mat2(1, 1, 0, 1, M5))
    assert not verify_witness(G2, wrong)
    # Gamma from another modulus.
    alien = TransvectionWitness(
        Mat2(2, 1, 0, 2, M7), FpUnit(2, M7), 4, Mat2(1, 1, 0, 1, M7)
    )
    assert not verify_witness(G2, alien)


def test_case1_lambda_formula_matches_matrix_power():
    for p in (3, 5, 7, 13):
        m = PrimeModulus(p)
        for a in range(1, p):
            for b in range(1, p):
                gamma = Mat2(a, b, 0, a, m)
                lam = ((p - 1) * b * pow(a, p - 2, p)) % p
                assert gamma ** (p - 1) == Mat2(1, lam, 0, 1, m)
                assert lam != 0


@settings(max_examples=60)
@given(triangular_strategy())
def test_trichotomy_property(G):
    result = classify_semisimplification(G)
    assert verify_witness(G, result.witness)
    if isinstance(result.witness, DiagonalizerWitness):
        assert conjugate(G, result.witness.basis_change).is_diagonal
    else:
        assert result.contained_in_G
        assert result.Gss.is_subgroup_of(G)


@settings(max_examples=40)
@given(triangular_strategy(primes=(3, 5)))
def test_diagonalizable_case_hypotheses(G):
    result = classify_semisimplification(G)
    if result.cases_matched == ("diagonalizable",):
        assert G.is_abelian
        for g in G.elements:
            if not g.is_diagonal:
                assert g.a != g.d


def _lattice_and_sampled_groups():
    """Every Borel subgroup at l <= 11, and sampled lemma31 draws at l = 17, 31."""
    for p in (2, 3, 5, 7, 11):
        yield from enumerate_upper_triangular_subgroups(PrimeModulus(p))
    for p in (17, 31):
        m = PrimeModulus(p)
        for seed in (864, 2024):
            for index in range(15):
                rng = _scenario_rng(seed, "lemma31", p, index)
                yield _sample_triangular_group(rng, m)


def test_classification_matches_the_elementwise_derivation():
    # The witness, containment flag, cases and verifier verdicts read off
    # generators and the chain, against the elementwise derivations of
    # tests/oracle.py on the group's codes. Two more basis changes per
    # group, I and the witness's shear plus one, are judged by the verifier
    # and by the elementwise check alike.
    groups = 0
    for G in _lattice_and_sampled_groups():
        groups += 1
        ell = G.modulus.ell
        gens = G.generator_tuples()
        codes = breadth_first_codes(gens, ell)
        least = least_repeated_eigenvalue_code(codes, ell)
        nonabelian = any(mul(x, y, ell) != mul(y, x, ell) for x in gens for y in gens)
        cases = [
            name
            for name, holds in (
                ("repeated_eigenvalue", least is not None),
                ("noncommutative", nonabelian),
                ("diagonalizable", least is None and not nonabelian),
            )
            if holds
        ]
        result = classify_semisimplification(G)
        assert result.cases_matched == tuple(cases)
        assert verify_witness(G, result.witness)
        if least is not None:
            assert result.witness.gamma.encode() == least
            assert result.contained_in_G == contains_unsheared(codes, ell)
            x = 0
        else:
            x = least_sheared_x(codes, ell) or 0
            assert result.witness.basis_change == Mat2(1, x, 0, 1, G.modulus)
            assert not result.contained_in_G
        for t in (0, x + 1):
            P = Mat2(1, t, 0, 1, G.modulus)
            expected = diagonalizes(P.as_tuple(), codes, ell)
            assert verify_witness(G, DiagonalizerWitness(P)) == expected
    assert groups == 812
