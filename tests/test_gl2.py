import dataclasses
import itertools
import operator
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2orbits import gl2
from gl2orbits.gl2 import (
    ClosureBudgetError,
    Mat2,
    MatrixGroup,
    _diagonal_group_from_hnf,
    _make_group,
    borel,
    closure,
    conjugate,
    kth_power_subgroup,
    nonsplit_cartan,
    scalars,
    split_cartan,
    trivial_group,
    unipotent,
)
from gl2orbits.modarith import PrimeModulus, is_prime
from gl2orbits.semisimplify import semisimplification
from gl2orbits.sweep import (
    SweepConfig,
    _sample_nested_pair,
    _sample_triangular_group,
    _scenario_rng,
    _times_unit_shears,
    enumerate_diagonal_subgroups,
    enumerate_upper_triangular_subgroups,
    sample_scenarios,
)
from oracle import (
    breadth_first_closure,
    breadth_first_codes,
    decode,
    large_group_order,
    mul,
    power,
    power_codes,
)

SMALL_PRIMES = [3, 5, 7, 11, 13]
M5 = PrimeModulus(5)


def random_triangular(rng_data, m):
    a, b, d = rng_data
    ell = m.ell
    return Mat2(1 + a % (ell - 1), b % ell, 0, 1 + d % (ell - 1), m)


def test_mat2_normalizes_and_rejects_singular():
    assert Mat2(6, 5, 0, -1, M5) == Mat2(1, 0, 0, 4, M5)
    with pytest.raises(ValueError):
        Mat2(1, 2, 2, 4, M5)
    with pytest.raises(ValueError):
        Mat2(0, 0, 0, 1, M5)


def test_mat2_algebra():
    x = Mat2(2, 1, 0, 3, M5)
    assert x * x.inverse() == Mat2.identity(M5)
    assert x**0 == Mat2.identity(M5)
    assert x**3 == x * x * x
    assert x**-2 == (x.inverse()) * (x.inverse())
    assert x.det == 1
    assert x.apply(1, 0) == (2, 0)
    assert x.apply(0, 1) == (1, 3)


def test_mat2_arithmetic_matches_the_oracle():
    # Every pair in GL2(3), and seeded random pairs at l = 13 and 199: the
    # product, the inverse and the powers k = -3 .. 5 against the entrywise
    # product and square-and-multiply of tests/oracle.py.
    def invertible(p, entries):
        return [t for t in entries if (t[0] * t[3] - t[1] * t[2]) % p]

    gl2_3 = invertible(3, itertools.product(range(3), repeat=4))
    assert len(gl2_3) == 48
    pairs = [(3, x, y) for x in gl2_3 for y in gl2_3]
    rng = Random(2102)
    for p in (13, 199):
        draws = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(400)]
        units = invertible(p, draws)
        pairs += [(p, x, y) for x, y in zip(units[::2], units[1::2])]
    for p, x, y in pairs:
        m = PrimeModulus(p)
        X = Mat2(*x, m)
        assert (X * Mat2(*y, m)).as_tuple() == mul(x, y, p)
        inv = X.inverse().as_tuple()
        assert mul(x, inv, p) == mul(inv, x, p) == (1, 0, 0, 1)
        for k in range(-3, 6):
            expected = power(x, k, p) if k >= 0 else power(inv, -k, p)
            assert (X**k).as_tuple() == expected


def test_mat2_encoding_is_positional():
    x = Mat2(2, 1, 0, 3, M5)
    assert x.encode() == 2 * 125 + 1 * 25 + 0 * 5 + 3


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 1, M5) * Mat2(1, 0, 0, 1, PrimeModulus(7))
    with pytest.raises(ValueError):
        closure([Mat2(1, 0, 0, 1, M5), Mat2(1, 0, 0, 1, PrimeModulus(7))])


def test_matrix_group_takes_mat2_at_its_edge():
    # MatrixGroup(m, mats) is where Mat2 generators come in: it rejects
    # mixed moduli, holds the reduced tuples, and hands back the caller's
    # own matrices, so the group rebuilt from them is equal.
    m7 = PrimeModulus(7)
    with pytest.raises(ValueError, match="mixed moduli"):
        MatrixGroup(m7, (Mat2(1, 1, 0, 1, m7), Mat2(2, 0, 0, 1, M5)))
    with pytest.raises(ValueError, match="mixed moduli"):
        MatrixGroup(m7, [Mat2(2, 0, 0, 1, M5)])
    gens = (Mat2(9, 1, 0, 3, m7), Mat2(1, -1, 0, 1, m7))
    G = MatrixGroup(m7, iter(gens))
    assert G.generator_tuples() == [(2, 1, 0, 3), (1, 6, 0, 1)]
    assert G.generators == gens and all(map(operator.is_, G.generators, gens))
    assert MatrixGroup(m7, G.generators) == G
    assert closure(gens).generators == gens
    # The tuple list is a copy, and the group cannot be rebound.
    G.generator_tuples().append((1, 0, 0, 1))
    assert G.generator_tuples() == [(2, 1, 0, 3), (1, 6, 0, 1)]
    with pytest.raises(AttributeError):
        G.modulus = M5


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_generators_round_trip_on_tuple_built_groups(p):
    # Groups built inside the library hold only tuples; generators builds
    # their Mat2s once, in order, and the group rebuilt from them is equal.
    m = PrimeModulus(p)
    B = borel(m)
    groups = [
        conjugate(B, Mat2(1, 0, 1, 1, m)),
        semisimplification(B),
        kth_power_subgroup(split_cartan(m), 2),
        *enumerate_diagonal_subgroups(m),
        *enumerate_upper_triangular_subgroups(m),
    ]
    for G in groups:
        assert "generators" not in vars(G)
        tuples = G.generator_tuples()
        mats = G.generators
        assert G.generators is mats
        assert [g.as_tuple() for g in mats] == tuples
        assert all(g.modulus == m for g in mats)
        rebuilt = MatrixGroup(m, mats)
        assert rebuilt == G and rebuilt.generator_tuples() == tuples


def test_benchmark_pinned_names_resolve_on_tuple_held_groups():
    # The benchmark wraps gl2._make_group and gl2._close by name and reads
    # generator_tuples() and elements; a tuple-held group serves both.
    assert callable(gl2._make_group) and callable(gl2._close)
    G = _make_group(M5, [(2, 1, 0, 3)])
    assert G.generator_tuples() == [(2, 1, 0, 3)]
    assert G.elements == frozenset(map(G.decode, G.codes))
    elements = {g.as_tuple() for g in G.elements}
    assert elements == breadth_first_closure([(2, 1, 0, 3)], 5)


def test_closure_examples():
    assert closure([], M5).order == 1
    assert closure([Mat2(1, 1, 0, 1, M5)]).order == 5
    cartan = closure([Mat2(2, 0, 0, 1, M5), Mat2(1, 0, 0, 2, M5)])
    assert cartan.order == 16
    assert cartan == split_cartan(M5)
    with pytest.raises(ValueError):
        closure([])


def test_closure_brute_force_oracle():
    # Closure must equal the set reachable by unrestricted multiplication.
    gens = [Mat2(1, 1, 0, 2, M5), Mat2(2, 0, 0, 2, M5)]
    G = closure(gens)
    reachable = {Mat2.identity(M5)}
    frontier = [Mat2.identity(M5)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (x * g, g * x, x * g.inverse()):
                    if y not in reachable:
                        reachable.add(y)
                        nxt.append(y)
        frontier = nxt
    assert G.elements == frozenset(reachable)


def test_standard_group_orders():
    for p, order in [(3, 12), (5, 80), (13, 1872)]:
        assert borel(PrimeModulus(p)).order == order
    for p, order in [(3, 4), (5, 16), (13, 144)]:
        assert split_cartan(PrimeModulus(p)).order == order
    assert scalars(M5).order == 4
    assert unipotent(M5).order == 5


def test_standard_group_order_formulas_to_31():
    for p in [p for p in range(3, 32) if is_prime(p)]:
        m = PrimeModulus(p)
        assert borel(m).order == p * (p - 1) ** 2
        assert split_cartan(m).order == (p - 1) ** 2
        assert nonsplit_cartan(m).order == p * p - 1
        assert scalars(m).order == p - 1
        assert unipotent(m).order == p


def test_generators_generate():
    for p in (3, 5, 7, 13):
        m = PrimeModulus(p)
        for G in (borel(m), split_cartan(m), nonsplit_cartan(m), scalars(m), unipotent(m)):
            assert closure(G.generators, m) == G


def test_closed_under_product_and_inverse_small():
    for p in (3, 5):
        m = PrimeModulus(p)
        for G in (borel(m), nonsplit_cartan(m)):
            elems = G.elements
            assert all(x.inverse() in elems for x in elems)
            assert all(x * y in elems for x in elems for y in elems)


def test_nonsplit_cartan_examples():
    m = PrimeModulus(5)
    c = nonsplit_cartan(m)
    assert c.order == 24
    # eps = 2 mod 5: every element has the [[a, 2b], [b, a]] shape.
    assert all(x.b == (2 * x.c) % 5 and x.a == x.d for x in c.elements)
    assert nonsplit_cartan(PrimeModulus(3)).order == 8
    c7 = nonsplit_cartan(PrimeModulus(7))
    assert c7.order == 48
    # Cyclic: the stored generator reaches every element.
    gen = c7.generators[0]
    acc, seen = gen, {gen}
    while acc != c7.identity:
        acc = acc * gen
        seen.add(acc)
    assert seen == set(c7.elements)
    with pytest.raises(ValueError):
        nonsplit_cartan(PrimeModulus(2))


def test_scalars_unipotent_intersection_trivial():
    m3 = PrimeModulus(3)
    inter = scalars(m3).elements & unipotent(m3).elements
    assert inter == {Mat2.identity(m3)}


def test_kth_power_subgroup_examples():
    m13 = PrimeModulus(13)
    assert kth_power_subgroup(split_cartan(m13), 12).order == 1
    squares = kth_power_subgroup(split_cartan(M5), 2)
    assert squares.order == 4
    assert squares.elements == frozenset(
        Mat2(a, 0, 0, d, M5) for a in (1, 4) for d in (1, 4)
    )
    cns = nonsplit_cartan(M5)
    assert kth_power_subgroup(cns, 1) == cns


def test_kth_power_subgroup_brute_force():
    for p in (5, 13):
        m = PrimeModulus(p)
        G = split_cartan(m)
        for k in (2, 3, 6, 12):
            expected = frozenset(g**k for g in G.elements)
            got = kth_power_subgroup(G, k)
            assert got.elements == expected
            assert closure(got.generators, m) == got


def test_kth_power_subgroup_rejects_nonabelian():
    with pytest.raises(ValueError):
        kth_power_subgroup(borel(M5), 2)


def test_kth_power_lagrange_and_cyclic_order():
    from gl2orbits.modarith import power_image_order

    cns = nonsplit_cartan(PrimeModulus(7))  # cyclic of order 48
    for k in (1, 2, 3, 4, 6, 12):
        sub = kth_power_subgroup(cns, k)
        assert cns.order % sub.order == 0
        assert sub.order == power_image_order(48, k)


def test_conjugate_examples():
    G = closure([Mat2(1, 1, 0, 2, M5)])
    assert conjugate(G, Mat2.identity(M5)) == G
    P = Mat2(1, 1, 0, 1, M5)
    diag = conjugate(G, P)
    assert diag == closure([Mat2(1, 0, 0, 2, M5)])
    swap = Mat2(0, 1, 1, 0, M5)
    assert conjugate(split_cartan(M5), swap) == split_cartan(M5)


@settings(max_examples=40)
@given(
    st.sampled_from(SMALL_PRIMES),
    st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100)),
    st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100)),
)
def test_conjugation_round_trip(p, gen_data, p_data):
    m = PrimeModulus(p)
    G = closure([random_triangular(gen_data, m)])
    a, b, d = p_data
    P = Mat2(1 + a % (p - 1), b % p, 0, 1 + d % (p - 1), m)
    assert conjugate(conjugate(G, P), P.inverse()) == G
    assert conjugate(G, P).order == G.order


def test_structural_predicates():
    assert borel(M5).is_upper_triangular
    assert not borel(M5).is_diagonal
    m7 = PrimeModulus(7)
    s = scalars(m7)
    assert s.is_upper_triangular and s.is_diagonal and s.is_scalar and s.is_abelian
    cns = nonsplit_cartan(M5)
    assert not cns.is_upper_triangular
    assert cns.is_abelian
    assert not borel(M5).is_abelian


def test_closure_idempotent():
    for p in (3, 5, 7):
        m = PrimeModulus(p)
        G = borel(m)
        assert closure(list(G.elements), m) == G


def test_group_equality_ignores_generators():
    a = closure([Mat2(3, 0, 0, 1, M5), Mat2(1, 0, 0, 3, M5)])
    b = split_cartan(M5)
    assert a == b
    assert hash(a) == hash(b)
    assert a.generators != b.generators


def test_closure_budget_guard(monkeypatch):
    monkeypatch.setattr(gl2, "CLOSURE_BUDGET", 4)
    G = closure([Mat2(1, 1, 0, 1, PrimeModulus(13))])
    with pytest.raises(ClosureBudgetError):
        G.codes
    # A generic ValueError, such as mixed moduli, is not a budget overrun.
    with pytest.raises(ValueError) as excinfo:
        closure([Mat2(1, 1, 0, 1, PrimeModulus(13)), Mat2(1, 1, 0, 1, M5)])
    assert not isinstance(excinfo.value, ClosureBudgetError)


def test_borel_budget(monkeypatch):
    # borel is the group of its generators: it builds at any l, and only
    # reading codes checks the order against CLOSURE_BUDGET.
    monkeypatch.setattr(gl2, "CLOSURE_BUDGET", 80)
    assert len(borel(M5).codes) == 80
    monkeypatch.setattr(gl2, "CLOSURE_BUDGET", 100)
    assert len(borel(M5).codes) == 80
    B7 = borel(PrimeModulus(7))
    assert B7.order == 252
    with pytest.raises(ClosureBudgetError):
        B7.codes
    monkeypatch.undo()
    # 127 * 126^2 = 2,016,252 elements, over the default budget.
    B = borel(PrimeModulus(127))
    assert B.order == 127 * 126**2 > gl2.CLOSURE_BUDGET
    with pytest.raises(ClosureBudgetError):
        B.codes
    assert "codes" not in vars(B)


def test_lagrange_in_gl2():
    for p in (3, 5, 7):
        m = PrimeModulus(p)
        gl2_order = (p * p - 1) * (p * p - p)
        for G in (borel(m), split_cartan(m), nonsplit_cartan(m), unipotent(m)):
            assert gl2_order % G.order == 0


def code5(a, b, c, d):
    return ((a * 5 + b) * 5 + c) * 5 + d


def test_make_group_rejects_singular_and_unreduced_input():
    cartan = split_cartan(M5)
    with pytest.raises(ValueError, match="singular"):
        _make_group(M5, [(1, 2, 2, 4)])
    with pytest.raises(ValueError, match="not reduced"):
        _make_group(M5, [(6, 0, 0, 1)])
    with pytest.raises(ValueError, match="not reduced"):
        _make_group(M5, [(1, 0, 0, -1)])
    assert _make_group(M5, [(2, 0, 0, 1), (1, 0, 0, 2)]) == cartan
    assert _make_group(M5, []) == trivial_group(M5)


def _is_singular(code, ell):
    a, b, c, d = decode(code, ell)
    return (a * d - b * c) % ell == 0


@pytest.mark.parametrize(
    "codes",
    [
        # Triangular sets: a = 0, then d = 0.
        [code5(1, 0, 0, 1), code5(0, 1, 0, 1)],
        [code5(1, 0, 0, 1), code5(1, 1, 0, 0)],
        # Triangular codes and one singular non-triangular code.
        [code5(a, 0, 0, d) for a in range(1, 5) for d in range(1, 5)]
        + [code5(1, 2, 2, 4)],
    ],
)
@pytest.mark.parametrize(
    "generators",
    [[], [(2, 0, 0, 1)], [(0, 1, 1, 0)]],
)
def test_every_code_is_checked_for_singularity(codes, generators):
    # Membership sifts every code through the chain, which rejects a
    # singular code first. GL2(5) has every line in its orbit and all of
    # the Borel as S, so without that test it would take the codes with
    # c = 0 and a zero entry on the diagonal.
    gens = tuple(Mat2(*t, M5) for t in generators)
    whole = closure([Mat2(1, 1, 0, 1, M5), Mat2(1, 0, 1, 1, M5), Mat2(2, 0, 0, 1, M5)])
    assert whole.order == 480
    singular = [code for code in codes if _is_singular(code, 5)]
    assert len(singular) == 1
    for G in (MatrixGroup(M5, gens), whole):
        assert not G.contains_codes(singular)
        assert not G.contains_codes(codes)
        assert "codes" not in vars(G)


def test_borel_constructions_agree():
    for p in (2, 3, 5, 7, 13):
        m = PrimeModulus(p)
        B = borel(m)
        from_cartan = _times_unit_shears(split_cartan(m))
        closed = closure(B.generators, m)
        assert B == from_cartan == closed
        assert hash(B) == hash(from_cartan) == hash(closed)
        assert from_cartan.codes == _breadth_first_codes(from_cartan.generators, p)


def _adjoined_by_union(D):
    """The codes of D·U as the union of l shifted copies of D's codes."""
    ell = D.modulus.ell
    return frozenset().union(
        *[{code + b * ell * ell for code in D.codes} for b in range(ell)]
    )


def test_unipotent_product_membership_is_code_arithmetic():
    # D·U for every diagonal D at l <= 7, against every code below l^4:
    # the chain sifts exactly the union of D's shifted codes.
    for p in (2, 3, 5, 7):
        m = PrimeModulus(p)
        for D in enumerate_diagonal_subgroups(m):
            G = _times_unit_shears(D)
            members = {code for code in range(p**4) if G.contains_codes([code])}
            assert "codes" not in vars(G)
            assert members == _adjoined_by_union(D)
            assert G.contains_codes(G.codes)
            assert not G.contains_codes([*D.codes, p**3 + p + 1])


def test_unipotent_product_matches_breadth_first_and_the_union():
    for p in (2, 3, 5, 7, 13):
        m = PrimeModulus(p)
        for D in enumerate_diagonal_subgroups(m):
            G = _times_unit_shears(D)
            union = _adjoined_by_union(D)
            # Answered from the generators, before any code set is built.
            assert G.order == len(union)
            shear = Mat2(1, 1, 0, 1, m)
            assert G.generators == tuple(dict.fromkeys((*D.generators, shear)))
            assert G.is_upper_triangular and not G.is_diagonal
            assert G.contains_codes(union) and "codes" not in vars(G)
            built = G.codes
            assert built is G.codes
            assert built == union == _breadth_first_codes(G.generators, p)
            assert G.elements == frozenset(map(G.decode, union))


def test_unipotent_product_identity_and_rejections():
    m = PrimeModulus(7)
    D = closure([Mat2(3, 0, 0, 5, m)], m)
    G = _times_unit_shears(D)
    # Equality and hash come from the chain: the same group under other
    # generators is equal, and a group of another order or another set is not.
    same = closure([Mat2(1, 1, 0, 1, m), Mat2(3, 2, 0, 5, m)], m)
    assert G == same and same == G and hash(G) == hash(same)
    assert G != _times_unit_shears(split_cartan(m)) and G != D
    other = conjugate(G, Mat2(0, 1, 1, 0, m))
    assert other.order == G.order and other != G and G != other
    # Generators of another modulus are rejected.
    with pytest.raises(ValueError, match="mixed moduli"):
        MatrixGroup(m, (Mat2(1, 1, 0, 1, M5),))
    # Containment sifts the generators through the containing group's chain.
    assert D.is_subgroup_of(G) and unipotent(m).is_subgroup_of(G)
    assert not split_cartan(m).is_subgroup_of(G)
    assert not nonsplit_cartan(m).is_subgroup_of(G)
    assert not D.is_subgroup_of(_times_unit_shears(split_cartan(PrimeModulus(5))))
    assert "codes" not in vars(G)
    assert G.codes == _adjoined_by_union(D)


def test_codes_are_the_encodings_of_elements():
    m = PrimeModulus(7)
    swap = Mat2(0, 1, 1, 0, m)
    groups = list(enumerate_upper_triangular_subgroups(PrimeModulus(5)))
    cns = nonsplit_cartan(m)
    groups += [cns, conjugate(borel(m), swap), conjugate(cns, swap)]
    for G in groups:
        elems = G.elements
        assert frozenset(G) == elems
        assert {g.encode() for g in elems} == G.codes
        # Ascending codes are ascending element tuples.
        ascending = sorted(elems, key=Mat2.as_tuple)
        assert sorted(G.codes) == [g.encode() for g in ascending]
        assert all(g in G for g in elems)
        # The predicates read off the generators, against the matrices.
        assert G.is_upper_triangular == all(g.is_upper_triangular for g in elems)
        assert G.is_diagonal == all(g.is_diagonal for g in elems)
        assert G.is_scalar == all(g.is_scalar for g in elems)
    assert Mat2(1, 0, 0, 1, PrimeModulus(7)) not in trivial_group(M5)


def test_recorded_triangularity_on_certificate_scenarios():
    # The certificate scenarios of the benchmark's smallest prime.
    cfg = SweepConfig(
        primes=(37,),
        sample_count=2,
        degrees=(1, 2, 3, 6, 12),
        suites=("case1", "case2"),
        seed=864,
    )
    groups = [s.Gp for s in sample_scenarios(cfg, "case1")]
    for kind in ("case1", "case2"):
        groups += [s.G for s in sample_scenarios(cfg, kind)]
    groups += [semisimplification(G) for G in groups]
    # Some scenario is D·U, and every group is held by its generators.
    assert any(not G.is_diagonal for G in groups)
    assert all("codes" not in vars(G) for G in groups)
    for G in groups:
        assert G.is_upper_triangular
        assert all(g.is_upper_triangular for g in G.elements)


def _breadth_first_codes(gens, ell):
    """The oracle: element codes of the tuple breadth-first closure."""
    return breadth_first_codes([g.as_tuple() for g in gens], ell)


def _diagonals(m):
    return [Mat2(a, 0, 0, d, m) for a in range(1, m.ell) for d in range(1, m.ell)]


def test_diagonal_closure_matches_breadth_first_on_all_pairs():
    # Every single diagonal generator and every ordered pair at l <= 7.
    for p in (2, 3, 5, 7):
        m = PrimeModulus(p)
        diagonals = _diagonals(m)
        sets = [[g] for g in diagonals] + [
            list(pair) for pair in itertools.product(diagonals, repeat=2)
        ]
        for gens in sets:
            G = closure(gens, m)
            assert G.codes == _breadth_first_codes(gens, p)
            assert G.generators == tuple(gens)


def test_diagonal_closure_matches_breadth_first_on_random_sets():
    # One to four generators, with repeats and the identity, up to l = 151.
    primes = [p for p in range(2, 152) if is_prime(p)]
    rng = Random(2102)
    for _ in range(200):
        p = rng.choice(primes)
        m = PrimeModulus(p)
        gens = [
            Mat2(rng.randrange(1, p), 0, 0, rng.randrange(1, p), m)
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens) + 1), Mat2.identity(m))
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))
        G = closure(gens, m)
        assert G.codes == _breadth_first_codes(gens, p)
        assert G.generators == tuple(gens)


def test_diagonal_closure_budget_matches_breadth_first(monkeypatch):
    # Reading codes raises at exactly the budgets where the tuple closure
    # does, diagonal sets or not, from the order and before any code is
    # built; closure itself never raises.
    for p, gens in [
        (2, []),
        (3, [(2, 0, 0, 1)]),
        (7, [(3, 0, 0, 1), (1, 0, 0, 3)]),
        (13, [(4, 0, 0, 10), (12, 0, 0, 12)]),
        (31, [(3, 0, 0, 9), (1, 0, 0, 1), (3, 0, 0, 9)]),
        (2, [(0, 1, 1, 0)]),
        (5, [(1, 1, 0, 1), (2, 0, 0, 1)]),
        (7, [(0, 3, 1, 0)]),
        (11, [(1, 1, 0, 1), (1, 0, 1, 1)]),
        (13, [(2, 5, 0, 3), (1, 0, 0, 1), (2, 5, 0, 3)]),
        (31, [(1, 2, 3, 5)]),
    ]:
        m = PrimeModulus(p)
        mats = [Mat2(*t, m) for t in gens]
        order = len(breadth_first_closure(gens, p))
        for budget in sorted({-1, 0, 1, order - 1, order, order + 1}):
            try:
                breadth_first_closure(gens, p, budget)
                expected = False
            except ClosureBudgetError:
                expected = True
            monkeypatch.setattr(gl2, "CLOSURE_BUDGET", budget)
            G = closure(mats, m)
            assert G.order == order
            if expected:
                with pytest.raises(ClosureBudgetError, match=f"budget {budget}$"):
                    G.codes
                assert "codes" not in vars(G)
            else:
                assert G.codes == breadth_first_codes(gens, p)
    # l = 199: the full diagonal group has 198^2 = 39,204 elements.
    m = PrimeModulus(199)
    cartan = split_cartan(m).generators
    monkeypatch.setattr(gl2, "CLOSURE_BUDGET", 39_203)
    with pytest.raises(ClosureBudgetError):
        closure(cartan, m).codes
    monkeypatch.setattr(gl2, "CLOSURE_BUDGET", 39_204)
    assert len(closure(cartan, m).codes) == 39_204


def _random_generator_sets(rng, p, count):
    """One to three generators: arbitrary, upper triangular or diagonal,
    with the identity and repeats mixed in."""
    m = PrimeModulus(p)
    sets = []
    while len(sets) < count:
        shape = rng.choice(["general", "triangular", "diagonal"])
        gens = []
        while len(gens) < rng.randint(1, 3):
            a, b, c, d = (rng.randrange(p) for _ in range(4))
            if shape != "general":
                c = 0
            if shape == "diagonal":
                b = 0
            if (a * d - b * c) % p:
                gens.append((a, b, c, d))
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens) + 1), (1, 0, 0, 1))
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))
        sets.append([Mat2(*t, m) for t in gens])
    return sets


def test_code_closure_matches_breadth_first_on_random_sets(monkeypatch):
    # The code closure against the tuple closure; with the same budget,
    # reading codes raises exactly where the tuple closure overruns it.
    rng = Random(3131)
    budget = 6_000
    monkeypatch.setattr(gl2, "CLOSURE_BUDGET", budget)
    for p in [q for q in range(2, 32) if is_prime(q)]:
        m = PrimeModulus(p)
        for gens in _random_generator_sets(rng, p, 12):
            tuples = [g.as_tuple() for g in gens]
            G = closure(gens, m)
            try:
                expected = breadth_first_codes(tuples, p, budget)
            except ClosureBudgetError:
                with pytest.raises(ClosureBudgetError):
                    G.codes
                continue
            assert G.codes == expected and G.generators == tuple(gens)


def test_one_image_list_builder(monkeypatch):
    # Every code set, a construction's or a closure's, is listed by
    # gl2._close from the group's own chain, once per group: a second read
    # returns the cached set.
    listed = []
    close = gl2._close

    def spy(chain):
        codes = close(chain)
        listed.append((chain, len(codes)))
        return codes

    monkeypatch.setattr(gl2, "_close", spy)
    for p in (2, 3, 5, 7):
        m = PrimeModulus(p)
        groups = [borel(m), split_cartan(m), scalars(m), unipotent(m), trivial_group(m)]
        groups += [closure([Mat2(1, 1, 0, 1, m), Mat2(0, 1, 1, 0, m)], m)]
        if p > 2:
            groups += [nonsplit_cartan(m), conjugate(borel(m), Mat2(0, 1, 1, 0, m))]
        for G in groups:
            del listed[:]
            assert G.codes is G.codes
            assert listed == [(G._chain, G.order)]
    assert _make_group(M5, [(2, 1, 0, 3)]).codes == set(power_codes((2, 1, 0, 3), 4, 5))


ODD_PRIMES_BELOW_200 = [q for q in range(3, 200) if is_prime(q)]


def test_nonsplit_cartan_codes_and_least_generator():
    # The codes are every [[a, b*eps], [b, a]] but zero, and the generator
    # is the least code of order l^2 - 1.
    from gl2orbits.modarith import least_primitive_root

    for p in ODD_PRIMES_BELOW_200:
        m = PrimeModulus(p)
        eps = least_primitive_root(m).value
        n = p * p - 1
        expected = {
            ((a * p + b * eps % p) * p + b) * p + a
            for a in range(p)
            for b in range(p)
            if (a, b) != (0, 0)
        }
        codes = list(gl2._nonsplit_codes(m))
        assert codes == sorted(expected)
        # The first code of order l^2 - 1, tested on the oracle's tuples
        # from the first code on, a = 0 included: the Cartan has exponent
        # n, so x has order n when no x^(n/q), q a prime factor, is 1.
        factors = [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
        least = next(
            code
            for code in codes
            if all(power(decode(code, p), n // q, p) != (1, 0, 0, 1)
                   for q in factors)
        )
        assert gl2._nonsplit_generator(m) == Mat2(*decode(least, p), m)
        if p > 31:
            continue
        # Each a = 0 code squares to a scalar, so none can generate.
        for code in codes[: p - 1]:
            t = decode(code, p)
            assert t[0] == 0
            a, b, c, d = mul(t, t, p)
            assert b == c == 0 and a == d
        cns = nonsplit_cartan(m)
        assert cns.codes == expected
        (gen,) = cns.generators
        for code in codes:
            g = cns.decode(code)
            if len(breadth_first_closure([g.as_tuple()], p)) == n:
                assert gen == g
                break


def test_nonsplit_generator_search_skips_the_a0_codes(monkeypatch):
    # The a = 0 codes square to scalars, so the search never order-tests one.
    tested = []

    def spy(x, k, ell):
        tested.append(x)
        return pow_t(x, k, ell)

    pow_t = gl2._pow_t
    gl2._nonsplit_generator.cache_clear()
    monkeypatch.setattr(gl2, "_pow_t", spy)
    try:
        for p in ODD_PRIMES_BELOW_200:
            gl2._nonsplit_generator(PrimeModulus(p))
    finally:
        gl2._nonsplit_generator.cache_clear()
    assert tested
    assert not [t for t in tested if t[0] == 0]


def _chain_draws(rng, p, count):
    """One to three generators, upper triangular with probability 0.4 and
    arbitrary otherwise, with the identity and repeats mixed in."""
    sets = []
    while len(sets) < count:
        triangular = rng.random() < 0.4
        gens = []
        while len(gens) < rng.randint(1, 3):
            a, b, c, d = (rng.randrange(p) for _ in range(4))
            if triangular:
                c = 0
            if (a * d - b * c) % p:
                gens.append((a, b, c, d))
        if rng.random() < 0.2:
            gens.insert(rng.randrange(len(gens) + 1), (1, 0, 0, 1))
        if rng.random() < 0.2:
            gens.append(rng.choice(gens))
        sets.append(gens)
    return sets


def _hand_picked_draws(p):
    """Sets that random draws rarely hit: commuting diagonalizable pairs,
    repeated-eigenvalue shears, shears over a scalar, two triangular
    matrices with different fixed lines (x0, 1), and transitive groups."""
    draws = [[], [(1, 0, 0, 1)], [(0, 1, 1, 0)], [(1, 1, 0, 1), (1, 0, 1, 1)]]
    for a in range(1, p):
        draws.append([(a, 0, 0, 1), (1, 0, 0, a)])
        draws.append([(a, 1, 0, a)])
        draws.append([(a, a, 0, 1), (a, 0, 0, a)])
        if a != 1:
            # Both fix e1; x0 = b / (d - a) is 1 for one and 0 for the other.
            draws.append([(a, (1 - a) % p, 0, 1), (a, 0, 0, 1)])
    if p > 2:
        draws.append([nonsplit_cartan(PrimeModulus(p)).generators[0].as_tuple()])
    return draws


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_stabilizer_chain_matches_breadth_first_oracle(p):
    # Order and membership from the chain against the tuple closure; at
    # l <= 7 membership is checked on every invertible code. Then the
    # codes listed from the chain against the same closure.
    m = PrimeModulus(p)
    rng = Random(1970 + p)
    invertible = [
        code
        for code in range(p**4)
        if (code // p**3 * (code % p) - code // p**2 % p * (code // p % p)) % p
    ]
    for gens in _chain_draws(rng, p, 120 if p <= 7 else 30) + _hand_picked_draws(p):
        G = MatrixGroup(m, tuple(Mat2(*t, m) for t in gens))
        expected = breadth_first_codes(gens, p)
        assert G.order == len(expected)
        assert G.contains_codes(expected)
        if p <= 7:
            assert {c for c in invertible if G.contains_codes([c])} == expected
        assert "codes" not in vars(G)
        assert G.codes == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_random_elements_lie_in_and_cover_the_group(p):
    # Every draw from the chain is a code of the tuple closure, and 40 * |G|
    # draws reach every element of a group of at most 400.
    m = PrimeModulus(p)
    rng = Random(4004 + p)
    for gens in _chain_draws(rng, p, 120) + _hand_picked_draws(p):
        G = MatrixGroup(m, tuple(Mat2(*t, m) for t in gens))
        expected = breadth_first_codes(gens, p)
        count = 40 * len(expected) if len(expected) <= 400 else 400
        drawn = {G.random_element(rng).encode() for _ in range(count)}
        assert drawn <= expected
        if len(expected) <= 400:
            assert drawn == expected
        assert "codes" not in vars(G)


@pytest.mark.parametrize("p", [151, 199])
def test_stabilizer_chain_order_on_sampled_draws(p):
    # The groups of the sampled lemma31 and lemma33 draws: against the code
    # closure up to 40,000 elements, which every draw that is neither
    # triangular nor all of GL2 stays under (the nonsplit Cartan has at most
    # 39,600), and above that against the order read off the group's
    # structure. Closing every draw up to CLOSURE_BUDGET would mean about
    # 12M codes here.
    m = PrimeModulus(p)
    large = 0
    for seed in (864, 2024):
        for index in range(8):
            groups = [
                _sample_triangular_group(_scenario_rng(seed, "lemma31", p, index), m),
                *_sample_nested_pair(_scenario_rng(seed, "lemma33", p, index), m),
            ]
            for G in groups:
                gens = G.generator_tuples()
                if G.order <= 40_000:
                    assert G.order == len(breadth_first_codes(gens, p))
                else:
                    large += 1
                    assert G.order == large_group_order(gens, p)
    assert large > 10


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_constructions_are_the_groups_of_their_generators(p):
    # Every library construction's codes, listed from its chain, are the
    # tuple closure of its generators; the conjugated Borels move the
    # axis line's orbit off the axis.
    m = PrimeModulus(p)
    n = p - 1
    groups = [
        borel(m),
        split_cartan(m),
        scalars(m),
        unipotent(m),
        trivial_group(m),
        _diagonal_group_from_hnf(m, n, n, 0),
        closure([Mat2(1, 1, 0, 1, m), Mat2(0, 1, 1, 0, m)], m),
    ]
    if p > 2:
        cns = nonsplit_cartan(m)
        groups += [
            cns,
            _diagonal_group_from_hnf(m, 1, n, 0),
            kth_power_subgroup(cns, 2),
            kth_power_subgroup(split_cartan(m), 2),
            conjugate(borel(m), Mat2(0, 1, 1, 0, m)),
            conjugate(borel(m), Mat2(1, 0, 1, 1, m)),
            conjugate(split_cartan(m), Mat2(1, 1, 0, 1, m)),
        ]
    for G in groups:
        assert G.codes == breadth_first_codes(G.generator_tuples(), p)
        assert len(G.codes) == G.order


def test_every_gate_of_the_lister_can_fail():
    # Chains forged with dataclasses.replace list a set that misses a
    # generator or does not number the order, and reading codes raises.
    m = PrimeModulus(7)
    shear = Mat2(1, 1, 0, 1, m)

    def forged(G, **changes):
        F = MatrixGroup(m, G.generators)
        vars(F)["_chain"] = dataclasses.replace(G._chain, **changes)
        return F

    # diag(3, 1) conjugated by the shear fixes e1 and the line (6, 1).
    G = conjugate(closure([Mat2(3, 0, 0, 1, m)]), shear)
    assert G.generator_tuples() == [(3, 2, 0, 1)] and G._chain.shear == 6
    assert len(G.codes) == 6
    with pytest.raises(ValueError, match="generator outside element set"):
        forged(G, shear=0).codes
    with pytest.raises(ValueError, match="42 codes for a group of order 6"):
        forged(G, shear=None).codes
    # A lattice for a smaller D, and a wrong order with the right lattice.
    B = borel(m)
    with pytest.raises(ValueError, match="126 codes for a group of order 252"):
        forged(B, lattice=(2, 1, 0)).codes
    with pytest.raises(ValueError, match="252 codes for a group of order 504"):
        forged(B, order=504).codes
    # A transversal that misses a line, or repeats the coset S.
    W = conjugate(B, Mat2(1, 0, 1, 1, m))
    assert len(W._chain.inverses) == 7 and len(W.codes) == 252
    inverses = dict(W._chain.inverses)
    line, t_inv = inverses.popitem()
    with pytest.raises(ValueError, match="216 codes for a group of order 252"):
        forged(W, inverses=inverses).codes
    with pytest.raises(ValueError, match="216 codes for a group of order 252"):
        forged(W, inverses={**inverses, line: (1, 0, 0, 1)}).codes
