import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2orbits.gl2 import (
    ClosureBudgetError,
    Mat2,
    borel,
    closure,
    conjugate,
    kth_power_subgroup,
    nonsplit_cartan,
    scalars,
    split_cartan,
    subgroup_index,
    trivial_group,
    unipotent,
)
from gl2orbits.modarith import PrimeModulus, is_prime

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


def test_mat2_encoding_is_positional():
    x = Mat2(2, 1, 0, 3, M5)
    assert x.encode() == 2 * 125 + 1 * 25 + 0 * 5 + 3


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 1, M5) * Mat2(1, 0, 0, 1, PrimeModulus(7))
    with pytest.raises(ValueError):
        closure([Mat2(1, 0, 0, 1, M5), Mat2(1, 0, 0, 1, PrimeModulus(7))])


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


def test_subgroup_index_examples():
    m13 = PrimeModulus(13)
    assert subgroup_index(split_cartan(m13), split_cartan(m13)) == 1
    assert subgroup_index(split_cartan(m13), scalars(m13)) == 12
    assert subgroup_index(borel(M5), unipotent(M5)) == 16
    with pytest.raises(ValueError):
        subgroup_index(scalars(m13), split_cartan(m13))


def test_subgroup_index_times_order():
    m = PrimeModulus(7)
    B = borel(m)
    for H in (unipotent(m), scalars(m), split_cartan(m), trivial_group(m)):
        assert subgroup_index(B, H) * H.order == B.order


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


def test_closure_budget_guard():
    with pytest.raises(ClosureBudgetError):
        closure([Mat2(1, 1, 0, 1, PrimeModulus(13))], budget=4)
    # A generic ValueError, such as mixed moduli, is not a budget overrun.
    with pytest.raises(ValueError) as excinfo:
        closure([Mat2(1, 1, 0, 1, PrimeModulus(13)), Mat2(1, 1, 0, 1, M5)])
    assert not isinstance(excinfo.value, ClosureBudgetError)


def test_borel_prime_cap():
    with pytest.raises(ValueError):
        borel(PrimeModulus(101))
    assert borel(PrimeModulus(101), cap=101).order == 101 * 100 * 100


def test_lagrange_in_gl2():
    for p in (3, 5, 7):
        m = PrimeModulus(p)
        gl2_order = (p * p - 1) * (p * p - p)
        for G in (borel(m), split_cartan(m), nonsplit_cartan(m), unipotent(m)):
            assert gl2_order % G.order == 0
