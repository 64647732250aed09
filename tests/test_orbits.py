import dataclasses
import gc
from math import gcd
from random import Random
from weakref import WeakKeyDictionary

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2orbits import orbits, sweep
from gl2orbits.gl2 import (
    Mat2,
    MatrixGroup,
    _discrete_logs,
    _primitive_root_powers,
    borel,
    closure,
    conjugate,
    nonsplit_cartan,
    scalars,
    split_cartan,
    trivial_group,
    unipotent,
)
from gl2orbits.modarith import PrimeModulus, is_prime
from gl2orbits.orbits import (
    ESCAPES_G_ORBIT,
    MISSES_G_ORBIT,
    Vector2,
    coset_orbit_refinement,
    minimal_uniform_constant,
    orbit,
    orbit_decomposition,
    orbit_size_map,
    predict_diagonal_orbits,
    refinement_violation,
    uniform_divisibility_transfer,
)
from gl2orbits.sweep import (
    _sample_diagonal_group,
    _sample_nested_pair,
    _times_unit_shears,
    enumerate_diagonal_subgroups,
    enumerate_upper_triangular_subgroups,
)
from oracle import breadth_first_partition, stabilizer_order
from oracle import refinement_violation as code_refinement_violation

M5 = PrimeModulus(5)
M13 = PrimeModulus(13)


def brute_orbit(G, v):
    """Orbit by applying every group element, independent of the BFS."""
    return {g.apply(v.x, v.y) for g in G.elements}


def e1(m):
    return Vector2(1, 0, m)


def e2(m):
    return Vector2(0, 1, m)


def test_vector_encoding():
    v = Vector2(2, 3, M5)
    assert v.encode() == 3 * 5 + 2
    assert Vector2.decode(17, M5) == v
    assert Vector2(7, -1, M5) == Vector2(2, 4, M5)


def test_orbit_examples():
    assert orbit(split_cartan(M5), e1(M5)).size == 4
    assert orbit(borel(M5), e2(M5)).size == 20
    assert orbit(trivial_group(M5), Vector2(2, 3, M5)).size == 1


def test_orbit_zero_vector_rejected():
    with pytest.raises(ValueError):
        orbit(split_cartan(M5), Vector2(0, 0, M5))


def test_orbit_matches_elementwise_action():
    groups = (
        split_cartan(M5), borel(M5), nonsplit_cartan(M5), unipotent(M5),
        trivial_group(M5),
    )
    for G in groups:
        for v in (e1(M5), e2(M5), Vector2(1, 1, M5), Vector2(2, 3, M5)):
            got = orbit(G, v)
            expected = brute_orbit(G, v)
            assert {(w.x, w.y) for w in got.members} == expected
            assert got.size == len(expected)
            assert got.representative == min(got.members, key=Vector2.encode)

    # Non-triangular groups from one and two generators, some with a = 0:
    # the partition holds the elementwise orbit of every vector.
    for p in (3, 5, 7):
        m = PrimeModulus(p)
        swap = Mat2(0, 1, 1, 0, m)
        rotation = Mat2(0, p - 1, 1, 1, m)  # order 6, a = 0
        generator_sets = [
            [swap],
            [rotation],
            [Mat2(1, 1, 1, 2, m)],
            [Mat2(2, 1, 1, 1, m), swap],
            [Mat2(1, 1, 0, 1, m), Mat2(0, 1, p - 1, 0, m)],
            [Mat2(1, 0, 1, 1, m), rotation],
        ]
        for gens in generator_sets:
            G = closure(gens, m)
            assert not G.is_upper_triangular
            partition = orbits.orbit_partition(G)
            for code in range(1, p * p):
                v = Vector2.decode(code, m)
                members = partition.orbit_codes(*partition.locate(code))
                assert list(members) == sorted(members)
                assert {(c % p, c // p) for c in members} == brute_orbit(G, v)


@pytest.mark.parametrize("p", [31, 151])
def test_trivial_group_partition_matches_elementwise_orbits(p):
    # A group with no non-identity generator walks every line alone with
    # k = l - 1, so every nonzero code is its own orbit; the identity as a
    # generator gives the same walks.
    m = PrimeModulus(p)
    for G in (trivial_group(m), closure([Mat2.identity(m)], m)):
        partition = orbits._orbit_partition(G)
        assert partition.walks == tuple(((line,), p - 1) for line in range(p + 1))
        for code in range(1, p * p):
            members = partition.orbit_codes(*partition.locate(code))
            assert {(c % p, c // p) for c in members} == brute_orbit(
                G, Vector2.decode(code, m)
            )


class Generated:
    """Just a modulus and generators: all that the orbit kernel reads, so
    random generator sets need not be closed into groups."""

    def __init__(self, modulus, gens):
        self.modulus = modulus
        self.gens = list(gens)

    def generator_tuples(self):
        return self.gens


def orbit_lengths(size_counts):
    """The sorted orbit sizes a size view lists, one per orbit."""
    return sorted(size for size, count in size_counts for _ in range(count))


def listed_orbits(partition):
    """Every orbit's codes from the lister, ordered by smallest member; each
    code must be located in the orbit it was listed in."""
    listed = []
    for w, (_, k) in enumerate(partition.walks):
        for j in range(k):
            codes = partition.orbit_codes(w, j)
            assert all(partition.locate(code) == (w, j) for code in codes)
            listed.append(codes)
    return sorted(listed)


def assert_partition_matches_oracle(G):
    """The line kernel's partition of G against the breadth-first oracle's.

    The size view lists at most one entry per line and the oracle's orbit
    lengths, and the lister and ``locate`` give the oracle's orbits.
    Returns the partition and the oracle's orbits.
    """
    partition = orbits._orbit_partition(G)
    ell = G.modulus.ell
    expected = breadth_first_partition(G.generator_tuples(), ell)[0]
    assert len(partition.size_counts) <= ell + 1
    assert orbit_lengths(partition.size_counts) == sorted(map(len, expected))
    assert listed_orbits(partition) == list(expected)
    return partition, expected


def smallest_code_classes(orbit_codes, ell):
    """Sorted orbit sizes on axis 1, on axis 2 and mixed, each orbit by its
    smallest code c = y*l + x: below l on axis 1, a multiple of l on axis 2."""
    classes = ([], [], [])
    for codes in orbit_codes:
        c = codes[0]
        classes[0 if c < ell else 1 if c % ell == 0 else 2].append(len(codes))
    return [sorted(sizes) for sizes in classes]


def random_generator(rng, p, kind):
    """A random invertible 4-tuple: general, triangular, diagonal or scalar."""
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if kind != "general":
            c = 0
        if kind in ("diagonal", "scalar"):
            b = 0
        if kind == "scalar":
            d = a
        if (a * d - b * c) % p:
            return (a, b, c, d)


def random_generator_set(rng, p):
    """One to three random generators, sometimes with the identity or a repeat."""
    kind = rng.choice(["general", "triangular", "diagonal", "scalar", "mixed"])
    kinds = ["general", "triangular", "diagonal", "scalar"]
    gens = [
        random_generator(rng, p, rng.choice(kinds) if kind == "mixed" else kind)
        for _ in range(rng.randint(1, 3))
    ]
    if rng.random() < 0.25:
        gens.insert(rng.randrange(len(gens) + 1), (1, 0, 0, 1))
    if rng.random() < 0.25:
        gens.append(rng.choice(gens))
    return gens


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_line_kernel_matches_oracle_on_the_borel_lattice(p):
    for G in enumerate_upper_triangular_subgroups(PrimeModulus(p)):
        assert_partition_matches_oracle(G)


def test_line_kernel_matches_oracle_on_diagonal_groups_and_products():
    # Every diagonal subgroup at l <= 31, and its product with the shears.
    # lemma32 classifies each orbit of lines by the axis lines it holds; on
    # both groups that is the classification of each orbit by smallest code.
    for p in [q for q in range(2, 32) if is_prime(q)]:
        for D in enumerate_diagonal_subgroups(PrimeModulus(p)):
            for G in (D, _times_unit_shears(D)):
                partition, orbit_codes = assert_partition_matches_oracle(G)
                walk_classes = [
                    orbit_lengths(c) for c in sweep._axis_classes(partition)
                ]
                assert walk_classes == smallest_code_classes(orbit_codes, p)


def test_line_kernel_matches_oracle_on_standard_groups():
    for p in [q for q in range(2, 32) if is_prime(q)]:
        m = PrimeModulus(p)
        groups = [split_cartan(m), scalars(m), unipotent(m), borel(m)]
        if p > 2:
            groups.append(nonsplit_cartan(m))
        for G in groups:
            assert_partition_matches_oracle(G)


def test_line_kernel_matches_oracle_on_random_generator_sets():
    rng = Random(15)
    for p in [q for q in range(2, 32) if is_prime(q)]:
        m = PrimeModulus(p)
        for _ in range(40):
            assert_partition_matches_oracle(Generated(m, random_generator_set(rng, p)))


@pytest.mark.parametrize("p", [151, 199])
def test_line_kernel_matches_oracle_at_large_primes(p):
    rng = Random(p)
    m = PrimeModulus(p)
    D = _sample_diagonal_group(rng, m)
    groups = [D, _times_unit_shears(D), nonsplit_cartan(m)]
    groups += [Generated(m, random_generator_set(rng, p)) for _ in range(3)]
    for G in groups:
        assert_partition_matches_oracle(G)


def test_orbit_size_self_check_can_fire(monkeypatch):
    # The unipotent group mod 5 fixes every axis vector. Its cached axis
    # walk forged to k = 1 puts the four axis vectors in one orbit, whose
    # size 4 does not divide |G| = 5.
    G = unipotent(M5)
    true = orbits.orbit_partition(G)
    assert true.walks == (((0, 1, 2, 3, 4), 4), ((5,), 4))
    forged = dataclasses.replace(true, walks=(true.walks[0], ((5,), 1)))
    monkeypatch.setitem(orbits._PARTITIONS, G, forged)
    with pytest.raises(RuntimeError, match="orbit size does not divide group order"):
        orbit(G, e1(M5))


def test_orbit_decomposition_examples():
    assert sorted(orbit_decomposition(split_cartan(M5)).sizes()) == [4, 4, 16]
    dec = orbit_decomposition(nonsplit_cartan(M5))
    assert dec.sizes() == (24,)
    dec13 = orbit_decomposition(scalars(M13))
    assert len(dec13.orbits) == 14
    assert set(dec13.sizes()) == {12}


def test_orbit_decomposition_partitions():
    for G in (borel(M5), split_cartan(M5), unipotent(M5), trivial_group(M5)):
        dec = orbit_decomposition(G)
        assert sum(dec.sizes()) == 24
        all_members = [v for o in dec.orbits for v in o.members]
        assert len(all_members) == len(set(all_members)) == 24
        reps = [o.representative.encode() for o in dec.orbits]
        assert reps == sorted(reps)


def test_stabilizer_examples():
    assert stabilizer_order(split_cartan(M5).codes, (1, 0), 5) == 4
    assert stabilizer_order(borel(M5).codes, (1, 0), 5) == 20
    assert stabilizer_order(trivial_group(M5).codes, (1, 2), 5) == 1


def test_orbit_stabilizer_identity():
    groups = [
        borel(M5),
        split_cartan(M13),
        nonsplit_cartan(PrimeModulus(7)),
        unipotent(M13),
        closure([Mat2(1, 1, 0, 2, M5)]),
    ]
    for G in groups:
        assert G.order <= 10_000
        for code in range(1, G.modulus.ell ** 2):
            v = Vector2.decode(code, G.modulus)
            fixed = stabilizer_order(G.codes, (v.x, v.y), G.modulus.ell)
            assert orbit(G, v).size * fixed == G.order


def test_predict_diagonal_orbits_examples():
    pred = predict_diagonal_orbits(split_cartan(M13))
    assert (pred.index1, pred.index2) == (1, 1)
    assert (pred.axis1_size, pred.axis2_size) == (12, 12)
    assert pred.mixed_orbit_size == 144 and pred.mixed_count == 1

    pred5 = predict_diagonal_orbits(scalars(M5))
    assert (pred5.index1, pred5.index2) == (1, 1)
    assert (pred5.axis1_size, pred5.axis2_size) == (4, 4)
    assert pred5.mixed_orbit_size == 4 and pred5.mixed_count == 4

    trivial = predict_diagonal_orbits(trivial_group(M5))
    assert (trivial.index1, trivial.index2) == (4, 4)
    assert (trivial.axis1_size, trivial.axis2_size) == (1, 1)
    assert trivial.mixed_orbit_size == 1 and trivial.mixed_count == 16


def test_predict_diagonal_orbits_rejects_non_diagonal():
    with pytest.raises(ValueError):
        predict_diagonal_orbits(borel(M5))


def test_prediction_matches_enumeration_small_primes():
    from gl2orbits.sweep import enumerate_diagonal_subgroups

    for p in (3, 5, 7, 11):
        m = PrimeModulus(p)
        for Gp in enumerate_diagonal_subgroups(m):
            pred = predict_diagonal_orbits(Gp)
            dec = orbit_decomposition(Gp)
            axis1 = [o for o in dec.orbits if o.representative.y == 0]
            axis2 = [o for o in dec.orbits if o.representative.x == 0]
            mixed = [
                o
                for o in dec.orbits
                if o.representative.x != 0 and o.representative.y != 0
            ]
            assert len(axis1) == pred.index1
            assert {o.size for o in axis1} == {pred.axis1_size}
            assert len(axis2) == pred.index2
            assert {o.size for o in axis2} == {pred.axis2_size}
            assert len(mixed) == pred.mixed_count
            assert {o.size for o in mixed} <= {pred.mixed_orbit_size}
            assert pred.mixed_count * pred.mixed_orbit_size == (p - 1) ** 2


def test_mixed_orbits_share_one_size():
    from gl2orbits.sweep import enumerate_diagonal_subgroups

    for p in (5, 7, 13):
        m = PrimeModulus(p)
        for Gp in enumerate_diagonal_subgroups(m):
            sizes = {
                orbit(Gp, Vector2(a, d, m)).size
                for a in range(1, p)
                for d in range(1, p)
            }
            assert len(sizes) == 1


def test_coset_refinement_examples():
    G = split_cartan(M5)
    whole = coset_orbit_refinement(G, G, Vector2(1, 1, M5))
    assert len(whole) == 1 and whole[0].size == 16

    parts = coset_orbit_refinement(G, scalars(M5), Vector2(1, 1, M5))
    assert len(parts) == 4
    assert all(p.size == 4 for p in parts)
    union = set().union(*(p.members for p in parts))
    assert union == set(orbit(G, Vector2(1, 1, M5)).members)

    parts_b = coset_orbit_refinement(borel(M5), unipotent(M5), e2(M5))
    assert all(p.size == 5 for p in parts_b)
    assert sum(p.size for p in parts_b) == 20


def test_coset_refinement_requires_subgroup():
    with pytest.raises(ValueError):
        coset_orbit_refinement(scalars(M5), split_cartan(M5), e1(M5))
    with pytest.raises(ValueError):
        coset_orbit_refinement(split_cartan(M5), scalars(M5), e1(M13))


def test_coset_refinement_can_have_fewer_parts_than_index():
    # The scalars act transitively on the axis orbit, one part despite index 4.
    parts = coset_orbit_refinement(split_cartan(M5), scalars(M5), e1(M5))
    assert len(parts) == 1 and parts[0].size == 4


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.lists(
        st.tuples(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80)),
        min_size=1,
        max_size=2,
    ),
    st.integers(0, 3),
)
def test_coset_refinement_partitions_random_pairs(p, data, h_count):
    m = PrimeModulus(p)
    gens = [
        Mat2(1 + a % (p - 1), b % p, 0, 1 + d % (p - 1), m) for a, b, d in data
    ]
    G = closure(gens, m)
    pool = sorted(G.elements, key=Mat2.encode)
    H = closure(pool[: min(h_count, len(pool))], m)
    for orb in orbit_decomposition(G).orbits:
        parts = coset_orbit_refinement(G, H, orb.representative)
        union = set().union(*(part.members for part in parts))
        assert union == set(orb.members)
        assert sum(part.size for part in parts) == orb.size


def test_transfer_examples():
    up = uniform_divisibility_transfer(4, 1, split_cartan(M5), scalars(M5), "up")
    assert up.hypothesis_holds and up.conclusion_holds

    trivial = uniform_divisibility_transfer(1, 1, split_cartan(M5), scalars(M5), "up")
    assert trivial.hypothesis_holds and trivial.conclusion_holds
    trivial_down = uniform_divisibility_transfer(
        1, 1, split_cartan(M5), scalars(M5), "down"
    )
    assert trivial_down.hypothesis_holds and trivial_down.conclusion_holds

    down = uniform_divisibility_transfer(
        12, 1, split_cartan(M13), trivial_group(M13), "down"
    )
    assert down.index == 144
    assert down.hypothesis_holds and down.conclusion_holds
    assert down.conclusion_constant == 144


def test_transfer_records_counterexamples():
    # M = 8 fails on the size-4 orbits of the scalars mod 5 with c = 1.
    verdict = uniform_divisibility_transfer(8, 1, split_cartan(M5), scalars(M5), "up")
    assert not verdict.hypothesis_holds
    assert verdict.hypothesis_counterexample is not None
    assert verdict.transfer_upheld


def test_transfer_rejects_bad_input():
    with pytest.raises(ValueError):
        uniform_divisibility_transfer(4, 1, scalars(M5), split_cartan(M5), "up")
    with pytest.raises(ValueError):
        uniform_divisibility_transfer(0, 1, split_cartan(M5), scalars(M5), "up")
    with pytest.raises(ValueError):
        uniform_divisibility_transfer(4, 1, split_cartan(M5), scalars(M5), "sideways")


def test_minimal_uniform_constant():
    lengths = orbits._orbit_lengths(orbits.orbit_partition(scalars(M5)).size_counts)
    assert set(lengths) == {4}
    assert minimal_uniform_constant(lengths, 4) == 1
    assert minimal_uniform_constant(lengths, 8) == 2
    assert minimal_uniform_constant(lengths, 3) == 3
    assert minimal_uniform_constant(orbit_size_map(split_cartan(M5)).values(), 8) == 2


def test_orbit_size_map_agrees_with_decomposition():
    for G in (borel(M5), nonsplit_cartan(PrimeModulus(7)), trivial_group(M5)):
        sizes = orbit_size_map(G)
        dec = orbit_decomposition(G)
        for o in dec.orbits:
            for v in o.members:
                assert sizes[v.encode()] == o.size


def test_partition_cached_per_equal_group(monkeypatch):
    calls = []
    uncached = orbits._orbit_partition

    def counting(G):
        calls.append(G.order)
        return uncached(G)

    monkeypatch.setattr(orbits, "_orbit_partition", counting)
    m = PrimeModulus(11)
    gens = [Mat2(2, 3, 0, 7, m), Mat2(10, 0, 0, 10, m)]
    first = closure(gens, m)
    second = conjugate(conjugate(first, Mat2(1, 4, 0, 1, m)), Mat2(1, 7, 0, 1, m))
    assert first == second and first is not second
    orbits._PARTITIONS.pop(first, None)
    partition = orbits.orbit_partition(first)
    assert orbits.orbit_partition(second) is partition
    assert orbits._PARTITIONS[second] is partition
    orbit_size_map(second)
    orbit_decomposition(second)
    coset_orbit_refinement(first, second, e1(m))
    assert len(calls) == 1
    assert partition == uncached(first)

    # The entry goes with the group it was stored under.
    del first, second, partition
    gc.collect()
    assert orbits.orbit_partition(closure(gens, m)) == uncached(closure(gens, m))
    assert len(calls) == 2


def test_repeated_partition_lookup_never_compares_codes(monkeypatch):
    # A cache hit, on the group itself or on an equal group with other
    # generators, must not compare codes element by element; only an equal
    # group's generators are sifted.
    class CountingCodes(frozenset):
        calls = 0

        def __eq__(self, other):
            CountingCodes.calls += 1
            return frozenset.__eq__(self, other)

        __hash__ = frozenset.__hash__

    B = borel(PrimeModulus(67))
    G = MatrixGroup(B.modulus, B.generators)
    object.__setattr__(G, "codes", CountingCodes(B.codes))
    orbits._PARTITIONS.pop(G, None)
    first = orbits.orbit_partition(G)
    sifted = []
    chain_type = type(G._chain)
    sifts = chain_type.sifts

    def recording(chain, code):
        sifted.append(code)
        return sifts(chain, code)

    monkeypatch.setattr(chain_type, "sifts", recording)
    CountingCodes.calls = 0
    for _ in range(3):
        assert orbits.orbit_partition(G) is first
    assert CountingCodes.calls == 0 and sifted == []
    reordered = MatrixGroup(B.modulus, B.generators[::-1])
    assert orbits.orbit_partition(reordered) is first
    assert CountingCodes.calls == 0 and "codes" not in vars(reordered)
    assert len(sifted) <= len(B.generators)


def test_orbit_size_map_is_read_only():
    sizes = orbit_size_map(scalars(M13))
    with pytest.raises(TypeError):
        sizes[1] = 1
    with pytest.raises(TypeError):
        del sizes[1]
    assert set(sizes.values()) == {12}


def test_orbit_readers_leave_the_size_map_unbuilt():
    # lemma32's check, the transfers, lemma33's refinement, the nonsplit
    # check and the API readers all work from the walk: a partition keeps
    # only its size view and line index, at most l + 1 entries each, and
    # the size map is listed anew on each read.
    from gl2orbits import divchain, sweep

    def cached(G):
        orbits._PARTITIONS.pop(G, None)
        orbits.orbit_partition(G)
        return orbits._PARTITIONS[G]

    m7 = PrimeModulus(7)
    Gp = closure([Mat2(2, 0, 0, 3, m7)], m7)
    G, H = borel(M13), split_cartan(M13)
    cns = nonsplit_cartan(m7)
    groups = (Gp, G, H, cns)
    partitions = [cached(X) for X in groups]
    assert sweep._check_diagonal_prediction(Gp) == ("pass", None)
    assert uniform_divisibility_transfer(12, 1, G, H, "up").transfer_upheld
    assert uniform_divisibility_transfer(12, 1, G, H, "down").transfer_upheld
    assert refinement_violation(partitions[1], partitions[2]) is None
    assert divchain.nonsplit_orbit_check(m7)
    assert orbit(G, e2(M13)).size == 156
    assert len(orbit_decomposition(G).orbits) == 2
    assert [o.size for o in coset_orbit_refinement(G, H, e2(M13))] == [12, 144]
    sizes = orbit_size_map(G)
    assert orbit_size_map(G) == sizes and orbit_size_map(G) is not sizes
    expected = breadth_first_partition(G.generator_tuples(), 13)[0]
    assert dict(sizes) == {c: len(o) for o in expected for c in o}
    for X, partition in zip(groups, partitions):
        assert orbits._PARTITIONS[X] is partition
        data = {field.name for field in dataclasses.fields(partition)}
        views = {k: v for k, v in vars(partition).items() if k not in data}
        assert views.keys() <= {"size_counts", "walk_of"}
        assert all(len(view) <= X.modulus.ell + 1 for view in views.values())


def test_corrupted_h_partition_fails_the_refinement(monkeypatch):
    from gl2orbits import sweep

    G, H = split_cartan(M5), scalars(M5)
    true = orbits.orbit_partition(H)
    # The scalars walk every line alone with k = 1. The walks of the axes,
    # line 0 (x = 0) and line 5 (y = 0), joined: the orbit of (1, 0) takes
    # in (0, 1) and meets two G-orbits.
    assert true.walks == tuple(((line,), 1) for line in range(6))
    joined = dataclasses.replace(true, walks=(((0, 5), 1),) + true.walks[1:5])
    monkeypatch.setattr(sweep, "_sample_nested_pair", lambda rng, m: (G, H))
    cfg = sweep.SweepConfig(primes=(5,), sample_count=1, suites=("lemma33",))
    # The axis walk dropped: every H-orbit left lies in one G-orbit, but
    # none holds the axis codes, so the parts no longer cover the plane.
    dropped = dataclasses.replace(true, walks=true.walks[:5])
    for forged, message in ((joined, ESCAPES_G_ORBIT), (dropped, MISSES_G_ORBIT)):
        monkeypatch.setitem(orbits._PARTITIONS, H, forged)
        with pytest.raises(RuntimeError, match=message):
            coset_orbit_refinement(G, H, e1(M5))
        (row,) = sweep.run(cfg).rows
        assert row.status == "fail"
        assert row.failure["scenario"]["note"] == f"refinement violated: {message}"


def test_walk_refinement_matches_oracle_on_sampled_pairs():
    # lemma33's nested pairs, in both orders, against the code-level
    # refinement on the oracle's partitions. A true pair always refines;
    # swapped, G's orbits refine H's only where the two agree.
    rng = Random(33)
    verdicts = {}
    for p in (3, 5, 7, 11, 13, 31):
        m = PrimeModulus(p)
        for _ in range(40):
            G, H = _sample_nested_pair(rng, m)
            for order in ((G, H), (H, G)):
                g_label = breadth_first_partition(order[0].generator_tuples(), p)[1]
                h_orbits = breadth_first_partition(order[1].generator_tuples(), p)[0]
                expected = code_refinement_violation(g_label, h_orbits)
                g, h = map(orbits.orbit_partition, order)
                assert refinement_violation(g, h) == expected
                key = (order[0] is G, expected)
                verdicts[key] = verdicts.get(key, 0) + 1
    assert verdicts.keys() == {(True, None), (False, None), (False, ESCAPES_G_ORBIT)}


def _forge_walks(rng, h, kind):
    """h with one tampering of its walks, or None when h has too few: two
    walks joined with the gcd of their k, one walk's k replaced by another
    divisor of l - 1, one line's offset moved by one, or one line dropped.
    """
    walks = list(h.walks)
    offset = list(h.offset)
    units = h.modulus.ell - 1
    i = rng.randrange(len(walks))
    lines, k = walks[i]
    if kind == "join":
        if len(walks) < 2:
            return None
        j = rng.choice([j for j in range(len(walks)) if j != i])
        other, k_other = walks[j]
        walks[i] = (lines + other, gcd(k, k_other))
        del walks[j]
    elif kind == "rescale":
        others = [d for d in range(1, units + 1) if units % d == 0 and d != k]
        if not others:
            return None
        walks[i] = (lines, rng.choice(others))
    elif kind == "shift":
        line = rng.choice(lines)
        offset[line] = (offset[line] + 1) % units
    else:
        line = rng.choice(lines)
        kept = tuple(x for x in lines if x != line)
        walks[i:i + 1] = [(kept, k)] if kept else []
    return dataclasses.replace(h, walks=tuple(walks), offset=tuple(offset))


def test_walk_refinement_matches_oracle_on_forged_walks():
    # Random nested pairs at l <= 13 from the lemma33 sampler, with H's
    # walks forged by one tampering of each kind. The walk verdict must be
    # the code-level refinement's on the codes the forged walks list.
    rng = Random(21)
    kinds = ("join", "rescale", "shift", "drop")
    seen = set()
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13])
        G, H = _sample_nested_pair(rng, PrimeModulus(p))
        g, h = orbits.orbit_partition(G), orbits.orbit_partition(H)
        g_label = breadth_first_partition(G.generator_tuples(), p)[1]
        for kind in kinds:
            forged = _forge_walks(rng, h, kind)
            if forged is None:
                continue
            verdict = refinement_violation(g, forged)
            listed = orbits._listed_orbits(forged)
            assert verdict == code_refinement_violation(g_label, listed)
            seen.add((kind, verdict))
    # A join, rescale or shift that keeps every H-orbit in one G-orbit is
    # still a refinement; a dropped line never is.
    for kind in ("join", "rescale", "shift"):
        assert {(kind, None), (kind, ESCAPES_G_ORBIT)} <= seen
    assert {verdict for kind, verdict in seen if kind == "drop"} == {MISSES_G_ORBIT}


def test_first_violation_is_the_oracles_first_failing_orbit():
    # The counterexample read off the walks: the smallest member and size
    # of the first orbit, by smallest member, whose size fails the check.
    rng = Random(3)
    cases = 0
    for p in (3, 5, 7, 13):
        m = PrimeModulus(p)
        for _ in range(30):
            G, _ = _sample_nested_pair(rng, m)
            partition = orbits.orbit_partition(G)
            expected_orbits = breadth_first_partition(G.generator_tuples(), p)[0]
            for multiplier in (1, 2, 3, 6):
                for divisor in range(1, 2 * p):
                    expected = next(
                        (
                            (codes[0], len(codes))
                            for codes in expected_orbits
                            if multiplier * len(codes) % divisor
                        ),
                        None,
                    )
                    got = orbits._first_violation(partition, multiplier, divisor)
                    assert got == expected
                    cases += expected is not None
    assert cases > 1000


LINE_KERNEL_MUTATIONS = ("tree_offset", "rotation", "no_schreier", "root_schreier")


def mutant_line_orbits(mutation):
    """``orbits._line_orbits`` with one fault, for monkeypatching; with
    mutation None, a copy of it.

    tree_offset: a line reached by a tree edge takes the edge's own scale,
    dropping its parent's offset. rotation: every line but a walk's root is
    rotated one step too far. no_schreier: every non-tree edge is skipped,
    so k = l - 1. root_schreier: the non-tree edges into the root are
    skipped.
    """
    assert mutation in (None, *LINE_KERNEL_MUTATIONS)

    def line_orbits(gens, m):
        ell = m.ell
        units = ell - 1
        pow_g = _primitive_root_powers(m)
        log = _discrete_logs(m)
        offset = [-1] * (ell + 1)
        walks = []
        for root in range(ell + 1):
            if offset[root] >= 0:
                continue
            offset[root] = 0
            walk = [root]
            k = units
            for line in walk:
                x, y = (line, 1) if line < ell else (1, 0)
                for a, b, c, d in gens:
                    u = (a * x + b * y) % ell
                    v = (c * x + d * y) % ell
                    nxt = u * pow_g[-log[v] % units] % ell if v else ell
                    e = log[v] if v else log[u]
                    if mutation != "tree_offset" or offset[nxt] >= 0:
                        e += offset[line]
                    if offset[nxt] < 0:
                        offset[nxt] = e % units
                        walk.append(nxt)
                    elif mutation == "no_schreier":
                        continue
                    elif mutation == "root_schreier" and nxt == root:
                        continue
                    else:
                        k = gcd(k, e - offset[nxt])
            if mutation == "rotation":
                for line in walk[1:]:
                    offset[line] += 1
            walks.append((tuple(walk), k))
        return tuple(walks), tuple(offset)

    return line_orbits


def test_unmutated_kernel_copy_is_the_kernel():
    # The copy the mutants are made from gives the kernel's walks and offsets.
    rng = Random(4)
    copy = mutant_line_orbits(None)
    for p in (2, 3, 7, 13):
        m = PrimeModulus(p)
        for _ in range(40):
            gens = random_generator_set(rng, p)
            assert copy(gens, m) == orbits._line_orbits(gens, m)


# The sweeps each mutation must turn red. A wrong offset or a missed
# Schreier generator changes some k, so some orbit size, and the exhaustive
# lemma32 lattice at l = 7 fails rows; a missed Schreier generator also
# fails certificates. A rotation off by one moves codes between the orbits
# over a walk but keeps every size, so no reader of sizes alone can see it;
# lemma33's refinement compares the offsets of H's walks with G's, which
# are rotated from other roots, and fails rows.
_LEMMA32_7 = sweep.SweepConfig(primes=(7,), mode="exhaustive", suites=("lemma32",))
_CERTIFICATES = sweep.SweepConfig(
    primes=(5, 7, 13), sample_count=24, degrees=(1, 2, 3, 6, 12),
    suites=("case1", "case2"), seed=864,
)
_LEMMA33_7 = sweep.SweepConfig(
    primes=(7,), sample_count=12, suites=("lemma33",), seed=5
)
MUTATION_SWEEPS = {
    "tree_offset": (_LEMMA32_7,),
    "rotation": (_LEMMA33_7,),
    "no_schreier": (_LEMMA32_7, _CERTIFICATES),
    "root_schreier": (_LEMMA32_7, _CERTIFICATES),
}


@pytest.mark.parametrize("mutation", LINE_KERNEL_MUTATIONS)
def test_line_kernel_mutations_turn_oracle_and_sweeps_red(monkeypatch, mutation):
    for cfg in MUTATION_SWEEPS[mutation]:
        assert sweep.run(cfg).total_failures == 0
    monkeypatch.setattr(orbits, "_line_orbits", mutant_line_orbits(mutation))
    monkeypatch.setattr(orbits, "_PARTITIONS", WeakKeyDictionary())
    groups = [
        G
        for p in (5, 7)
        for D in enumerate_diagonal_subgroups(PrimeModulus(p))
        for G in (D, _times_unit_shears(D))
    ]
    sizes_wrong = codes_wrong = 0
    for G in groups:
        partition = orbits._orbit_partition(G)
        expected = breadth_first_partition(G.generator_tuples(), G.modulus.ell)
        lengths = sorted(map(len, expected[0]))
        sizes_wrong += orbit_lengths(partition.size_counts) != lengths
        listed = [
            tuple(sorted(v.encode() for v in o.members))
            for o in orbit_decomposition(G).orbits
        ]
        codes_wrong += listed != list(expected[0])
    assert codes_wrong > 0
    assert (sizes_wrong > 0) == (mutation != "rotation")
    for cfg in MUTATION_SWEEPS[mutation]:
        assert sweep.run(cfg).total_failures > 0
