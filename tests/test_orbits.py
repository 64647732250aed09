import gc
import itertools
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
    _row_table,
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
    refine_orbit_codes,
    refinement_violation,
    stabilizer_order,
    uniform_divisibility_transfer,
)
from gl2orbits.sweep import (
    _sample_diagonal_group,
    _times_unit_shears,
    enumerate_diagonal_subgroups,
    enumerate_upper_triangular_subgroups,
)
from oracle import CodePartition, breadth_first_partition, partition_of

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
    with pytest.raises(ValueError):
        stabilizer_order(split_cartan(M5), Vector2(5, 10, M5))


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
            assert partition.label[0] == -1
            for code in range(1, p * p):
                v = Vector2.decode(code, m)
                members = partition.orbits[partition.label[code]]
                assert list(members) == sorted(members)
                assert {(c % p, c // p) for c in members} == brute_orbit(G, v)


@pytest.mark.parametrize("p", [31, 151])
def test_trivial_group_partition_matches_elementwise_orbits(p):
    # A group with no non-identity generator skips the walk; the identity
    # as a generator takes the same path.
    m = PrimeModulus(p)
    for G in (trivial_group(m), closure([Mat2.identity(m)], m)):
        partition = orbits._orbit_partition(G)
        assert partition.label[0] == -1
        assert len(partition.orbits) == p * p - 1
        for code in range(1, p * p):
            members = partition.orbits[partition.label[code]]
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


CODE_VIEWS = {"orbits", "label", "sizes"}


def orbit_lengths(size_counts):
    """The sorted orbit sizes a size view lists, one per orbit."""
    return sorted(size for size, count in size_counts for _ in range(count))


def assert_partition_matches_oracle(G):
    """The line kernel's partition of G against the breadth-first oracle's.

    The size view, read first and with no code view built, lists at most
    one entry per line and the oracle's orbit lengths; then the code views
    equal the oracle's (orbits, label). Returns the partition and the
    oracle's orbits.
    """
    partition = orbits._orbit_partition(G)
    ell = G.modulus.ell
    expected = breadth_first_partition(G.generator_tuples(), ell)
    assert len(partition.size_counts) <= ell + 1
    assert orbit_lengths(partition.size_counts) == sorted(map(len, expected[0]))
    assert not CODE_VIEWS & vars(partition).keys()
    assert (partition.orbits, partition.label) == expected
    return partition, expected[0]


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


def test_image_list_matches_apply():
    # The row table of every matrix h of GL2(l), l in {2, 3, 5}, against
    # Mat2.apply: the row (x, y) times h is h's transpose applied to the
    # column (x, y). The builder's d = 0, c = 0 and general runs all occur.
    for p, count in ((2, 6), (3, 48), (5, 480)):
        m = PrimeModulus(p)
        seen = 0
        for a, b, c, d in itertools.product(range(p), repeat=4):
            if (a * d - b * c) % p == 0:
                continue
            transpose = Mat2(a, c, b, d, m)
            table = _row_table((a, b, c, d), p)
            assert len(table) == p * p
            for x in range(p):
                for y in range(p):
                    u, v = transpose.apply(x, y)
                    assert table[x * p + y] == u * p + v
            seen += 1
        assert seen == count


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
    assert stabilizer_order(split_cartan(M5), e1(M5)) == 4
    assert stabilizer_order(borel(M5), e1(M5)) == 20
    assert stabilizer_order(trivial_group(M5), Vector2(1, 2, M5)) == 1


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
            assert orbit(G, v).size * stabilizer_order(G, v) == G.order


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
    lengths = list(map(len, orbits.orbit_partition(scalars(M5)).orbits))
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


def test_orbit_size_map_cached_per_equal_group(monkeypatch):
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
    sizes = orbit_size_map(first)
    assert orbit_size_map(second) is sizes
    assert orbits.orbit_partition(second) is orbits._PARTITIONS[first]
    orbit_decomposition(second)
    coset_orbit_refinement(first, second, e1(m))
    assert len(calls) == 1
    assert dict(sizes) == dict(uncached(first).sizes)

    # The entry goes with the group it was stored under.
    del first, second, sizes
    gc.collect()
    assert orbit_size_map(closure(gens, m)) == uncached(closure(gens, m)).sizes
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
        assert orbit_size_map(G) is first.sizes
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
    # lemma32's check, the transfers and the nonsplit check read the size
    # view of each partition and build none of its code views.
    from gl2orbits import divchain, sweep

    def cached(G):
        orbits._PARTITIONS.pop(G, None)
        orbits.orbit_partition(G)
        return orbits._PARTITIONS[G]

    m7 = PrimeModulus(7)
    Gp = closure([Mat2(2, 0, 0, 3, m7)], m7)
    G, H = borel(M13), split_cartan(M13)
    cns = nonsplit_cartan(m7)
    partitions = [cached(X) for X in (Gp, G, H, cns)]
    assert sweep._check_diagonal_prediction(Gp) == ("pass", None)
    assert uniform_divisibility_transfer(12, 1, G, H, "up").transfer_upheld
    assert uniform_divisibility_transfer(12, 1, G, H, "down").transfer_upheld
    assert divchain.nonsplit_orbit_check(m7)
    for X, partition in zip((Gp, G, H, cns), partitions):
        assert orbits._PARTITIONS[X] is partition
    assert not any(CODE_VIEWS & vars(p).keys() for p in partitions)

    # The first read derives the map once; later reads return it.
    sizes = orbit_size_map(G)
    assert CODE_VIEWS - {"label"} <= vars(partitions[1]).keys()
    assert orbit_size_map(G) is sizes
    assert dict(sizes) == {c: len(o) for o in partitions[1].orbits for c in o}


def test_corrupted_h_partition_fails_the_refinement(monkeypatch):
    from gl2orbits import sweep

    G, H = split_cartan(M5), scalars(M5)
    true = orbits.orbit_partition(H)
    # Merge H's orbits on the two axes, (1, 0) and (0, 1): the merged
    # orbit meets two G-orbits.
    assert true.orbits[0] == (1, 2, 3, 4) and true.orbits[1] == (5, 10, 15, 20)
    bad_orbits = (true.orbits[0] + true.orbits[1],) + true.orbits[2:]
    orbits._PARTITIONS[H] = partition_of(bad_orbits, 5)
    try:
        with pytest.raises(RuntimeError, match="H-orbit escapes the G-orbit"):
            coset_orbit_refinement(G, H, e1(M5))
        monkeypatch.setattr(sweep, "_sample_nested_pair", lambda rng, m: (G, H))
        report = sweep.run(
            sweep.SweepConfig(primes=(5,), sample_count=1, suites=("lemma33",))
        )
    finally:
        del orbits._PARTITIONS[H]
    (row,) = report.rows
    assert row.status == "fail"
    assert row.failure["scenario"]["note"] == (
        "refinement violated: H-orbit escapes the G-orbit"
    )

    # An H-orbit that lost a member still lies in the G-orbit, but the
    # parts no longer cover it.
    orbits._PARTITIONS[H] = CodePartition(((1, 2, 3),) + true.orbits[1:], true.label)
    try:
        with pytest.raises(RuntimeError, match="do not partition the G-orbit"):
            coset_orbit_refinement(G, H, e1(M5))
        report = sweep.run(
            sweep.SweepConfig(primes=(5,), sample_count=1, suites=("lemma33",))
        )
    finally:
        del orbits._PARTITIONS[H]
    (row,) = report.rows
    assert row.status == "fail"
    assert row.failure["scenario"]["note"] == (
        "refinement violated: H-orbits do not partition the G-orbit"
    )


def _per_orbit_verdict(g, h):
    """The message refine_orbit_codes raises first over G's orbits, or None."""
    try:
        for index in range(len(g.orbits)):
            refine_orbit_codes(g, index, h)
    except RuntimeError as exc:
        return str(exc)
    return None


def _forge(rng, h, kinds):
    """h with each tampering of kinds applied in turn: two orbits merged, a
    code dropped from its orbit, or a code moved to another orbit.

    Every member is labeled with its orbit. A dropped code keeps the label
    of the orbit it left while that orbit lasts, else takes a random one.
    """
    parts = [list(p) for p in h.orbits]
    dropped = []
    for kind in kinds:
        if len(parts) < 2:
            break
        i, j = rng.sample(range(len(parts)), 2)
        if kind == "merge":
            parts[i].extend(parts[j])
            del parts[j]
        elif kind == "drop":
            dropped.append((parts[i].pop(rng.randrange(len(parts[i]))), parts[i]))
        else:
            parts[j].append(parts[i].pop(rng.randrange(len(parts[i]))))
        parts = [p for p in parts if p]
    label = [-1] * len(h.label)
    for index, codes in enumerate(parts):
        for code in codes:
            label[code] = index
    for code, left in dropped:
        kept = [index for index, p in enumerate(parts) if p is left]
        label[code] = kept[0] if kept else rng.randrange(len(parts))
    return CodePartition(tuple(tuple(sorted(p)) for p in parts), tuple(label))


def test_emptied_h_orbit_escapes_in_both_checks():
    # H trivial at l = 5 with (1, 0) dropped from its singleton orbit: the
    # orbit is left empty while the code still points to it, and both
    # checks report an escape.
    g = orbits.orbit_partition(scalars(M5))
    h = CodePartition(((),) + tuple((c,) for c in range(2, 25)), tuple(range(-1, 24)))
    assert refinement_violation(g, h) == ESCAPES_G_ORBIT
    assert _per_orbit_verdict(g, h) == ESCAPES_G_ORBIT


def test_one_pass_refinement_matches_per_orbit_loop_on_forgeries():
    # Random nested pairs at l <= 13 from the lemma33 sampler. Each H
    # partition is forged by one tampering of each kind, and both checks
    # must agree, message and all. After two tamperings in a row only the
    # verdict must agree: an escape and a miss can then fall in different
    # G-orbits, and the loop reports whichever orbit comes first.
    from random import Random

    from gl2orbits.sweep import _sample_nested_pair

    rng = Random(33)
    kinds = ("merge", "drop", "move")
    verdicts = set()
    for trial in range(300):
        m = PrimeModulus(rng.choice([3, 5, 7, 11, 13]))
        G, H = _sample_nested_pair(rng, m)
        g, h = orbits.orbit_partition(G), orbits.orbit_partition(H)
        assert refinement_violation(g, h) is None
        if len(h.orbits) < 2:
            continue
        for tampering in [(kind,) for kind in kinds] + [
            tuple(rng.choices(kinds, k=2)) for _ in range(3)
        ]:
            forged = _forge(rng, h, tampering)
            verdict = refinement_violation(g, forged)
            expected = _per_orbit_verdict(g, forged)
            if len(tampering) == 1:
                assert verdict == expected
            else:
                assert (verdict is None) == (expected is None)
            verdicts.add((tampering, verdict))
    single = {(t[0], v) for t, v in verdicts if len(t) == 1}
    # A merge or a move inside one G-orbit is still a refinement; a dropped
    # code never is.
    assert {kind for kind, verdict in single if verdict is None} == {"merge", "move"}
    assert ("merge", ESCAPES_G_ORBIT) in single
    assert ("move", ESCAPES_G_ORBIT) in single
    assert ("drop", MISSES_G_ORBIT) in single


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
# lemma33's refinement reads codes and fails rows.
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
        codes_wrong += (partition.orbits, partition.label) != expected
    assert codes_wrong > 0
    assert (sizes_wrong > 0) == (mutation != "rotation")
    for cfg in MUTATION_SWEEPS[mutation]:
        assert sweep.run(cfg).total_failures > 0
