import itertools
import json
import subprocess
import sys
from collections import deque

import pytest

from gl2orbits.gl2 import (
    Mat2,
    MatrixGroup,
    _close,
    _mul_t,
    borel,
    closure,
    scalars,
    split_cartan,
    unipotent,
)
from gl2orbits.modarith import PrimeModulus, divisors
from gl2orbits.sweep import (
    ConfigError,
    SweepConfig,
    enumerate_diagonal_subgroups,
    enumerate_upper_triangular_subgroups,
    run,
    sample_scenarios,
)

M3 = PrimeModulus(3)
M5 = PrimeModulus(5)


def brute_force_subgroups(G):
    """All subsets closed under product, inverse, and identity (tiny groups only)."""
    elems = sorted(G.elements, key=Mat2.encode)
    found = set()
    for r in range(len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            s = frozenset(subset)
            if Mat2.identity(G.modulus) not in s:
                continue
            if any(x.inverse() not in s for x in s):
                continue
            if any(x * y not in s for x in s for y in s):
                continue
            found.add(s)
    return found


def borel_join_fixpoint(m):
    """Every subgroup of the Borel as a sorted list of element-tuple sets.

    Starts from all cyclic subgroups and closes the collection under joins
    with cyclic subgroups; every subgroup is a join of the cyclic subgroups
    of its elements, so the fixpoint is the full lattice. Ordered by
    (order, sorted element tuples).
    """
    ell = m.ell
    identity = (1, 0, 0, 1)
    cyclics = {frozenset([identity]): ()}
    for t in sorted(g.as_tuple() for g in borel(m).elements):
        elems = {identity}
        cur = t
        while cur != identity:
            elems.add(cur)
            cur = _mul_t(cur, t, ell)
        cyclics.setdefault(frozenset(elems), (t,))
    subgroups = dict(cyclics)
    worklist = deque(subgroups.items())
    while worklist:
        elems, gens = worklist.popleft()
        for c_elems, c_gens in cyclics.items():
            if c_elems <= elems:
                continue
            joined_gens = tuple(dict.fromkeys(gens + c_gens))
            joined = frozenset(_close(joined_gens, ell, seed=elems | c_elems))
            if joined not in subgroups:
                subgroups[joined] = joined_gens
                worklist.append((joined, joined_gens))
    return sorted(subgroups, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_borel_lattice_matches_join_fixpoint(p):
    m = PrimeModulus(p)
    enumerated = [
        frozenset(g.as_tuple() for g in G.elements)
        for G in enumerate_upper_triangular_subgroups(m)
    ]
    assert enumerated == borel_join_fixpoint(m)


@pytest.mark.parametrize("p, count", [(11, 440), (13, 1188)])
def test_borel_lattice_counts(p, count):
    # S groups D·U, plus tau scalar D and l shear conjugates of every other
    # D, where S counts the diagonal subgroups and tau the divisors of l - 1.
    m = PrimeModulus(p)
    S = len(list(enumerate_diagonal_subgroups(m)))
    tau = len(divisors(p - 1))
    assert S + tau + p * (S - tau) == count
    assert len(list(enumerate_upper_triangular_subgroups(m))) == count


def test_borel_lattice_matches_brute_force_mod_3():
    enumerated = {G.elements for G in enumerate_upper_triangular_subgroups(M3)}
    oracle = brute_force_subgroups(borel(M3))
    assert enumerated == oracle
    assert len(enumerated) == 16


def test_borel_lattice_contains_named_subgroups():
    subs = {G.elements for G in enumerate_upper_triangular_subgroups(M3)}
    for named in (
        closure([], M3),
        unipotent(M3),
        scalars(M3),
        split_cartan(M3),
        borel(M3),
    ):
        assert named.elements in subs


def test_borel_lattice_entries_are_closed_groups():
    for G in enumerate_upper_triangular_subgroups(M5):
        assert isinstance(G, MatrixGroup)
        assert closure(G.generators, M5) == G
        assert all(x.inverse() in G.elements for x in G.elements)


def test_borel_lattice_guard():
    with pytest.raises(ValueError):
        list(enumerate_upper_triangular_subgroups(PrimeModulus(17)))


def test_diagonal_lattice_matches_join_fixpoint():
    # Independent oracle: close the cyclic subgroups of the diagonal group
    # under pairwise join.
    for p in (3, 5, 7, 13):
        m = PrimeModulus(p)
        cartan = split_cartan(m)
        cyclics = {closure([g], m).elements for g in cartan.elements}
        subgroups = set(cyclics)
        worklist = list(subgroups)
        while worklist:
            current = worklist.pop()
            for cyc in cyclics:
                if cyc <= current:
                    continue
                joined = closure(list(current | cyc), m).elements
                if joined not in subgroups:
                    subgroups.add(joined)
                    worklist.append(joined)
        enumerated = {G.elements for G in enumerate_diagonal_subgroups(m)}
        assert enumerated == subgroups


def test_diagonal_lattice_counts():
    # Subgroup counts of (Z/n)^2 for n = 2, 4, 6, 12.
    expected = {3: 5, 5: 15, 7: 30, 13: 90}
    for p, count in expected.items():
        assert len(list(enumerate_diagonal_subgroups(PrimeModulus(p)))) == count


def test_sample_scenarios_deterministic():
    cfg = SweepConfig(primes=(5, 13), sample_count=12, degrees=(1, 6), seed=99)
    for kind in ("case1", "case2"):
        first = [s.G.sorted_elements() for s in sample_scenarios(cfg, kind)]
        second = [s.G.sorted_elements() for s in sample_scenarios(cfg, kind)]
        assert first == second
        assert first


def test_sample_scenarios_case1_valid_by_construction():
    from gl2orbits.divchain import validate_case1

    cfg = SweepConfig(primes=(13,), sample_count=10, degrees=(1,), seed=1)
    scenarios = list(sample_scenarios(cfg, "case1"))
    assert len(scenarios) == 10
    assert all(validate_case1(s).valid for s in scenarios)


def test_sample_scenarios_case2_sixth_power_condition():
    from gl2orbits.semisimplify import semisimplification

    cfg = SweepConfig(primes=(13,), sample_count=8, degrees=(1, 2, 3, 6, 12), seed=2)
    for s in sample_scenarios(cfg, "case2"):
        gss = semisimplification(s.G)
        assert all(pow(g.a, 6, 13) == pow(g.d, 6, 13) for g in gss.elements)


def test_config_normalization_and_errors():
    cfg = SweepConfig(primes=(7, 3, 5, 3), suites=("case1", "lemma31"))
    assert cfg.primes == (3, 5, 7)
    assert cfg.suites == ("lemma31", "case1")
    with pytest.raises(ConfigError):
        SweepConfig(primes=())
    with pytest.raises(ConfigError):
        SweepConfig(primes=(4,))
    with pytest.raises(ConfigError):
        SweepConfig(primes=(211,))
    with pytest.raises(ConfigError):
        SweepConfig(primes=(5,), mode="both")
    with pytest.raises(ConfigError):
        SweepConfig(primes=(5,), sample_count=0)
    with pytest.raises(ConfigError):
        SweepConfig(primes=(5,), degrees=(0,))
    with pytest.raises(ConfigError):
        SweepConfig(primes=(5,), suites=("lemma99",))
    with pytest.raises(ConfigError):
        SweepConfig(primes=(5,), output_format="xml")


def test_run_report_schema_and_counts():
    cfg = SweepConfig(
        primes=(3, 5),
        mode="sampled",
        sample_count=6,
        degrees=(1, 2),
        suites=("lemma31", "case1", "inert"),
        seed=5,
    )
    report = run(cfg)
    payload = json.loads(report.json_text())
    assert set(payload) == {"version", "config", "suites", "elapsed_ms"}
    assert payload["elapsed_ms"] == 0
    assert payload["config"]["seed"] == 5
    assert "parallelism" not in payload["config"]
    for entry in payload["suites"]:
        assert set(entry) == {
            "name",
            "prime",
            "total",
            "pass",
            "fail",
            "invalid",
            "failures",
        }
        assert entry["total"] == entry["pass"] + entry["fail"] + entry["invalid"]
    assert report.total_failures == 0


def test_run_byte_identical_across_parallelism():
    kwargs = dict(
        primes=(3, 5, 7),
        sample_count=9,
        degrees=(1, 6),
        suites=("lemma32", "lemma33", "case1", "case2"),
        seed=123,
    )
    serial = run(SweepConfig(parallelism=1, **kwargs))
    parallel = run(SweepConfig(parallelism=2, **kwargs))
    assert serial.json_text() == parallel.json_text()
    assert serial.csv_text() == parallel.csv_text()


def test_run_same_seed_byte_identical_and_seed_sensitivity():
    kwargs = dict(primes=(5,), sample_count=5, suites=("case1",), degrees=(1,))
    a = run(SweepConfig(seed=11, **kwargs))
    b = run(SweepConfig(seed=11, **kwargs))
    c = run(SweepConfig(seed=12, **kwargs))
    assert a.json_text() == b.json_text()
    assert a.json_text() != c.json_text()


def test_csv_has_one_row_per_scenario():
    cfg = SweepConfig(
        primes=(5,), sample_count=4, suites=("case1", "nonsplit"), seed=3,
        output_format="csv",
    )
    report = run(cfg)
    lines = report.csv_text().strip().splitlines()
    assert lines[0].startswith("suite,prime,scenario_id,status")
    assert len(lines) - 1 == len(report.rows) == 5


def test_exhaustive_mode_falls_back_to_sampling_above_cap():
    cfg = SweepConfig(
        primes=(17,), mode="exhaustive", sample_count=3, suites=("lemma31",), seed=4
    )
    report = run(cfg)
    entry = report.suites[0]
    assert entry["total"] == 3  # sampled allocation, not a lattice enumeration
    assert entry["fail"] == 0


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "gl2orbits.cli",
            "--primes",
            "3..7",
            "--mode",
            "sampled",
            "--samples",
            "6",
            "--suites",
            "lemma31,lemma32,case2",
            "--degrees",
            "1,2",
            "--seed",
            "42",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["version"]
    assert {e["name"] for e in payload["suites"]} == {"lemma31", "lemma32", "case2"}
    assert "pass=" in result.stderr


def test_cli_reports_config_errors(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "gl2orbits.cli", "--primes", "14..16"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "configuration error" in result.stderr


def test_cli_byte_identical_reports(tmp_path):
    args = [
        sys.executable,
        "-m",
        "gl2orbits.cli",
        "--primes",
        "3..13",
        "--samples",
        "8",
        "--suites",
        "lemma33,case1,inert",
        "--seed",
        "17",
    ]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, extra in zip(paths, ([], ["--parallelism", "2"])):
        result = subprocess.run(
            args + ["--out", str(path)] + extra, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()
