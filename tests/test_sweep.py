import dataclasses
import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import weakref
from collections import deque
from pathlib import Path
from random import Random

import pytest

from gl2orbits import cli, divchain, gl2, orbits, sweep
from gl2orbits.divchain import Case1Scenario, Case2Scenario, DegreeParameter
from gl2orbits.gl2 import (
    Mat2,
    MatrixGroup,
    borel,
    closure,
    scalars,
    split_cartan,
    trivial_group,
    unipotent,
)
from gl2orbits.modarith import PrimeModulus, divisors, is_prime
from gl2orbits.orbits import (
    OrbitPartition,
    orbit_decomposition,
    predict_diagonal_orbits,
)
from gl2orbits.sweep import (
    SUITE_NAMES,
    ConfigError,
    SweepConfig,
    _random_triangular_tuple,
    _sample_triangular_group,
    _scenario_rng,
    enumerate_diagonal_subgroups,
    enumerate_upper_triangular_subgroups,
    run,
    sample_scenarios,
)
from oracle import breadth_first_closure, mul

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
    """Every subgroup of the Borel as a set of element-tuple sets.

    Starts from all cyclic subgroups and closes the collection under joins
    with cyclic subgroups; every subgroup is a join of the cyclic subgroups
    of its elements, so the fixpoint is the full lattice.
    """
    ell = m.ell
    identity = (1, 0, 0, 1)
    cyclics = {frozenset([identity]): ()}
    for t in sorted(g.as_tuple() for g in borel(m).elements):
        elems = {identity}
        cur = t
        while cur != identity:
            elems.add(cur)
            cur = mul(cur, t, ell)
        cyclics.setdefault(frozenset(elems), (t,))
    subgroups = dict(cyclics)
    worklist = deque(subgroups.items())
    while worklist:
        elems, gens = worklist.popleft()
        for c_elems, c_gens in cyclics.items():
            if c_elems <= elems:
                continue
            joined_gens = tuple(dict.fromkeys(gens + c_gens))
            joined = frozenset(breadth_first_closure(joined_gens, ell))
            if joined not in subgroups:
                subgroups[joined] = joined_gens
                worklist.append((joined, joined_gens))
    return set(subgroups)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_borel_lattice_matches_join_fixpoint(p):
    # The lattice streams in enumeration order: each subgroup once, in the
    # same order on every enumeration.
    m = PrimeModulus(p)

    def element_sets():
        return [
            frozenset(g.as_tuple() for g in G.elements)
            for G in enumerate_upper_triangular_subgroups(m)
        ]

    enumerated = element_sets()
    assert len(set(enumerated)) == len(enumerated)
    assert set(enumerated) == borel_join_fixpoint(m)
    assert element_sets() == enumerated


@pytest.mark.parametrize("p, count", [(11, 440), (13, 1188), (17, 1414), (31, 7440)])
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


def test_diagonal_lattice_matches_join_fixpoint():
    # Independent oracle: close the cyclic subgroups of the diagonal group
    # under pairwise join, breadth-first (closure() would take the same
    # Hermite-form route as the enumeration).
    for p in (3, 5, 7, 13):
        m = PrimeModulus(p)
        cartan = split_cartan(m)
        cyclics = {
            frozenset(breadth_first_closure([g.as_tuple()], p)) for g in cartan
        }
        subgroups = set(cyclics)
        worklist = list(subgroups)
        while worklist:
            current = worklist.pop()
            for cyc in cyclics:
                if cyc <= current:
                    continue
                joined = frozenset(breadth_first_closure(current | cyc, p))
                if joined not in subgroups:
                    subgroups.add(joined)
                    worklist.append(joined)
        enumerated = {
            frozenset(g.as_tuple() for g in G) for G in enumerate_diagonal_subgroups(m)
        }
        assert enumerated == subgroups


def test_diagonal_lattice_counts():
    # Subgroup counts of (Z/n)^2 for n = 2, 4, 6, 12.
    expected = {3: 5, 5: 15, 7: 30, 13: 90}
    for p, count in expected.items():
        assert len(list(enumerate_diagonal_subgroups(PrimeModulus(p)))) == count


def test_sample_scenarios_deterministic():
    cfg = SweepConfig(primes=(5, 13), sample_count=12, degrees=(1, 6), seed=99)
    for kind in ("case1", "case2"):
        first = [s.G.elements for s in sample_scenarios(cfg, kind)]
        second = [s.G.elements for s in sample_scenarios(cfg, kind)]
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


@pytest.mark.parametrize(
    "kind, ell, scenario, failure",
    [
        (
            "case1",
            5,
            Case1Scenario(borel(M5), trivial_group(M5), DegreeParameter(1)),
            {
                "scenario": {
                    "G": {
                        "ell": 5,
                        "generators": [[1, 0, 0, 2], [1, 1, 0, 1], [2, 0, 0, 1]],
                        "order": 80,
                    },
                    "d": 1,
                    "Gp": {"ell": 5, "generators": [], "order": 1},
                    "failed_checks": ["cartan_index_divides"],
                },
                "vector": None,
                "expected_divisor": None,
                "value": None,
            },
        ),
        (
            "case2",
            13,
            Case2Scenario(scalars(PrimeModulus(13)), DegreeParameter(1)),
            {
                "scenario": {
                    "G": {"ell": 13, "generators": [[2, 0, 0, 2]], "order": 12},
                    "d": 1,
                    "failed_checks": ["determinant_index_divides"],
                },
                "vector": None,
                "expected_divisor": None,
                "value": None,
            },
        ),
    ],
)
def test_invalid_certificate_scenario_row(monkeypatch, kind, ell, scenario, failure):
    # The samplers only build valid scenarios, so a rejected one is planted:
    # the chain's InvalidScenarioError report names the failed checks.
    monkeypatch.setattr(sweep, "_build_scenario", lambda *args: scenario)
    report = run(SweepConfig(primes=(ell,), suites=(kind,), sample_count=1))
    assert [(r.status, r.failure) for r in report.rows] == [("invalid", failure)]


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


def test_serial_run_does_not_load_multiprocessing():
    code = (
        "import sys\n"
        "from gl2orbits.sweep import SweepConfig, run\n"
        "run(SweepConfig(primes=(5,), sample_count=1, suites=('case1',)))\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing loaded'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env()
    )
    assert result.returncode == 0, result.stderr


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


def test_exhaustive_mode_enumerates_the_lattice_at_any_prime():
    # Exhaustive mode is the whole lattice at every prime, whatever the
    # sample count: all 1,414 Borel subgroups at l = 17 and every diagonal
    # subgroup at l = 37.
    def counts(ell, suite):
        cfg = SweepConfig(
            primes=(ell,), mode="exhaustive", sample_count=3, suites=(suite,)
        )
        return [(e["pass"], e["total"]) for e in run(cfg).suites]

    diagonal = len(list(enumerate_diagonal_subgroups(PrimeModulus(37))))
    assert counts(17, "lemma31") == [(1414, 1414)]
    assert counts(37, "lemma32") == [(diagonal, diagonal)]


def _cli_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
        env=_cli_env(),
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["version"]
    assert {e["name"] for e in payload["suites"]} == {"lemma31", "lemma32", "case2"}
    assert "pass=" in result.stderr


@pytest.mark.parametrize(
    "args, expected",
    [
        (["full_verification.py"], "total failures: 0"),
        (["borel_lattice_census.py", "3", "5"], "l = 5: 78 subgroups of the Borel"),
    ],
    ids=["full_verification", "borel_lattice_census"],
)
def test_scripts_exit_zero(args, expected):
    # full_verification.py exits 1 on a failing row and on a stage whose
    # report differs from its recorded digest.
    script = Path(__file__).resolve().parents[1] / "scripts" / args[0]
    result = subprocess.run(
        [sys.executable, str(script), *args[1:]],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout


def test_cli_reports_config_errors(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "gl2orbits.cli", "--primes", "14..16"],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert result.returncode == 2
    assert "configuration error" in result.stderr


def test_cli_unwritable_out_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    # The report file is opened before the sweep runs, so a path in a
    # missing directory exits 2, the configuration-error code, and no
    # suite runs; exit 1 stays the code of a genuine verification failure.
    calls = []
    monkeypatch.setattr(cli, "run", lambda cfg: calls.append(cfg))
    out = tmp_path / "missing" / "report.json"
    args = ["--primes", "3", "--suites", "lemma31", "--samples", "1", "--out", str(out)]
    assert cli.main(args) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("sweep: configuration error: ")
    assert not out.parent.exists()


def test_cli_names_a_listed_non_prime():
    # A comma list is checked for primality by SweepConfig alone.
    result = subprocess.run(
        [sys.executable, "-m", "gl2orbits.cli", "--primes", "3,4"],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert result.returncode == 2
    assert "4 is not prime" in result.stderr


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
            args + ["--out", str(path)] + extra,
            capture_output=True,
            text=True,
            env=_cli_env(),
        )
        assert result.returncode == 0, result.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_full_verification_names_a_stage_whose_digest_differs(capsys, monkeypatch):
    # Each stage's report replaced by a stub whose digest is known: a stage
    # that differs from its recorded digest exits 1 and is named.
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "full_verification.py"
    spec = importlib.util.spec_from_file_location("full_verification", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert len(script.RECORDED_DIGESTS) == 6

    class Stub:
        suites = []
        total_failures = 0

        def json_text(self):
            return "stub\n"

    stub_digest = hashlib.sha256(b"stub\n").hexdigest()
    monkeypatch.setattr(script, "run", lambda cfg: Stub())
    recorded = [stub_digest] * 6
    recorded[2] = script.RECORDED_DIGESTS[2]
    monkeypatch.setattr(script, "RECORDED_DIGESTS", tuple(recorded))

    assert script.main() == 1
    err = capsys.readouterr().err
    assert "stage 3/6 lemma33: report sha256 differs from the recorded" in err
    assert err.count("differs") == 1

    monkeypatch.setattr(script, "RECORDED_DIGESTS", (stub_digest,) * 6)
    assert script.main() == 0
    assert "differs" not in capsys.readouterr().err


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_triangular_closure_order_matches_closure(p):
    m = PrimeModulus(p)
    rng = Random(p)
    draws = [
        [Mat2(*_random_triangular_tuple(rng, p), m) for _ in range(k)]
        for k in rng.choices([1, 2, 3], k=150)
    ]
    # The order of a sampled triangular draw, read off the stabilizer chain,
    # against the tuple closure.
    for gens in draws:
        tuples = [g.as_tuple() for g in gens]
        assert closure(gens, m).order == len(breadth_first_closure(tuples, p))


def test_large_triangular_draw_keeps_its_group():
    # Under sweep seed 2024, the lemma31 draw at l = 151 has three generators
    # whose group has 151 * 7500 = 1,132,500 elements. The sampler keeps
    # that group, its row passes, and no code set is built for it.
    m = PrimeModulus(151)
    rng = _scenario_rng(2024, "lemma31", 151, 0)
    gens = [
        Mat2(*_random_triangular_tuple(rng, 151), m)
        for _ in range(rng.choice([1, 2, 3]))
    ]
    assert len(gens) == 3
    G = _sample_triangular_group(_scenario_rng(2024, "lemma31", 151, 0), m)
    assert G.generators == tuple(gens) and G.order == 1_132_500
    assert sweep._check_triangular_group(G) == sweep.PASS
    assert "codes" not in vars(G)


def test_sweeps_never_build_matrix_sets(monkeypatch):
    # No sweep lists a group's elements, as Mat2 objects or as codes: the
    # exhaustive lattices included, at l = 17 as at l = 2.
    def refuse(self, *args):
        raise AssertionError("a sweep built a group's element set")

    monkeypatch.setattr(MatrixGroup, "elements", property(refuse))
    monkeypatch.setattr(MatrixGroup, "codes", property(refuse))
    monkeypatch.setattr(MatrixGroup, "__iter__", refuse)
    sampled = run(
        SweepConfig(
            primes=(5, 7, 13), sample_count=18, degrees=(1, 2, 3, 6, 12),
            suites=SUITE_NAMES, seed=31,
        )
    )
    exhaustive = run(
        SweepConfig(
            primes=(2, 3, 5, 7, 17), mode="exhaustive", suites=("lemma31", "lemma32")
        )
    )
    assert sampled.total_failures == exhaustive.total_failures == 0
    assert all(entry["total"] > 0 for entry in sampled.suites)


def test_lattice_sweeps_build_mat2_only_for_witnesses(monkeypatch):
    # Groups hold generator tuples, so the exhaustive lattices run on tuple
    # arithmetic. lemma32 builds no Mat2. lemma31 builds only its witnesses'
    # own matrices: the basis change [[1, x0], [0, 1]] of a group without
    # the unit shears U, and the unit shear gamma of a group holding U,
    # which the verifier powers as a tuple. So it builds one Mat2 per
    # group. Sampled lemma33 and nonsplit draw, power and build their
    # groups from tuples, and build none.
    built = []
    post_init = Mat2.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Mat2, "__post_init__", counting)
    lemma32 = run(
        SweepConfig(primes=(3, 5, 7, 11, 13), mode="exhaustive", suites=("lemma32",))
    )
    assert lemma32.total_failures == 0 and built == []
    sampled = run(
        SweepConfig(
            primes=(5, 7, 11, 13, 151, 199),
            sample_count=120,
            suites=("lemma33", "nonsplit"),
            seed=2024,
        )
    )
    assert sampled.total_failures == 0 and built == []
    lemma31 = run(
        SweepConfig(primes=(2, 3, 5, 7), mode="exhaustive", suites=("lemma31",))
    )
    groups = sum(entry["total"] for entry in lemma31.suites)
    assert lemma31.total_failures == 0 and groups == 312
    assert len(built) == groups


def test_certificate_sweep_closes_no_diagonal_set_breadth_first(monkeypatch):
    # The benchmark's certificates round: its samplers, validators and the
    # triangular order bound read generators and chains, and gl2._close,
    # the one code lister, is never called.
    calls = []
    original = gl2._close

    def recording_close(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gl2, "_close", recording_close)
    report = run(
        SweepConfig(
            primes=tuple(p for p in range(37, 68) if is_prime(p)),
            sample_count=16,
            suites=("case1", "case2"),
            seed=864,
            degrees=(1, 2, 3, 6, 12),
        )
    )
    assert sum(entry["pass"] for entry in report.suites) == 32
    assert calls == []


def _lemma32_config(ell):
    return SweepConfig(primes=(ell,), mode="exhaustive", suites=("lemma32",))


def _forged_walks(G, *new):
    """G's partition with the orbits of lines that new's lines meet replaced
    by new, each a (lines, k), as a faulty line walk would give them: walks
    ordered by least line, offsets kept."""
    true = orbits.orbit_partition(G)
    touched = set().union(*(lines for lines, _ in new))
    kept = [walk for walk in true.walks if touched.isdisjoint(walk[0])]
    walks = sorted(kept + list(new), key=lambda walk: min(walk[0]))
    return OrbitPartition(true.modulus, tuple(walks), true.offset)


def _lemma32_notes_with_walks(monkeypatch, G, *new):
    """Notes of the failing exhaustive lemma32 rows at G's prime, with G's
    cached partition's walks forged by new."""
    monkeypatch.setitem(orbits._PARTITIONS, G, _forged_walks(G, *new))
    (entry,) = run(_lemma32_config(G.modulus.ell)).suites
    monkeypatch.undo()
    return [f["scenario"]["note"] for f in entry["failures"]]


def test_lemma32_gates_can_fail(monkeypatch):
    # Each forged line walk of a diagonal group at l = 7 breaks one gate and
    # makes exactly that group's row fail with the matching note. Line 7 is
    # the axis y = 0 (axis 1), line 0 the axis x = 0 (axis 2), and lines
    # 1..6 are mixed; over a walk W with scalar index k lie k orbits of
    # size |W| * 6 / k.
    m = PrimeModulus(7)
    assert run(_lemma32_config(7)).total_failures == 0
    C = split_cartan(m)  # walks: axis 2, mixed lines 1..6, axis 1; all k = 1
    S = scalars(m)  # every line its own walk with k = 1: orbits of size 6
    Q = closure([Mat2(2, 0, 0, 2, m)], m)  # every line alone with k = 2
    assert [k for _, k in orbits.orbit_partition(C).walks] == [1, 1, 1]
    assert [len(w) for w, _ in orbits.orbit_partition(C).walks] == [1, 6, 1]
    assert orbits.orbit_partition(S).size_counts == ((6, 1),) * 8
    assert orbits.orbit_partition(Q).size_counts == ((3, 2),) * 8
    cases = [
        # An axis orbit split in two.
        (C, [((7,), 2)], "axis-1 orbits [3, 3]"),
        (C, [((0,), 2)], "axis-2 orbits [3, 3]"),
        # Two orbits of the right size on one axis: the axis walk takes in
        # the line of (1, 1) and halves its scalars.
        (S, [((1, 7), 2)], "axis-1 orbits [6, 6]"),
        (S, [((0, 1), 2)], "axis-2 orbits [6, 6]"),
        # The right number of axis orbits with the wrong sizes.
        (Q, [((1, 7), 2)], "axis-1 orbits [6, 6]"),
        (Q, [((0, 1), 2)], "axis-2 orbits [6, 6]"),
        # Two mixed lines in one walk: their orbits merge, and re-cut with
        # the wrong sizes.
        (S, [((2, 3), 1)], "mixed orbits [6, 12, 6, 6, 6]"),
        (S, [((2, 3), 3)], "mixed orbits [6, 4, 4, 4, 6, 6, 6]"),
    ]
    for G, new, prefix in cases:
        notes = _lemma32_notes_with_walks(monkeypatch, G, *new)
        assert len(notes) == 1 and notes[0].startswith(prefix + " vs ")
        if prefix.startswith("axis"):
            assert "DiagonalOrbitPrediction(" in notes[0]
        else:
            assert notes[0].endswith(" vs free action of order 6")

    # A line dropped from the mixed walk: the sizes no longer sum to l^2 - 1.
    notes = _lemma32_notes_with_walks(monkeypatch, C, ((1, 2, 3, 4, 5), 1))
    assert notes == ["orbits do not partition the punctured plane"]

    # The mixed lines of C cut into two walks of 2 and 4 lines: the
    # prediction reads no orbit, so it still expects one mixed orbit of size
    # |C| = 36, and the free-action gate fails.
    pred = predict_diagonal_orbits(C)
    cut = (((1, 2), 1), ((3, 4, 5, 6), 1))
    notes = _lemma32_notes_with_walks(monkeypatch, C, *cut)
    assert notes == ["mixed orbits [12, 24] vs free action of order 36"]
    monkeypatch.setitem(orbits._PARTITIONS, C, _forged_walks(C, *cut))
    assert predict_diagonal_orbits(C) == pred
    assert (pred.mixed_orbit_size, pred.mixed_count) == (36, 1)


def test_lemma32_free_action_gate_catches_halved_mixed_orbits(monkeypatch):
    # Every mixed walk's k doubled, so each mixed orbit is cut in half. The
    # axis orbits are untouched, so only the gate that compares mixed orbits
    # with |Gp| can fail. The prediction reads no orbit: it keeps |Gp| and
    # (l - 1)^2 / |Gp|.
    m = PrimeModulus(7)
    for G in (split_cartan(m), scalars(m)):
        ell = G.modulus.ell
        mixed = [
            (lines, k)
            for lines, k in orbits.orbit_partition(G).walks
            if 0 not in lines and ell not in lines
        ]
        forged = _forged_walks(G, *((lines, 2 * k) for lines, k in mixed))
        monkeypatch.setitem(orbits._PARTITIONS, G, forged)
        pred = predict_diagonal_orbits(G)
        assert pred.mixed_orbit_size == G.order
        assert pred.mixed_count == sum(k for _, k in mixed)
        (entry,) = run(_lemma32_config(ell)).suites
        monkeypatch.undo()
        notes = [f["scenario"]["note"] for f in entry["failures"]]
        sizes = [G.order // 2] * (2 * pred.mixed_count)
        assert notes == [f"mixed orbits {sizes} vs free action of order {G.order}"]


def test_lemma33_pair_outside_g_fails_its_row(monkeypatch):
    # The first draw forged to a pair whose H is not a subgroup of G: that
    # row fails with a note, and the rest of the sweep still runs.
    m = PrimeModulus(7)
    cfg = SweepConfig(primes=(7,), sample_count=4, suites=("lemma33",), seed=5)
    assert run(cfg).total_failures == 0
    sample = sweep._sample_nested_pair
    draws = []

    def forged(rng, modulus):
        draws.append(modulus)
        if len(draws) == 1:
            return trivial_group(m), scalars(m)
        return sample(rng, modulus)

    monkeypatch.setattr(sweep, "_sample_nested_pair", forged)
    (entry,) = run(cfg).suites
    assert len(draws) == 4 and (entry["pass"], entry["total"]) == (3, 4)
    (failure,) = entry["failures"]
    assert failure["scenario"]["note"] == "H is not a subgroup of G"
    assert failure["scenario"]["H"]["order"] == 6


def test_report_bytes_pinned():
    # Any change that moves a byte of a report must update these digests
    # on purpose. The second config reaches lemma33's coset refinement and
    # the nonsplit subgroup check above l = 13. The third is the benchmark's
    # certificates round: both chains at l = 37..67. The next two are stages
    # 1 and 2 of scripts/full_verification.py: the exhaustive lemma31 and
    # lemma32 lattices. The next is the benchmark's large_primes round, whose
    # sampled groups include closures of diagonal generator sets. The next is
    # a reduced stage 4 (case1/case2) above the benchmark's l <= 67. The next
    # is a reduced stage 3 (lemma33), whose "general" draws keep groups up to
    # all of GL2(l), held by their generators. The next is a reduced stage 5
    # (inert, nonsplit), l = 2 included. The last puts l = 2 in the
    # certificate suites, whose rows there are invalid.
    pinned = [
        (
            SweepConfig(
                primes=(5, 7, 13),
                suites=("case1", "case2", "lemma31", "lemma33", "nonsplit"),
                seed=864,
                degrees=(1, 2, 3, 6, 12),
            ),
            "725b86b7054db7796dffdf85c7c6730ad30f03cedc0ad4bd747ba25d0c49b2d5",
            "595cf991f75928c3a23caa14bc08ba4e1fce0e43b43510c7d60515bf95d28f79",
        ),
        (
            SweepConfig(
                primes=(61, 97),
                suites=("lemma33", "nonsplit"),
                seed=864,
                sample_count=6,
            ),
            "24d35b53ee74f6b84b020ce05194be9edc088824ed0e3077361a5431fc0d2eba",
            "4ab91c718e243f55df967e62925a79b2957a70387d60c60fa9633b7181ad7151",
        ),
        (
            SweepConfig(
                primes=tuple(p for p in range(37, 68) if is_prime(p)),
                sample_count=16,
                suites=("case1", "case2"),
                seed=864,
                degrees=(1, 2, 3, 6, 12),
            ),
            "e25bfac612c64f5ba72c40072b13249c8822175d05b7e0861c4a90552cb7f11a",
            "8ae30a185d8f4a716ade428928654c9e8441c6ba087a39a15be1ed044b21cdce",
        ),
        (
            SweepConfig(
                primes=(3, 5, 7),
                mode="exhaustive",
                sample_count=1,
                suites=("lemma31",),
                seed=0,
            ),
            "be72657a48dd4c311f0dcf099417414c70fea27d0d05d77a6fdeb2c59362f4bf",
            "97a847204bb6b75b784cd70b92a82650fd8d7c02d1f26faeaca6e556dc69a545",
        ),
        (
            SweepConfig(
                primes=tuple(p for p in range(3, 32) if is_prime(p)),
                mode="exhaustive",
                sample_count=1,
                suites=("lemma32",),
                seed=0,
            ),
            "7931cce00027296512265d2672f22140d5c0703dcb02775889778d6103e0e1cb",
            "89f4e3f070baa2cb632878ee183e80ba0cc9aed54902b732db68753fd2fde378",
        ),
        (
            SweepConfig(
                primes=(151, 199),
                sample_count=2,
                suites=("lemma31", "lemma33", "nonsplit"),
                seed=2024,
            ),
            "1f49fe479209a5550cd288789b6a8d3c59a501536ceb12567f628ba4cbbcab6e",
            "68de581db78b9d315ac4497f6d182d412aef274ac24834c929cb6a335860cb6c",
        ),
        (
            SweepConfig(
                primes=tuple(p for p in range(71, 98) if is_prime(p)),
                sample_count=12,
                suites=("case1", "case2"),
                seed=864,
                degrees=(1, 2, 3, 6, 12),
            ),
            "7bf6faa5250e7e9bc41abf67aa2f5a7072d4652c0efa20b3e7cca2de2230ad9d",
            "af7f047ff9f5f19b8264cd59ba8bb76d4791bb46135746a71ece5a5882ea74f2",
        ),
        (
            SweepConfig(
                primes=tuple(p for p in range(3, 32) if is_prime(p)),
                mode="sampled",
                sample_count=100,
                suites=("lemma33",),
                seed=2024,
            ),
            "1bdda3ec85c3060dbee00062e6536ab978cdd7b8bd75b0c9d473bf2b2dd2ba10",
            "b6e32bbc407e19e303ea71161c904921972be40d9f733ce79f4d8479d6c94ae0",
        ),
        (
            SweepConfig(
                primes=(2, 3, 5, 7, 11, 13, 97, 199),
                sample_count=1,
                suites=("inert", "nonsplit"),
            ),
            "128acbf64e46ea8d639f77ebe2eea93284fafccb4430f3c7f1f56d7ed2c55f47",
            "8e55e9514cfc1304d856280a545bc359db097e854ef1395ddb7019745cad8ee2",
        ),
        (
            SweepConfig(
                primes=(2, 3, 5),
                sample_count=6,
                suites=("case1", "case2"),
                seed=7,
                degrees=(1, 2),
            ),
            "73096cadf805df85d5c000812d678105f07b4e9f500db0bb0aad3bc286df7ba8",
            "7f0943c1ec695025e1322561946c5a85b55d881b00fd87e6548410f0afc5c0ff",
        ),
    ]
    for cfg, json_pin, csv_pin in pinned:
        report = run(cfg)
        assert hashlib.sha256(report.json_text().encode()).hexdigest() == json_pin
        assert hashlib.sha256(report.csv_text().encode()).hexdigest() == csv_pin


def _forge_final_constant(monkeypatch):
    monkeypatch.setattr(divchain, "FINAL_CONSTANT", 1)


def _forge_witness_check(monkeypatch):
    monkeypatch.setattr(sweep, "verify_witness", lambda G, witness: False)


def _forge_diagonal_partitions(monkeypatch):
    # The split Cartan's axis-1 walk with k = 2, which splits that axis
    # orbit in two, and two of the scalars' mixed lines in one walk, which
    # merges their orbits; both leave the orbit of (1, 1) whole.
    m = PrimeModulus(7)
    C, S = split_cartan(m), scalars(m)
    forged = {C: _forged_walks(C, ((7,), 2)), S: _forged_walks(S, ((2, 3), 1))}
    for G, partition in forged.items():
        monkeypatch.setitem(orbits._PARTITIONS, G, partition)


def _forge_trivial_partition(monkeypatch):
    # The trivial group's walks with the axes, lines 0 (x = 0) and 7
    # (y = 0), in one walk of k = 6: its orbit j is {g^j * (1, 0),
    # g^j * (0, 1)}, which escapes the G-orbits of every G that keeps the
    # two axes apart.
    T = trivial_group(PrimeModulus(7))
    monkeypatch.setitem(orbits._PARTITIONS, T, _forged_walks(T, ((0, 7), 6)))


def _forge_transfer_down(monkeypatch):
    transfer = sweep.uniform_divisibility_transfer

    def forged(M, c, G, H, direction):
        verdict = transfer(M, c, G, H, direction)
        if direction == "up":
            return verdict
        bad = orbits.Vector2(1, 1, G.modulus)
        return dataclasses.replace(
            verdict, conclusion_holds=False, conclusion_counterexample=bad
        )

    monkeypatch.setattr(sweep, "uniform_divisibility_transfer", forged)


def _forge_inert_and_nonsplit_checks(monkeypatch):
    monkeypatch.setattr(sweep, "inert_bound_check", lambda *args: False)
    monkeypatch.setattr(sweep, "nonsplit_orbit_check", lambda m: False)


@pytest.mark.parametrize(
    "forge, cfg, json_pin, csv_pin",
    [
        (
            _forge_final_constant,
            SweepConfig(
                primes=(7, 13), sample_count=8, degrees=(1, 2),
                suites=("case1", "case2"), seed=864,
            ),
            "c6ebc91cb68c9c5c9db5de8a33325a6c8fc1c321a564c1fc38b17e8c085b1bac",
            "f2e8bb825596414db6f07250ce0b56d1dcdd95f490095481d174614737719421",
        ),
        (
            _forge_witness_check,
            SweepConfig(
                primes=(3, 17), mode="exhaustive", sample_count=2,
                suites=("lemma31",),
            ),
            "b5b39fb4a2271b2074dbdfed5fb2d756b151aae4084d85d40573b43e6698e458",
            "3f3c176d684fc5172538ff19b94afabd532f9d709fb3830119b9e0279789009f",
        ),
        (
            _forge_diagonal_partitions,
            _lemma32_config(7),
            "93d0b5428e69347212bcf82e7734261a65d7d7661d40f01ff9bccf28472f0bf8",
            "2cc9bd15239404cfd86e308b33043f4ec27e47914b4d5f61ba829eb72d7ad006",
        ),
        (
            _forge_trivial_partition,
            SweepConfig(primes=(7,), sample_count=12, suites=("lemma33",), seed=5),
            "6d712dc3e936479c6e86a3e49f453e8644ec98475a360a0ab0a2795d18db1d6b",
            "6eb15d694a9db7515c7d006026f49ce7fc0208e164dc2b1b5d5f98cdd044c164",
        ),
        (
            _forge_transfer_down,
            SweepConfig(primes=(5, 7), sample_count=4, suites=("lemma33",), seed=3),
            "a113f248bd5fbde294b8b5be87ff6aaf8fd8540b0fa7afe3fc1b918fbdde12e1",
            "08aa58d4ed061380e02ec91712e3070e9b81f1bf8afa210c71973265bfb96c31",
        ),
        (
            _forge_inert_and_nonsplit_checks,
            SweepConfig(primes=(2, 5, 7), suites=("inert", "nonsplit")),
            "7982cf8a86b54f36a8124bf9b4be0ade05bb90cc1604aed65e350b1e510f923a",
            "432d185710a57fc49b41838cff23fd5e39a0119d6afa304def30730fcb46d026",
        ),
    ],
    ids=["certificates", "lemma31", "lemma32", "lemma33-refinement",
         "lemma33-transfer", "inert-nonsplit"],
)
def test_forged_failure_rows_pinned(monkeypatch, forge, cfg, json_pin, csv_pin):
    # Each forgery turns some rows of its suites red. The digests pin their
    # failure records (notes, vectors, expected divisors and values), which
    # the passing pins above never print.
    # monkeypatch holds the forged partitions' keys until the test ends.
    forge(monkeypatch)
    report = run(cfg)
    assert report.total_failures > 0
    assert hashlib.sha256(report.json_text().encode()).hexdigest() == json_pin
    assert hashlib.sha256(report.csv_text().encode()).hexdigest() == csv_pin


def test_certificate_round_builds_no_unipotent_product(monkeypatch):
    # The benchmark's certificates round. Every D·U has order divisible by
    # l; no other group of the certificate path does, so no code set built
    # may have such a size. Every code set is listed by gl2._close.
    built = []
    close = gl2._close

    def recording(chain):
        codes = close(chain)
        built.append((chain.modulus.ell, len(codes)))
        return codes

    monkeypatch.setattr(gl2, "_close", recording)
    cfg = SweepConfig(
        primes=tuple(p for p in range(37, 68) if is_prime(p)),
        sample_count=16,
        suites=("case1", "case2"),
        seed=864,
        degrees=(1, 2, 3, 6, 12),
    )
    report = run(cfg)
    assert report.total_failures == 0
    assert all(e["pass"] == e["total"] for e in report.suites)
    assert not [(ell, order) for ell, order in built if order % ell == 0]
    # The same recorder sees the codes of a D·U built when they are read.
    scenarios = sample_scenarios(cfg, "case1")
    G = next(s.G for s in scenarios if not s.G.is_diagonal)
    assert "codes" not in vars(G)
    G.codes
    assert built[-1] == (G.modulus.ell, G.order)


def test_large_prime_samples_build_no_code_set(monkeypatch):
    # Sampled lemma31 and lemma33 at l >= 131, and the nonsplit check, read
    # generators, the stabilizer chain and line orbits only: every row
    # passes and no group's code set is built, the largest of all GL2(199)
    # (order 1,560,319,200).
    built = []
    close = gl2._close

    def recording(chain):
        built.append(chain)
        return close(chain)

    monkeypatch.setattr(gl2, "_close", recording)
    for seed in (864, 2024):
        cfg = SweepConfig(
            primes=(131, 151, 199),
            sample_count=24,
            suites=("lemma31", "lemma33"),
            seed=seed,
        )
        report = run(cfg)
        assert all(e["pass"] == e["total"] == 8 for e in report.suites)
    # The benchmark's large-primes round.
    cfg = SweepConfig(
        primes=(151, 199),
        sample_count=2,
        suites=("lemma31", "lemma33", "nonsplit"),
        seed=2024,
    )
    report = run(cfg)
    rows = [(e["name"], e["prime"], e["pass"], e["total"]) for e in report.suites]
    assert rows == [
        (suite, p, 1, 1) for suite in cfg.suites for p in cfg.primes
    ]
    assert built == []


def test_size_readers_build_no_code_view(monkeypatch):
    # The benchmark's three rounds (certificates; lattices: exhaustive
    # lemma31 at l <= 7 and lemma32 at l <= 31; large_primes: lemma31,
    # lemma33 and nonsplit at l in {151, 199}) and a lemma33 sweep at l = 7
    # read every partition's walks and size view only: the one lister of
    # vector codes is never called. orbit_decomposition, an API reader,
    # calls it once per orbit.
    listed = []
    lister = OrbitPartition.orbit_codes

    def recording(partition, w, j):
        listed.append(partition.modulus.ell)
        return lister(partition, w, j)

    monkeypatch.setattr(OrbitPartition, "orbit_codes", recording)
    monkeypatch.setattr(orbits, "_PARTITIONS", weakref.WeakKeyDictionary())
    walked = []
    walk = orbits._orbit_partition

    def walking(G):
        walked.append(G)
        return walk(G)

    monkeypatch.setattr(orbits, "_orbit_partition", walking)
    walk_readers = [
        SweepConfig(
            primes=tuple(p for p in range(37, 68) if is_prime(p)),
            sample_count=16,
            suites=("case1", "case2"),
            seed=864,
            degrees=(1, 2, 3, 6, 12),
        ),
        SweepConfig(primes=(3, 5, 7), mode="exhaustive", suites=("lemma31",)),
        SweepConfig(
            primes=tuple(p for p in range(3, 32) if is_prime(p)),
            mode="exhaustive",
            suites=("lemma32",),
        ),
        SweepConfig(
            primes=(151, 199),
            sample_count=2,
            suites=("lemma31", "lemma33", "nonsplit"),
            seed=2024,
        ),
        SweepConfig(primes=(7,), sample_count=12, suites=("lemma33",), seed=5),
    ]
    for cfg in walk_readers:
        report = run(cfg)
        assert report.total_failures == 0 and report.suites
    assert len(walked) > 800 and listed == []
    orbit_decomposition(scalars(PrimeModulus(7)))
    assert listed == [7] * 8


def test_tracer_layer_names_resolve():
    # bench/tracer.py wraps these functions by module and name, and
    # `bench/run.py --trace 1` fails on one that no longer exists.
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = tracer.FUNCTION_LAYERS + tracer.GENERATOR_LAYERS
    assert len(layers) > 20
    missing = [
        (module, name)
        for module, name, _ in layers
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_traced_bench_round_reports_every_layer(tmp_path):
    # One traced lattices round in a fresh process, as `bench/run.py
    # --trace 1` starts it: the wrapped layers still take the library's
    # calls, whatever their signatures, and the JSON line reports every
    # per-layer metric.
    import importlib.util

    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_tracer", bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = tmp_path / "spans.jsonl"
    result = subprocess.run(
        [
            sys.executable,
            str(bench / "sweep_round.py"),
            "--workload",
            "lattices",
            "--round",
            "0",
            "--trace-file",
            str(spans),
        ],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    layers = json.loads(result.stdout.splitlines()[-1])["layers"]
    assert sorted(layers) == sorted(name for name, _ in tracer.PER_LAYER_METRICS)
    assert spans.stat().st_size > 0


def test_benchmark_checks_pass_on_generator_held_groups():
    # bench/run.py's deep check reads G.generator_tuples() and G.elements of
    # every certificate scenario, and the nonsplit Cartan's elements; here
    # at l <= 13, on scenario groups held only by their generators.
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    cfg = SweepConfig(
        primes=(3, 5, 7, 11, 13),
        sample_count=20,
        suites=("case1", "case2"),
        seed=864,
        degrees=(1, 2, 3, 6, 12),
    )
    problems = []
    held = 0
    for kind in cfg.suites:
        for scenario in sample_scenarios(cfg, kind):
            G = scenario.G
            ell = G.modulus.ell
            held += "codes" not in vars(G)
            orbits = checks.orbits_from_generators(G.generator_tuples(), ell)
            e1_orbit = frozenset((g.a, g.c) for g in G.elements)
            problems += checks.certificate_orbit_problems(
                ell, G.order, scenario.degree.d, orbits, e1_orbit
            )
    assert held == 40
    for ell in cfg.primes:
        program = {g.as_tuple() for g in gl2.nonsplit_cartan(PrimeModulus(ell)).elements}
        problems += checks.nonsplit_problems(ell, program)
        if program != checks.nonsplit_cartan_tuples(ell):
            problems.append(f"l={ell}: the program's nonsplit Cartan differs")
    assert problems == []
