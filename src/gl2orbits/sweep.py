"""Sweep engine: enumerate or sample subgroup scenarios and verify the suites.

Seven suites are runnable: lemma31 (semisimplification trichotomy over
upper-triangular subgroups), lemma32 (exact orbit structure of diagonal
subgroups), lemma33 (coset refinement and divisibility transfer for nested
pairs), case1 and case2 (the two divisibility-chain certificates with
final constant 864), inert (the l + 1 divides 12wf exclusion), and
nonsplit (transitivity of the nonsplit Cartan and its subgroups).

Every suite follows one protocol. At each prime, ``_scenarios`` streams
its (scenario id, scenario) pairs in scenario-id order: in exhaustive
mode the whole subgroup lattice for lemma31 and lemma32, at every prime
and in the lattice's own enumeration order, the (w, f) grid for inert,
the prime itself for nonsplit, and otherwise seeded draws, each from the
random stream that ``_scenario_rng`` derives from (seed, suite, prime,
index) alone. The suite's check turns one scenario into its row's status
and failure record, and ``_run_task``, the only place that builds a
``ScenarioRow``, makes the rows of one (suite, prime) task. The stream
yields None where the suite has no scenario: at l = 2 for the suites that
need an odd prime, and for a certificate draw that no degree suits; that
row is invalid. Tasks run in report order, suites canonical and primes
ascending, so ``run`` builds each suite entry from its own task's rows,
and reports are byte-identical for a fixed config and seed regardless of
the parallelism degree.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from math import gcd
from random import Random
from typing import Callable, Iterable, Iterator

from . import __version__
from .divchain import (
    Case1Scenario,
    Case2Scenario,
    DegreeParameter,
    InvalidScenarioError,
    _det_image_order,
    admissible_rho_orders,
    inert_bound_check,
    nonsplit_orbit_check,
    verify_case1_chain,
    verify_case2_chain,
)
from .gl2 import (
    MatrixGroup,
    MatTuple,
    _diagonal_group_from_hnf,
    _nonsplit_generator,
    _primitive_root_powers,
    _tuple_group,
    closure,
    trivial_group,
)
from .modarith import PrimeModulus, divisors, is_prime
from .orbits import (
    OrbitPartition,
    _orbit_lengths,
    minimal_uniform_constant,
    orbit_partition,
    predict_diagonal_orbits,
    refinement_violation,
    uniform_divisibility_transfer,
)
from .semisimplify import (
    DiagonalizerWitness,
    classify_semisimplification,
    verify_witness,
)

SUITE_NAMES = ("lemma31", "lemma32", "lemma33", "case1", "case2", "inert", "nonsplit")
REPORT_VERSION = __version__

INERT_F_MAX = 10
MAX_SWEEP_PRIME = 199


class ConfigError(ValueError):
    """Invalid sweep configuration; maps to exit code 2 in the CLI."""


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one sweep run.

    primes, degrees, and suites are normalized to sorted unique tuples at
    construction (suites in canonical order). parallelism and
    include_timing are execution details excluded from the report's config
    echo so that equal (config, seed) pairs reproduce equal bytes.
    """

    primes: tuple[int, ...]
    mode: str = "sampled"
    sample_count: int = 100
    degrees: tuple[int, ...] = (1,)
    suites: tuple[str, ...] = SUITE_NAMES
    seed: int = 0
    parallelism: int = 1
    output_format: str = "json"
    include_timing: bool = False

    def __post_init__(self) -> None:
        primes = tuple(sorted(set(self.primes)))
        if not primes:
            raise ConfigError("no primes selected")
        for p in primes:
            if not is_prime(p):
                raise ConfigError(f"{p} is not prime")
            if p > MAX_SWEEP_PRIME:
                raise ConfigError(f"prime {p} exceeds the sweep cap {MAX_SWEEP_PRIME}")
        object.__setattr__(self, "primes", primes)
        if self.mode not in ("exhaustive", "sampled"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.sample_count < 1:
            raise ConfigError("sample_count must be positive")
        degrees = tuple(sorted(set(self.degrees)))
        if not degrees or any(d < 1 for d in degrees):
            raise ConfigError("degrees must be positive integers")
        object.__setattr__(self, "degrees", degrees)
        wanted = set(self.suites)
        unknown = wanted - set(SUITE_NAMES)
        if unknown:
            raise ConfigError(f"unknown suites: {sorted(unknown)}")
        if not wanted:
            raise ConfigError("no suites selected")
        object.__setattr__(
            self, "suites", tuple(s for s in SUITE_NAMES if s in wanted)
        )
        if self.parallelism < 1:
            raise ConfigError("parallelism must be positive")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")

    def config_echo(self) -> dict:
        return {
            "primes": list(self.primes),
            "mode": self.mode,
            "sample_count": self.sample_count,
            "degrees": list(self.degrees),
            "suites": list(self.suites),
            "seed": self.seed,
            "output_format": self.output_format,
        }


@dataclass(frozen=True)
class ScenarioRow:
    suite: str
    prime: int
    scenario_id: str
    status: str  # "pass" | "fail" | "invalid"
    failure: dict | None = None


@dataclass
class SweepReport:
    """Aggregated sweep outcome plus the per-scenario rows behind it."""

    version: str
    config: dict
    suites: list[dict]
    rows: list[ScenarioRow] = field(repr=False)
    elapsed_ms: int = 0

    @property
    def total_failures(self) -> int:
        return sum(entry["fail"] for entry in self.suites)

    def json_text(self) -> str:
        payload = {
            "version": self.version,
            "config": self.config,
            "suites": self.suites,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "suite",
                "prime",
                "scenario_id",
                "status",
                "expected_divisor",
                "value",
                "vector",
                "scenario",
            ]
        )
        for row in self.rows:
            failure = row.failure or {}
            writer.writerow(
                [
                    row.suite,
                    row.prime,
                    row.scenario_id,
                    row.status,
                    failure.get("expected_divisor", ""),
                    failure.get("value", ""),
                    json.dumps(failure.get("vector"), sort_keys=True)
                    if failure.get("vector") is not None
                    else "",
                    json.dumps(failure.get("scenario"), sort_keys=True)
                    if failure.get("scenario") is not None
                    else "",
                ]
            )
        return buf.getvalue()

    def text(self) -> str:
        return self.json_text() if self.config["output_format"] == "json" else self.csv_text()


def _scenario_rng(seed: int, suite: str, ell: int, index: int) -> Random:
    """The random stream of one scenario, from (seed, suite, prime, index) alone."""
    data = f"{seed}|{suite}|{ell}|{index}".encode()
    return Random(int.from_bytes(hashlib.sha256(data).digest()[:8], "big"))


def _sample_count(cfg: SweepConfig, ell: int) -> int:
    """Prime ell's share of the sample count, earlier primes taking the rest."""
    base, extra = divmod(cfg.sample_count, len(cfg.primes))
    return base + (cfg.primes.index(ell) < extra)


def _serialize_group(G: MatrixGroup) -> dict:
    return {
        "ell": G.modulus.ell,
        "generators": sorted(list(g) for g in G.generator_tuples()),
        "order": G.order,
    }


# A row's status ("pass", "fail" or "invalid") and its failure record.
Verdict = tuple[str, "dict | None"]
PASS: Verdict = ("pass", None)


def _verdict(
    status: str,
    scenario: dict,
    vector: list[int] | None = None,
    expected_divisor: int | None = None,
    value: int | None = None,
) -> Verdict:
    """A failed or invalid row's verdict, its record as the reports print it."""
    return status, {
        "scenario": scenario,
        "vector": vector,
        "expected_divisor": expected_divisor,
        "value": value,
    }


# ---------------------------------------------------------------------------
# Subgroup enumeration


def enumerate_upper_triangular_subgroups(m: PrimeModulus) -> Iterator[MatrixGroup]:
    """Every subgroup of the Borel, exactly once, in a fixed order.

    The Borel is B = U ⋊ T with U the unit shears and T the diagonal group.
    |U| = l is prime, so a subgroup G either contains U, and is then D·U
    for its diagonal parts D <= T, or meets U trivially, and is then
    u^-1 D u for a shear u and some D <= T. A scalar D is its own
    conjugate; any other D has l distinct shear conjugates. For each D of
    ``enumerate_diagonal_subgroups`` in turn come D·U and then D's shear
    conjugates by [[1, t], [0, 1]], t ascending; the conjugate of diag(a, d)
    by it is [[a, t*(a - d)], [0, d]]. Each group is held by its generator
    tuples; none is closed.
    """
    ell = m.ell
    for D in enumerate_diagonal_subgroups(m):
        yield _times_unit_shears(D)
        diagonals = [(a, d) for a, _, _, d in D.generator_tuples()]
        for t in [0] if D.is_scalar else range(ell):
            conjugates = ((a, t * (a - d) % ell, 0, d) for a, d in diagonals)
            yield _tuple_group(m, tuple(conjugates))


def _times_unit_shears(D: MatrixGroup) -> MatrixGroup:
    """D·U: D's generators, then the unit shear [[1, 1], [0, 1]]."""
    gens = (*D.generator_tuples(), (1, 1, 0, 1))
    return _tuple_group(D.modulus, tuple(dict.fromkeys(gens)))


def _hermite_step(n: int, d1: int, d2: int) -> int:
    """Step of c in the column Hermite forms [[d1, c], [0, d2]] of (Z/n)^2."""
    return d1 // gcd(d1, n // d2)


def enumerate_diagonal_subgroups(m: PrimeModulus) -> Iterator[MatrixGroup]:
    """Every subgroup of the full diagonal group, exactly once.

    Subgroups of (Z/n)^2 in exponent coordinates correspond to column
    Hermite forms [[d1, c], [0, d2]] with d1 | n, d2 | n, 0 <= c < d1 and
    d1 | (n / d2) * c; the subgroup has index d1 * d2.
    """
    n = m.ell - 1
    if n == 1:
        yield trivial_group(m)
        return
    for d1 in divisors(n):
        for d2 in divisors(n):
            for c in range(0, d1, _hermite_step(n, d1, d2)):
                yield _diagonal_group_from_hnf(m, d1, d2, c)


# ---------------------------------------------------------------------------
# Seeded samplers


def _random_triangular_tuple(rng: Random, ell: int) -> MatTuple:
    return (rng.randrange(1, ell), rng.randrange(ell), 0, rng.randrange(1, ell))


def _sample_triangular_group(rng: Random, m: PrimeModulus) -> MatrixGroup:
    """The subgroup of the Borel that one to three random generators generate.

    It is held by its generators, so a draw of any order costs one chain.
    """
    ell = m.ell
    k = rng.choice([1, 2, 3])
    return _tuple_group(m, tuple(_random_triangular_tuple(rng, ell) for _ in range(k)))


def _sample_diagonal_group(rng: Random, m: PrimeModulus) -> MatrixGroup:
    n = m.ell - 1
    if n == 1:
        return trivial_group(m)
    d1 = rng.choice(divisors(n))
    d2 = rng.choice(divisors(n))
    c = rng.randrange(0, d1, _hermite_step(n, d1, d2))
    return _diagonal_group_from_hnf(m, d1, d2, c)


def _sample_case1(rng: Random, m: PrimeModulus, deg: int) -> Case1Scenario | None:
    """A valid split-image scenario, constructed rather than rejection-sampled."""
    ell = m.ell
    if ell == 2:
        return None
    n = ell - 1
    pairs = [
        (d1, d2)
        for d1 in divisors(n)
        for d2 in divisors(n)
        if (6 * deg) % (d1 * d2) == 0
    ]
    d1, d2 = rng.choice(pairs)
    c = rng.randrange(0, d1, _hermite_step(n, d1, d2))
    comparison = _diagonal_group_from_hnf(m, d1, d2, c)
    gens = comparison.generator_tuples()
    if rng.random() < 0.5:
        # Adjoin diagonal 12-torsion: it cannot change the 12th powers.
        torsion = gcd(12, n)
        t_step = n // torsion
        g = _primitive_root_powers(m)[1]
        u = t_step * rng.randrange(torsion)
        v = t_step * rng.randrange(torsion)
        if (u, v) != (0, 0):
            gens.append((pow(g, u, ell), 0, 0, pow(g, v, ell)))
    gss = _tuple_group(m, tuple(gens))
    G = _times_unit_shears(gss) if rng.random() < 2 / 3 else gss
    return Case1Scenario(G, comparison, DegreeParameter(deg))


def _sample_case2(
    rng: Random, m: PrimeModulus, degrees: tuple[int, ...]
) -> Case2Scenario | None:
    """A valid scalar-sixth-power scenario for some compatible degree.

    The determinant-image index must divide the chosen degree; generator
    draws are retried, ending at the scalar fallback diag(g, g) whose
    index is at most 2. Returns None only when no degree is compatible.
    """
    ell = m.ell
    if ell == 2:
        return None
    n = ell - 1
    g = _primitive_root_powers(m)[1]
    sixth_torsion = gcd(6, n)
    zstep = n // sixth_torsion
    for attempt in range(40):
        if attempt == 39:
            gens = [(g, 0, 0, g)]
        else:
            gens = []
            for _ in range(rng.choice([1, 2, 3])):
                u = rng.randrange(n)
                v = (u + zstep * rng.randrange(sixth_torsion)) % n
                gens.append((pow(g, u, ell), 0, 0, pow(g, v, ell)))
        gss = _tuple_group(m, tuple(gens))
        index = n // _det_image_order(gss)
        compatible = [d for d in degrees if d % index == 0]
        if not compatible:
            continue
        deg = rng.choice(compatible)
        G = _times_unit_shears(gss) if rng.random() < 2 / 3 else gss
        return Case2Scenario(G, DegreeParameter(deg))
    return None


def _build_scenario(
    cfg: SweepConfig, kind: str, ell: int, index: int
) -> Case1Scenario | Case2Scenario | None:
    rng = _scenario_rng(cfg.seed, kind, ell, index)
    m = PrimeModulus(ell)
    if kind == "case1":
        deg = cfg.degrees[index % len(cfg.degrees)]
        return _sample_case1(rng, m, deg)
    if kind == "case2":
        return _sample_case2(rng, m, cfg.degrees)
    raise ValueError(f"unknown scenario kind {kind!r}")


def sample_scenarios(
    cfg: SweepConfig, kind: str
) -> Iterator[Case1Scenario | Case2Scenario]:
    """Seeded, reproducible stream of valid scenarios across cfg.primes.

    A scenario's G is either its diagonal-parts group or, two times in
    three, that group times the unit shears.
    """
    for ell in cfg.primes:
        for i in range(_sample_count(cfg, ell)):
            scenario = _build_scenario(cfg, kind, ell, i)
            if scenario is not None:
                yield scenario


def _sample_nested_pair(
    rng: Random, m: PrimeModulus
) -> tuple[MatrixGroup, MatrixGroup]:
    """A seeded pair H <= G: G from one of four families, H generated by
    zero to two uniformly random elements of G, drawn from G's chain."""
    family = rng.choice(["triangular", "diagonal", "nonsplit", "general"])
    if family == "triangular":
        G = _sample_triangular_group(rng, m)
    elif family == "diagonal":
        G = _sample_diagonal_group(rng, m)
    elif family == "nonsplit":
        if m.ell == 2:
            G = _sample_triangular_group(rng, m)
        else:
            k = rng.choice(divisors(m.ell * m.ell - 1))
            G = closure([_nonsplit_generator(m) ** k], m)
    else:
        gens = _random_invertible_tuples(rng, m.ell, rng.choice([1, 2]))
        G = _tuple_group(m, tuple(gens))
    k = rng.choice([0, 1, 2])
    H = closure([G.random_element(rng) for _ in range(k)], m)
    return G, H


def _random_invertible_tuples(rng: Random, ell: int, k: int) -> list[MatTuple]:
    out: list[MatTuple] = []
    while len(out) < k:
        t = (
            rng.randrange(ell),
            rng.randrange(ell),
            rng.randrange(ell),
            rng.randrange(ell),
        )
        if (t[0] * t[3] - t[1] * t[2]) % ell != 0:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# Suite execution


def _row_id(suite: str, ell: int, index: int) -> str:
    return f"{suite}-{ell:03d}-{index:05d}"


def _scenarios(cfg: SweepConfig, suite: str, ell: int) -> Iterator[tuple[str, object]]:
    """The suite's (scenario id, scenario) pairs at one prime, in id order.

    lemma31 and lemma32 enumerate their whole lattice in exhaustive mode, at
    every prime; otherwise every suite but inert and nonsplit takes the
    prime's share of seeded draws. The samplers and enumerations are
    looked up here, when the stream starts, so wrappers installed on this
    module's names see every call.
    """
    m = PrimeModulus(ell)
    if suite == "inert":
        for w in (2, 4, 6):
            for f in range(1, INERT_F_MAX + 1):
                yield f"inert-{ell:03d}-w{w}-f{f:02d}", (m, w, f)
        return
    if suite == "nonsplit":
        yield f"nonsplit-{ell:03d}", m if ell > 2 else None
        return
    draws = range(_sample_count(cfg, ell))
    exhaustive = cfg.mode == "exhaustive"
    if exhaustive and suite == "lemma31":
        scenarios = enumerate_upper_triangular_subgroups(m)
    elif exhaustive and suite == "lemma32":
        scenarios = enumerate_diagonal_subgroups(m)
    elif suite in ("case1", "case2"):
        scenarios = (_build_scenario(cfg, suite, ell, i) for i in draws)
    else:
        sample = {
            "lemma31": _sample_triangular_group,
            "lemma32": _sample_diagonal_group,
            "lemma33": _sample_nested_pair,
        }[suite]
        scenarios = (sample(_scenario_rng(cfg.seed, suite, ell, i), m) for i in draws)
    for i, scenario in enumerate(scenarios):
        yield _row_id(suite, ell, i), scenario


def _group_failure(G: MatrixGroup, note: str) -> Verdict:
    return _verdict("fail", {**_serialize_group(G), "note": note})


def _check_triangular_group(G: MatrixGroup) -> Verdict:
    result = classify_semisimplification(G)
    if not verify_witness(G, result.witness):
        return _group_failure(G, "witness rejected on re-derivation")
    if isinstance(result.witness, DiagonalizerWitness):
        return PASS
    if not result.contained_in_G:
        return _group_failure(G, "shear containment failed")
    return PASS


def _axis_classes(partition: OrbitPartition) -> tuple[list[tuple[int, int]], ...]:
    """The size view's (size, count) entries on axis 1, on axis 2 and mixed.

    Each orbit of lines is classified by its lines: the one holding line l
    (the axis y = 0) is axis 1, the one holding line 0 (x = 0) axis 2, and
    any other mixed. Each orbit over it meets every one of its lines, so
    for a diagonal group this is the split by smallest code: below l on
    axis 1, a multiple of l on axis 2.
    """
    ell = partition.modulus.ell
    classes: tuple[list[tuple[int, int]], ...] = ([], [], [])
    for (lines, _), size_count in zip(partition.walks, partition.size_counts):
        classes[0 if ell in lines else 1 if 0 in lines else 2].append(size_count)
    return classes


def _check_diagonal_prediction(Gp: MatrixGroup) -> Verdict:
    ell = Gp.modulus.ell
    partition = orbit_partition(Gp)
    if sum(size * count for size, count in partition.size_counts) != ell * ell - 1:
        return _group_failure(Gp, "orbits do not partition the punctured plane")
    pred = predict_diagonal_orbits(Gp)
    axis1, axis2, mixed = _axis_classes(partition)
    for name, parts, count, size in (
        ("axis-1", axis1, pred.index1, pred.axis1_size),
        ("axis-2", axis2, pred.index2, pred.axis2_size),
    ):
        if sum(c for _, c in parts) != count or any(s != size for s, _ in parts):
            note = f"{name} orbits {_orbit_lengths(parts)} vs {pred}"
            return _group_failure(Gp, note)
    # diag(a, d) fixes (x, y) with xy != 0 only when a = d = 1, so Gp acts
    # freely off the axes and every mixed orbit has size |Gp|.
    order = Gp.order
    if any(s != order for s, _ in mixed):
        note = f"mixed orbits {_orbit_lengths(mixed)} vs free action of order {order}"
        return _group_failure(Gp, note)
    return PASS


def _check_nested_pair(G: MatrixGroup, H: MatrixGroup) -> Verdict:
    """Lemma 3.3 for H <= G: H's orbits refine G's, and the minimal uniform
    constants of each group's orbit sizes transfer up and down."""

    def failure(note: str, *counterexample: object) -> Verdict:
        scenario = {"G": _serialize_group(G), "H": _serialize_group(H), "note": note}
        return _verdict("fail", scenario, *counterexample)

    if not H.is_subgroup_of(G):
        return failure("H is not a subgroup of G")
    M = G.modulus.ell - 1
    g_partition = orbit_partition(G)
    h_partition = orbit_partition(H)

    violation = refinement_violation(g_partition, h_partition)
    if violation is not None:
        return failure(f"refinement violated: {violation}")
    # Each direction's conclusion is about the other group's orbits.
    for direction, hypothesis, conclusion in (
        ("up", h_partition, g_partition),
        ("down", g_partition, h_partition),
    ):
        c = minimal_uniform_constant((s for s, _ in hypothesis.size_counts), M)
        verdict = uniform_divisibility_transfer(M, c, G, H, direction)
        if not verdict.hypothesis_holds:
            return failure("minimal constant failed its own hypothesis")
        if not verdict.conclusion_holds:
            note = f"transfer {direction} conclusion failed"
            bad = verdict.conclusion_counterexample
            if bad is None:
                return failure(note)
            w, _ = conclusion.locate(bad.encode())
            size = conclusion.size_counts[w][0]
            return failure(note, [bad.x, bad.y], M, verdict.conclusion_constant * size)
    return PASS


def _describe_scenario(
    scenario: Case1Scenario | Case2Scenario, failed_checks: Iterable[str]
) -> dict:
    out = {
        "G": _serialize_group(scenario.G),
        "d": scenario.degree.d,
        "failed_checks": list(failed_checks),
    }
    if isinstance(scenario, Case1Scenario):
        out["Gp"] = _serialize_group(scenario.Gp)
    return out


def _check_certificate(scenario: Case1Scenario | Case2Scenario) -> Verdict:
    """The verdict of the scenario's chain; invalid when the chain rejects it."""
    case1 = isinstance(scenario, Case1Scenario)
    chain = verify_case1_chain if case1 else verify_case2_chain
    try:
        cert = chain(scenario)
    except InvalidScenarioError as exc:
        failed = exc.report.failed_names
        return _verdict("invalid", _describe_scenario(scenario, failed))
    if cert.verdict:
        return PASS
    failed = [c.name for c in cert.checks if not c.passed]
    counterexample = cert.counterexample or {}
    return _verdict(
        "fail",
        _describe_scenario(scenario, failed),
        counterexample.get("vector"),
        counterexample.get("expected_divisor", scenario.G.modulus.ell - 1),
        counterexample.get("value"),
    )


def _check_inert(scenario: tuple[PrimeModulus, int, int]) -> Verdict:
    m, w, f = scenario
    ell = m.ell
    admissible = admissible_rho_orders(m, w, f)
    if not admissible:
        note = "hypotheses unsatisfiable"
        return _verdict("invalid", {"ell": ell, "w": w, "f": f, "note": note})
    if all(inert_bound_check(m, w, f, r) for r in admissible):
        return PASS
    scenario = {"ell": ell, "w": w, "f": f, "rho": list(admissible)}
    return _verdict("fail", scenario, expected_divisor=ell + 1, value=12 * w * f)


def _check_nonsplit(m: PrimeModulus) -> Verdict:
    if nonsplit_orbit_check(m):
        return PASS
    return _verdict("fail", {"ell": m.ell}, expected_divisor=m.ell * m.ell - 1)


# The check of one scenario of each suite.
_CHECKS: dict[str, Callable[..., Verdict]] = {
    "lemma31": _check_triangular_group,
    "lemma32": _check_diagonal_prediction,
    "lemma33": lambda pair: _check_nested_pair(*pair),
    "case1": _check_certificate,
    "case2": _check_certificate,
    "inert": _check_inert,
    "nonsplit": _check_nonsplit,
}


def _no_scenario(ell: int) -> Verdict:
    note = (
        "requires an odd prime"
        if ell == 2
        else "no scenario compatible with the degree list"
    )
    return _verdict("invalid", {"ell": ell, "note": note})


def _run_task(task: tuple[SweepConfig, str, int]) -> list[ScenarioRow]:
    """The rows of one suite at one prime, in scenario-id order."""
    cfg, suite, ell = task
    check = _CHECKS[suite]
    rows = []
    for sid, scenario in _scenarios(cfg, suite, ell):
        verdict = _no_scenario(ell) if scenario is None else check(scenario)
        rows.append(ScenarioRow(suite, ell, sid, *verdict))
    return rows


def run(cfg: SweepConfig) -> SweepReport:
    """Execute the configured suites and aggregate a deterministic report."""
    started = time.monotonic()
    tasks = [(cfg, suite, ell) for suite in cfg.suites for ell in cfg.primes]
    if cfg.parallelism > 1:
        # Imported here so that serial runs skip loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            chunks = list(pool.map(_run_task, tasks))
    else:
        chunks = [_run_task(t) for t in tasks]
    suites = []
    for (_, suite, ell), chunk in zip(tasks, chunks):
        statuses = [r.status for r in chunk]
        suites.append(
            {
                "name": suite,
                "prime": ell,
                "total": len(chunk),
                "pass": statuses.count("pass"),
                "fail": statuses.count("fail"),
                "invalid": statuses.count("invalid"),
                "failures": [r.failure for r in chunk if r.status == "fail"],
            }
        )
    elapsed = int((time.monotonic() - started) * 1000)
    return SweepReport(
        version=REPORT_VERSION,
        config=cfg.config_echo(),
        suites=suites,
        rows=[row for chunk in chunks for row in chunk],
        elapsed_ms=elapsed if cfg.include_timing else 0,
    )
