"""Sweep engine: enumerate or sample subgroup scenarios and verify the suites.

Seven suites are runnable: lemma31 (semisimplification trichotomy over
upper-triangular subgroups), lemma32 (exact orbit structure of diagonal
subgroups), lemma33 (coset refinement and divisibility transfer for nested
pairs), case1 and case2 (the two divisibility-chain certificates with
final constant 864), inert (the l + 1 divides 12wf exclusion), and
nonsplit (transitivity of the nonsplit Cartan and its subgroups).

Every scenario's random stream is derived from (seed, suite, prime, index)
alone, so reports are byte-identical for a fixed config and seed
regardless of the parallelism degree.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import gcd
from random import Random
from typing import Callable, Iterable, Iterator

from . import __version__
from .divchain import (
    Case1Scenario,
    Case2Scenario,
    DegreeParameter,
    admissible_rho_orders,
    inert_bound_check,
    nonsplit_orbit_check,
    validate_case1,
    validate_case2,
    verify_case1_chain,
    verify_case2_chain,
)
from .gl2 import (
    ClosureBudgetError,
    Mat2,
    MatrixGroup,
    MatTuple,
    _make_group,
    closure,
    conjugate,
    decode_tuple,
    nonsplit_cartan,
    trivial_group,
)
from .modarith import PrimeModulus, divisors, is_prime, least_primitive_root
from .orbits import (
    coset_orbit_refinement,
    minimal_uniform_constant,
    orbit_decomposition,
    orbit_size_map,
    predict_diagonal_orbits,
    uniform_divisibility_transfer,
)
from .semisimplify import (
    DiagonalizerWitness,
    classify_semisimplification,
    verify_witness,
)

SUITE_NAMES = ("lemma31", "lemma32", "lemma33", "case1", "case2", "inert", "nonsplit")
REPORT_VERSION = __version__

# Full-lattice enumeration guards. The Borel subgroup lattice grows sharply
# with l; beyond these bounds suites fall back to sampling.
LEMMA31_EXHAUSTIVE_CAP = 13
LEMMA32_EXHAUSTIVE_CAP = 31
INERT_F_MAX = 10
MAX_SWEEP_PRIME = 199
SAMPLED_CLOSURE_BUDGET = 1_000_000


class ConfigError(ValueError):
    """Invalid sweep configuration; maps to exit code 2 in the CLI."""


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one sweep run.

    primes, degrees, and suites are normalized to sorted unique tuples at
    construction (suites in canonical order). parallelism, output_path,
    and include_timing are execution details excluded from the report's
    config echo so that equal (config, seed) pairs reproduce equal bytes.
    """

    primes: tuple[int, ...]
    mode: str = "sampled"
    sample_count: int = 100
    degrees: tuple[int, ...] = (1,)
    suites: tuple[str, ...] = SUITE_NAMES
    seed: int = 0
    parallelism: int = 1
    output_path: str | None = None
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


def _subseed(*parts: object) -> int:
    data = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def _allocate(total: int, primes: tuple[int, ...]) -> dict[int, int]:
    """Spread a total sample count over the primes, earlier primes first."""
    base, extra = divmod(total, len(primes))
    return {p: base + (1 if i < extra else 0) for i, p in enumerate(primes)}


def _serialize_group(G: MatrixGroup) -> dict:
    return {
        "ell": G.modulus.ell,
        "generators": sorted(list(g.as_tuple()) for g in G.generators),
        "order": G.order,
    }


def _failure(
    scenario: dict,
    vector: list[int] | None = None,
    expected_divisor: int | None = None,
    value: int | None = None,
) -> dict:
    """The failure record of a failed or invalid row, as the reports print it."""
    return {
        "scenario": scenario,
        "vector": vector,
        "expected_divisor": expected_divisor,
        "value": value,
    }


# ---------------------------------------------------------------------------
# Subgroup enumeration


def enumerate_upper_triangular_subgroups(m: PrimeModulus) -> Iterator[MatrixGroup]:
    """Every subgroup of the Borel, exactly once, in a deterministic order.

    The Borel is B = U ⋊ T with U the unit shears and T the diagonal group.
    |U| = l is prime, so a subgroup G either contains U, and is then D·U
    for its diagonal parts D <= T, or meets U trivially, and is then
    u^-1 D u for a shear u and some D <= T. A scalar D is its own
    conjugate; any other D has l distinct shear conjugates. Groups come in
    ascending (order, sorted element tuples). Guarded to small primes.
    """
    ell = m.ell
    cap = LEMMA31_EXHAUSTIVE_CAP
    if ell > cap:
        raise ValueError(f"exhaustive Borel lattice enumeration capped at l <= {cap}")
    groups = []
    for D in enumerate_diagonal_subgroups(m):
        groups.append(_adjoin_unipotent(D))
        shears = [0] if D.is_scalar else range(ell)
        groups.extend(conjugate(D, Mat2(1, t, 0, 1, m)) for t in shears)
    groups.sort(key=lambda G: (G.order, sorted(g.as_tuple() for g in G.elements)))
    yield from groups


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
    pow_g = _primitive_root_powers(m)
    for d1 in divisors(n):
        for d2 in divisors(n):
            step = d1 // gcd(d1, n // d2)
            for c in range(0, d1, step):
                yield _diagonal_group_from_hnf(m, pow_g, d1, d2, c)


# ---------------------------------------------------------------------------
# Seeded samplers


def _random_triangular_tuple(rng: Random, ell: int) -> MatTuple:
    return (rng.randrange(1, ell), rng.randrange(ell), 0, rng.randrange(1, ell))


def _sample_triangular_group(rng: Random, m: PrimeModulus) -> MatrixGroup:
    """A random subgroup of the Borel from one to three random generators."""
    ell = m.ell
    k = rng.choice([1, 2, 3])
    gens = [Mat2(*_random_triangular_tuple(rng, ell), m) for _ in range(k)]
    try:
        return closure(gens, m, budget=SAMPLED_CLOSURE_BUDGET)
    except ClosureBudgetError:
        # Over budget at very large primes: fall back to a single generator.
        return closure(gens[:1], m, budget=SAMPLED_CLOSURE_BUDGET)


def _primitive_root_powers(m: PrimeModulus) -> list[int]:
    """[g^0, ..., g^(l-2)] mod l for the least primitive root g."""
    ell = m.ell
    g = least_primitive_root(m).value
    pow_g = [1] * (ell - 1)
    for i in range(1, ell - 1):
        pow_g[i] = (pow_g[i - 1] * g) % ell
    return pow_g


def _diagonal_group_from_hnf(
    m: PrimeModulus, pow_g: list[int], d1: int, d2: int, c: int
) -> MatrixGroup:
    """The diagonal group whose exponent lattice has Hermite form [[d1, c], [0, d2]]."""
    n = m.ell - 1
    elems = [
        (pow_g[(x * d1 + y * c) % n], 0, 0, pow_g[(y * d2) % n])
        for x in range(n // d1)
        for y in range(n // d2)
    ]
    gens = [(pow_g[d1 % n], 0, 0, 1), (pow_g[c], 0, 0, pow_g[d2 % n])]
    return _make_group(m, elems, dict.fromkeys(gens))


def _sample_diagonal_group(rng: Random, m: PrimeModulus) -> MatrixGroup:
    n = m.ell - 1
    if n == 1:
        return trivial_group(m)
    d1 = rng.choice(divisors(n))
    d2 = rng.choice(divisors(n))
    step = d1 // gcd(d1, n // d2)
    c = rng.randrange(0, d1, step)
    return _diagonal_group_from_hnf(m, _primitive_root_powers(m), d1, d2, c)


def _adjoin_unipotent(Gss: MatrixGroup) -> MatrixGroup:
    """The product of a diagonal group with all unit shears, built directly."""
    ell = Gss.modulus.ell
    elems = [(e.a, b, 0, e.d) for e in Gss.elements for b in range(ell)]
    gens = [g.as_tuple() for g in Gss.generators] + [(1, 1, 0, 1)]
    return _make_group(Gss.modulus, elems, dict.fromkeys(gens))


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
    step = d1 // gcd(d1, n // d2)
    c = rng.randrange(0, d1, step)
    comparison = _diagonal_group_from_hnf(m, _primitive_root_powers(m), d1, d2, c)
    gens = list(comparison.generators)
    if rng.random() < 0.5:
        # Adjoin diagonal 12-torsion: it cannot change the 12th powers.
        torsion = gcd(12, n)
        t_step = n // torsion
        g = least_primitive_root(m).value
        u = t_step * rng.randrange(torsion)
        v = t_step * rng.randrange(torsion)
        if (u, v) != (0, 0):
            gens.append(Mat2(pow(g, u, ell), 0, 0, pow(g, v, ell), m))
    gss = closure(gens, m)
    G = _adjoin_unipotent(gss) if rng.random() < 2 / 3 else gss
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
    g = least_primitive_root(m).value
    sixth_torsion = gcd(6, n)
    zstep = n // sixth_torsion
    for attempt in range(40):
        if attempt == 39:
            gens = [Mat2(g, 0, 0, g, m)]
        else:
            gens = []
            for _ in range(rng.choice([1, 2, 3])):
                u = rng.randrange(n)
                v = (u + zstep * rng.randrange(sixth_torsion)) % n
                gens.append(Mat2(pow(g, u, ell), 0, 0, pow(g, v, ell), m))
        gss = closure(gens, m)
        n_chi = len({e.det for e in gss.elements})
        index = n // n_chi
        compatible = [d for d in degrees if d % index == 0]
        if not compatible:
            continue
        deg = rng.choice(compatible)
        G = _adjoin_unipotent(gss) if rng.random() < 2 / 3 else gss
        return Case2Scenario(G, DegreeParameter(deg))
    return None


def _build_scenario(
    cfg: SweepConfig, kind: str, ell: int, index: int
) -> Case1Scenario | Case2Scenario | None:
    rng = Random(_subseed(cfg.seed, kind, ell, index))
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
    """Seeded, reproducible stream of valid scenarios across cfg.primes."""
    allocation = _allocate(cfg.sample_count, cfg.primes)
    for ell in cfg.primes:
        for i in range(allocation[ell]):
            scenario = _build_scenario(cfg, kind, ell, i)
            if scenario is not None:
                yield scenario


# ---------------------------------------------------------------------------
# Suite execution


def _row_id(suite: str, ell: int, index: int) -> str:
    return f"{suite}-{ell:03d}-{index:05d}"


def _check_triangular_group(G: MatrixGroup) -> tuple[bool, str]:
    result = classify_semisimplification(G)
    if not verify_witness(G, result.witness):
        return False, "witness rejected on re-derivation"
    if isinstance(result.witness, DiagonalizerWitness):
        return True, ""
    if not result.contained_in_G:
        return False, "shear containment failed"
    if not result.Gss.is_subgroup_of(G):
        return False, "diagonal parts escape the group"
    return True, ""


def _group_suite_rows(
    cfg: SweepConfig,
    suite: str,
    ell: int,
    cap: int,
    enumerate_groups: Callable[[PrimeModulus], Iterable[MatrixGroup]],
    sample_group: Callable[[Random, PrimeModulus], MatrixGroup],
    check: Callable[[MatrixGroup], tuple[bool, str]],
) -> list[ScenarioRow]:
    """Check every group of the lattice up to the cap, else a seeded sample."""
    m = PrimeModulus(ell)
    if cfg.mode == "exhaustive" and ell <= cap:
        groups = enumerate_groups(m)
    else:
        count = _allocate(cfg.sample_count, cfg.primes)[ell]
        groups = (
            sample_group(Random(_subseed(cfg.seed, suite, ell, i)), m)
            for i in range(count)
        )
    rows = []
    for i, G in enumerate(groups):
        ok, note = check(G)
        failure = None
        if not ok:
            failure = _failure({**_serialize_group(G), "note": note})
        rows.append(
            ScenarioRow(
                suite, ell, _row_id(suite, ell, i), "pass" if ok else "fail", failure
            )
        )
    return rows


def _lemma31_rows(cfg: SweepConfig, ell: int) -> list[ScenarioRow]:
    return _group_suite_rows(
        cfg, "lemma31", ell, LEMMA31_EXHAUSTIVE_CAP,
        enumerate_upper_triangular_subgroups, _sample_triangular_group,
        _check_triangular_group,
    )


def _check_diagonal_prediction(Gp: MatrixGroup) -> tuple[bool, str]:
    pred = predict_diagonal_orbits(Gp)
    dec = orbit_decomposition(Gp)
    axis1 = [o for o in dec.orbits if o.representative.y == 0]
    axis2 = [o for o in dec.orbits if o.representative.x == 0]
    mixed = [
        o for o in dec.orbits if o.representative.x != 0 and o.representative.y != 0
    ]
    if len(axis1) != pred.index1 or any(o.size != pred.axis1_size for o in axis1):
        return False, f"axis-1 orbits {[o.size for o in axis1]} vs {pred}"
    if len(axis2) != pred.index2 or any(o.size != pred.axis2_size for o in axis2):
        return False, f"axis-2 orbits {[o.size for o in axis2]} vs {pred}"
    if len(mixed) != pred.mixed_count or any(
        o.size != pred.mixed_orbit_size for o in mixed
    ):
        return False, f"mixed orbits {[o.size for o in mixed]} vs {pred}"
    return True, ""


def _lemma32_rows(cfg: SweepConfig, ell: int) -> list[ScenarioRow]:
    return _group_suite_rows(
        cfg, "lemma32", ell, LEMMA32_EXHAUSTIVE_CAP,
        enumerate_diagonal_subgroups, _sample_diagonal_group,
        _check_diagonal_prediction,
    )


def _sample_nested_pair(
    rng: Random, m: PrimeModulus
) -> tuple[MatrixGroup, MatrixGroup]:
    """A seeded pair H <= G drawn from structured families of modest size."""
    family = rng.choice(["triangular", "diagonal", "nonsplit", "general"])
    if family == "triangular":
        G = _sample_triangular_group(rng, m)
    elif family == "diagonal":
        G = _sample_diagonal_group(rng, m)
    elif family == "nonsplit":
        if m.ell == 2:
            G = _sample_triangular_group(rng, m)
        else:
            cns = nonsplit_cartan(m)
            k = rng.choice(divisors(cns.order))
            G = closure([cns.generators[0] ** k], m)
    else:
        ell = m.ell
        gens = [
            Mat2(*t, m)
            for t in _random_invertible_tuples(rng, ell, rng.choice([1, 2]))
        ]
        try:
            G = closure(gens, m, budget=30_000)
        except ClosureBudgetError:
            G = _sample_diagonal_group(rng, m)
    codes = sorted(g.encode() for g in G.elements)
    k = rng.choice([0, 1, 2])
    picked = rng.sample(codes, min(k, len(codes)))
    h_gens = [Mat2(*decode_tuple(code, m.ell), m) for code in picked]
    H = closure(h_gens, m)
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


def _lemma33_rows(cfg: SweepConfig, ell: int) -> list[ScenarioRow]:
    m = PrimeModulus(ell)
    allocation = _allocate(cfg.sample_count, cfg.primes)
    rows = []
    for i in range(allocation[ell]):
        rng = Random(_subseed(cfg.seed, "lemma33", ell, i))
        G, H = _sample_nested_pair(rng, m)
        ok = True
        note = ""
        failure_vector = None
        expected = None
        value = None
        M = ell - 1
        try:
            for orb in orbit_decomposition(G).orbits:
                parts = coset_orbit_refinement(G, H, orb.representative)
                if sum(p.size for p in parts) != orb.size:
                    ok, note = False, "refinement does not partition"
                    break
        except RuntimeError as exc:
            ok, note = False, f"refinement violated: {exc}"
        if ok:
            h_sizes = orbit_size_map(H)
            g_sizes = orbit_size_map(G)
            c_up = minimal_uniform_constant(h_sizes, M)
            up = uniform_divisibility_transfer(M, c_up, G, H, "up")
            c_down = minimal_uniform_constant(g_sizes, M)
            down = uniform_divisibility_transfer(M, c_down, G, H, "down")
            for verdict in (up, down):
                if not verdict.hypothesis_holds:
                    ok, note = False, "minimal constant failed its own hypothesis"
                    break
                if not verdict.conclusion_holds:
                    ok = False
                    note = f"transfer {verdict.direction} conclusion failed"
                    bad = verdict.conclusion_counterexample
                    if bad is not None:
                        failure_vector = [bad.x, bad.y]
                        expected = M
                        sizes = h_sizes if verdict.direction == "down" else g_sizes
                        value = verdict.conclusion_constant * sizes[bad.encode()]
                    break
        failure = None
        if not ok:
            scenario = {
                "G": _serialize_group(G),
                "H": _serialize_group(H),
                "note": note,
            }
            failure = _failure(scenario, failure_vector, expected, value)
        rows.append(
            ScenarioRow(
                "lemma33", ell, _row_id("lemma33", ell, i),
                "pass" if ok else "fail", failure,
            )
        )
    return rows


def _certificate_rows(cfg: SweepConfig, kind: str, ell: int) -> list[ScenarioRow]:
    allocation = _allocate(cfg.sample_count, cfg.primes)
    rows = []
    for i in range(allocation[ell]):
        sid = _row_id(kind, ell, i)
        if ell == 2:
            rows.append(
                ScenarioRow(
                    kind, ell, sid, "invalid",
                    _failure({"ell": 2, "note": "requires an odd prime"}),
                )
            )
            continue
        scenario = _build_scenario(cfg, kind, ell, i)
        if scenario is None:
            rows.append(
                ScenarioRow(
                    kind, ell, sid, "invalid",
                    _failure(
                        {
                            "ell": ell,
                            "note": "no scenario compatible with the degree list",
                        }
                    ),
                )
            )
            continue
        report = (
            validate_case1(scenario)
            if kind == "case1"
            else validate_case2(scenario)
        )
        if not report.valid:
            detail = _describe_scenario(scenario)
            detail["failed_checks"] = list(report.failed_names)
            rows.append(ScenarioRow(kind, ell, sid, "invalid", _failure(detail)))
            continue
        cert = (
            verify_case1_chain(scenario)
            if kind == "case1"
            else verify_case2_chain(scenario)
        )
        failure = None
        if not cert.verdict:
            detail = _describe_scenario(scenario)
            detail["failed_checks"] = [c.name for c in cert.checks if not c.passed]
            counterexample = cert.counterexample or {}
            failure = _failure(
                detail,
                counterexample.get("vector"),
                counterexample.get("expected_divisor", ell - 1),
                counterexample.get("value"),
            )
        rows.append(
            ScenarioRow(
                kind, ell, sid, "pass" if cert.verdict else "fail", failure
            )
        )
    return rows


def _describe_scenario(scenario: Case1Scenario | Case2Scenario) -> dict:
    out = {"G": _serialize_group(scenario.G), "d": scenario.degree.d}
    if isinstance(scenario, Case1Scenario):
        out["Gp"] = _serialize_group(scenario.Gp)
    return out


def _inert_rows(cfg: SweepConfig, ell: int) -> list[ScenarioRow]:
    m = PrimeModulus(ell)
    rows = []
    for w in (2, 4, 6):
        for f in range(1, INERT_F_MAX + 1):
            sid = f"inert-{ell:03d}-w{w}-f{f:02d}"
            admissible = admissible_rho_orders(m, w, f)
            if not admissible:
                rows.append(
                    ScenarioRow(
                        "inert", ell, sid, "invalid",
                        _failure(
                            {
                                "ell": ell, "w": w, "f": f,
                                "note": "hypotheses unsatisfiable",
                            }
                        ),
                    )
                )
                continue
            ok = all(inert_bound_check(m, w, f, r) for r in admissible)
            failure = None
            if not ok:
                failure = _failure(
                    {"ell": ell, "w": w, "f": f, "rho": list(admissible)},
                    expected_divisor=ell + 1,
                    value=12 * w * f,
                )
            rows.append(
                ScenarioRow("inert", ell, sid, "pass" if ok else "fail", failure)
            )
    return rows


def _nonsplit_rows(cfg: SweepConfig, ell: int) -> list[ScenarioRow]:
    sid = f"nonsplit-{ell:03d}"
    if ell == 2:
        return [
            ScenarioRow(
                "nonsplit", ell, sid, "invalid",
                _failure({"ell": 2, "note": "requires an odd prime"}),
            )
        ]
    ok = nonsplit_orbit_check(PrimeModulus(ell))
    failure = None
    if not ok:
        failure = _failure({"ell": ell}, expected_divisor=ell * ell - 1)
    return [ScenarioRow("nonsplit", ell, sid, "pass" if ok else "fail", failure)]


_SUITE_RUNNERS = {
    "lemma31": _lemma31_rows,
    "lemma32": _lemma32_rows,
    "lemma33": _lemma33_rows,
    "inert": _inert_rows,
    "nonsplit": _nonsplit_rows,
}


def _run_task(task: tuple[SweepConfig, str, int]) -> list[ScenarioRow]:
    cfg, suite, ell = task
    if suite in ("case1", "case2"):
        return _certificate_rows(cfg, suite, ell)
    return _SUITE_RUNNERS[suite](cfg, ell)


def run(cfg: SweepConfig) -> SweepReport:
    """Execute the configured suites and aggregate a deterministic report."""
    started = time.monotonic()
    tasks = [(cfg, suite, ell) for suite in cfg.suites for ell in cfg.primes]
    if cfg.parallelism > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            chunks = list(pool.map(_run_task, tasks))
    else:
        chunks = [_run_task(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    order = {name: i for i, name in enumerate(SUITE_NAMES)}
    rows.sort(key=lambda r: (order[r.suite], r.prime, r.scenario_id))
    suites = []
    for suite in cfg.suites:
        for ell in cfg.primes:
            group = [r for r in rows if r.suite == suite and r.prime == ell]
            suites.append(
                {
                    "name": suite,
                    "prime": ell,
                    "total": len(group),
                    "pass": sum(1 for r in group if r.status == "pass"),
                    "fail": sum(1 for r in group if r.status == "fail"),
                    "invalid": sum(1 for r in group if r.status == "invalid"),
                    "failures": [r.failure for r in group if r.status == "fail"],
                }
            )
    elapsed = int((time.monotonic() - started) * 1000)
    return SweepReport(
        version=REPORT_VERSION,
        config=cfg.config_echo(),
        suites=suites,
        rows=rows,
        elapsed_ms=elapsed if cfg.include_timing else 0,
    )
