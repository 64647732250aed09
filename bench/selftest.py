"""Self-tests of the benchmark: each check must reject a deliberately wrong input.

    python3 bench/selftest.py

Run from the root of a checkout; the program is imported from src/.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER_METRICS, Tracer  # noqa: E402
from workloads import round_configs  # noqa: E402

from gl2orbits.gl2 import borel, nonsplit_cartan, trivial_group  # noqa: E402
from gl2orbits.modarith import PrimeModulus  # noqa: E402


def entries(cfg: dict) -> list[dict]:
    """A report's suite entries in which every expected row passed."""
    return [
        {"name": s, "prime": p, "total": n, "pass": n, "fail": 0, "invalid": 0}
        for (s, p), n in checks.expected_totals(cfg).items()
    ]


def orbit_inputs(G) -> tuple:
    ell = G.modulus.ell
    orbits = checks.orbits_from_generators(G.generator_tuples(), ell)
    e1_orbit = frozenset((g.a, g.c) for g in G.elements)
    return ell, G.order, orbits, e1_orbit


class LatticeCounts(unittest.TestCase):
    def test_known_lattice_sizes(self):
        self.assertEqual([checks.borel_subgroup_count(p) for p in (3, 5, 7)], [16, 78, 216])
        self.assertEqual(
            [checks.diagonal_subgroup_count(p) for p in (3, 5, 7, 11, 17)],
            [5, 15, 30, 40, 83],
        )

    def test_wrong_lemma31_total_is_rejected(self):
        cfg = round_configs("lattices")[0]
        suites = entries(cfg)
        self.assertEqual(checks.report_problems(cfg, suites), [])
        row = next(e for e in suites if e["prime"] == 7)
        row["total"] = row["pass"] = 215
        self.assertTrue(checks.report_problems(cfg, suites))


class ReportCheck(unittest.TestCase):
    cfg = round_configs("certificates")[0]

    def test_flipped_row_is_rejected(self):
        suites = entries(self.cfg)
        suites[3]["pass"] -= 1
        suites[3]["fail"] += 1
        self.assertTrue(checks.report_problems(self.cfg, suites))
        self.assertEqual(
            checks.passed_rows(self.cfg, suites),
            sum(checks.expected_totals(self.cfg).values()) - 1,
        )

    def test_invalid_row_is_rejected(self):
        suites = entries(self.cfg)
        suites[0]["pass"] -= 1
        suites[0]["invalid"] += 1
        self.assertTrue(checks.report_problems(self.cfg, suites))

    def test_missing_and_extra_entries_are_rejected(self):
        self.assertTrue(checks.report_problems(self.cfg, entries(self.cfg)[1:]))
        extra = entries(self.cfg) + [
            {"name": "case1", "prime": 97, "total": 1, "pass": 1, "fail": 0, "invalid": 0}
        ]
        self.assertTrue(checks.report_problems(self.cfg, extra))


class CertificateOrbits(unittest.TestCase):
    def test_borel_orbits_pass(self):
        ell, order, orbits, e1 = orbit_inputs(borel(PrimeModulus(7)))
        self.assertEqual(sorted(len(o) for o in orbits), [6, 42])
        self.assertEqual(checks.certificate_orbit_problems(ell, order, 1, orbits, e1), [])

    def test_wrong_orbit_size_is_rejected(self):
        ell, order, orbits, e1 = orbit_inputs(borel(PrimeModulus(7)))
        small, big = sorted(orbits, key=len)
        moved = next(iter(big - e1))
        wrong = [small | {moved}, big - {moved}]
        self.assertTrue(checks.certificate_orbit_problems(ell, order, 1, wrong, e1))

    def test_missing_vector_is_rejected(self):
        ell, order, orbits, e1 = orbit_inputs(borel(PrimeModulus(7)))
        small, big = sorted(orbits, key=len)
        wrong = [small, big - {next(iter(big))}]
        self.assertTrue(checks.certificate_orbit_problems(ell, order, 1, wrong, e1))

    def test_failed_divisibility_is_rejected(self):
        # Trivial group mod 11: orbits of size 1, and 10 does not divide 864.
        ell, order, orbits, e1 = orbit_inputs(trivial_group(PrimeModulus(11)))
        problems = checks.certificate_orbit_problems(ell, order, 1, orbits, e1)
        self.assertTrue(any("does not divide 864" in p for p in problems))

    def test_generators_not_matching_elements_are_rejected(self):
        ell, order, orbits, _ = orbit_inputs(borel(PrimeModulus(7)))
        e1_of_other_group = frozenset({(1, 0)})
        self.assertTrue(
            checks.certificate_orbit_problems(ell, order, 1, orbits, e1_of_other_group)
        )


class Nonsplit(unittest.TestCase):
    def test_own_cartan_matches_the_program(self):
        for ell in (3, 7, 13):
            own = checks.nonsplit_cartan_tuples(ell)
            self.assertEqual(checks.nonsplit_problems(ell, own), [])
            program = {g.as_tuple() for g in nonsplit_cartan(PrimeModulus(ell)).elements}
            self.assertEqual(own, program)

    def test_missing_element_is_rejected(self):
        own = checks.nonsplit_cartan_tuples(7)
        own.discard((1, 0, 0, 1))
        self.assertTrue(checks.nonsplit_problems(7, own))

    def test_singular_element_is_rejected(self):
        own = checks.nonsplit_cartan_tuples(7)
        own.discard((1, 0, 0, 1))
        own.add((1, 0, 0, 0))
        self.assertTrue(checks.nonsplit_problems(7, own))


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.spans = [
            ["sweep.run", 0.0, 10.0, None, False],
            ["gl2.close", 2.0, 5.0, 0, True],
            ["gl2.make_group", 6.0, 7.0, 0, False],
        ]
        metrics = tracer.metrics()
        self.assertEqual(metrics["sweep.run.self_s"], 6.0)
        self.assertEqual(metrics["gl2.close.over_budget"], 1)
        self.assertEqual(metrics["gl2.close.over_budget_s"], 3.0)
        self.assertEqual(metrics["gl2.make_group.calls"], 1)

    def test_install_wraps_names_other_modules_imported(self):
        import gl2orbits.gl2 as gl2
        import gl2orbits.semisimplify as semisimplify
        import gl2orbits.sweep as sweep

        tracer = Tracer()
        tracer.install()
        for module in (gl2, sweep, semisimplify):
            self.assertTrue(hasattr(module._close, "__wrapped__"))
            self.assertTrue(hasattr(module._make_group, "__wrapped__"))
        cfg = sweep.SweepConfig(primes=(3,), mode="exhaustive", suites=("lemma31",))
        sweep.run(cfg).text()
        metrics = tracer.metrics()
        # The join fixpoint calls sweep._close; without the rebinding these
        # calls would go unattributed.
        self.assertGreater(metrics["gl2.close.calls"], 0)
        self.assertGreaterEqual(metrics["gl2.make_group.calls"], 16)
        self.assertGreater(metrics["sweep.enumerate.self_s"], 0.0)
        self.assertGreater(metrics["sweep.run.self_s"], 0.0)


class Manifest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in manifest["end_to_end"]],
            list(run.END_TO_END_METRICS),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in manifest["per_layer"]],
            list(PER_LAYER_METRICS),
        )


if __name__ == "__main__":
    unittest.main()
