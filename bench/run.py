#!/usr/bin/env python3
"""Sweep benchmark: time gl2orbits sweeps end to end, or trace them by layer.

    python3 bench/run.py --workload certificates --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each round is a fresh process running the
workload's sweeps (see workloads.py) with parallelism 1, so caches start
cold and set-up counts. Rounds repeat until --seconds have passed. With
--trace 0 the last line reports the median over rounds of wall_s,
peak_rss_mb and setup_s. With --trace 1 untraced and traced rounds
alternate on the same inputs, the spans go to bench/out/, the last line
reports the per-layer metrics (mean per traced round) and a line before it
gives the tracing overhead. Outputs are checked after the measured rounds;
the last line is one JSON object with correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
from tracer import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, round_configs  # noqa: E402

END_TO_END_METRICS = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_PROBES = 5
ROUND_TIMEOUT_S = 150


def child(workload: str, round_index: int, *extra: str) -> dict:
    """Run one round process; return its JSON line with setup_s added."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [
        sys.executable, str(BENCH / "sweep_round.py"),
        "--workload", workload, "--round", str(round_index),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"round {round_index} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - started
    return result


def deep_problems(workload: str) -> list[str]:
    """Recompute what the reports assert, with the benchmark's own code."""
    sys.path.insert(0, str(SRC))
    from gl2orbits.modarith import PrimeModulus
    from gl2orbits.gl2 import nonsplit_cartan
    from gl2orbits.sweep import SweepConfig, sample_scenarios

    problems = []
    for kw in round_configs(workload):
        if workload == "certificates":
            cfg = SweepConfig(**kw)
            for kind in cfg.suites:
                count = 0
                for scenario in sample_scenarios(cfg, kind):
                    count += 1
                    G = scenario.G
                    ell = G.modulus.ell
                    orbits = checks.orbits_from_generators(G.generator_tuples(), ell)
                    e1_orbit = frozenset((g.a, g.c) for g in G.elements)
                    problems += checks.certificate_orbit_problems(
                        ell, G.order, scenario.degree.d, orbits, e1_orbit
                    )
                if count != cfg.sample_count:
                    problems.append(f"{kind}: {count} scenarios, expected {cfg.sample_count}")
        if "nonsplit" in kw["suites"]:
            for ell in kw["primes"]:
                own = checks.nonsplit_cartan_tuples(ell)
                problems += checks.nonsplit_problems(ell, own)
                program = {g.as_tuple() for g in nonsplit_cartan(PrimeModulus(ell)).elements}
                if program != own:
                    problems.append(f"l={ell}: the program's nonsplit Cartan differs")
    # lattices: the exhaustive totals in expected_totals are the deep check.
    return problems


def run_rounds(workload: str, seconds: float, trace: bool, trace_path: Path):
    """Measured rounds until `seconds` pass; with trace, untraced/traced pairs."""
    untraced, traced = [], []
    started = time.monotonic()
    round_index = 0
    while True:
        untraced.append(child(workload, round_index))
        if trace:
            traced.append(child(workload, round_index, "--trace-file", str(trace_path)))
        round_index += 1
        if time.monotonic() - started >= seconds:
            return untraced, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gl2orbits" / "__init__.py").is_file():
        print(f"bench: no gl2orbits sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = OUT / f"{stem}.spans.jsonl"
    trace_path.unlink(missing_ok=True)

    setups = [
        child(args.workload, 0, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)
    ]
    untraced, traced = run_rounds(args.workload, args.seconds, bool(args.trace), trace_path)

    problems = []
    attempted = failed = 0
    digests: dict[str, set[str]] = {}
    configs = round_configs(args.workload)
    for result in untraced + traced:
        for cfg, report in zip(configs, result["reports"], strict=True):
            problems += checks.report_problems(cfg, report["suites"])
            expected = sum(checks.expected_totals(cfg).values())
            attempted += expected
            failed += expected - checks.passed_rows(cfg, report["suites"])
            digests.setdefault(json.dumps(cfg, sort_keys=True), set()).add(report["sha256"])
    for key, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"equal configs gave {len(seen)} different reports: {key}")
    problems += deep_problems(args.workload)

    if args.trace:
        metrics = {
            name: {"value": statistics.fmean(r["layers"][name] for r in traced), "unit": unit}
            for name, unit in PER_LAYER_METRICS
        }
        plain = statistics.fmean(r["wall_s"] for r in untraced)
        with_trace = statistics.fmean(r["wall_s"] for r in traced)
        print(
            f"tracing overhead: traced wall_s {with_trace:.3f} s vs untraced "
            f"{plain:.3f} s ({with_trace - plain:+.3f} s, "
            f"{100 * (with_trace - plain) / plain:+.1f}%) over {len(traced)} pair(s); "
            f"spans in {trace_path.relative_to(ROOT)}"
        )
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "setup_s": setups + [r["setup_s"] for r in untraced],
        }
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END_METRICS
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = dict(
        summary,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        setup_probes_s=setups,
        rounds=untraced,
        traced_rounds=traced,
        problems=problems,
    )
    (OUT / f"{stem}.result.json").write_text(json.dumps(details, indent=1) + "\n")
    print(f"{args.workload}: {len(untraced)} round(s), {attempted} rows, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
