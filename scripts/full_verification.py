#!/usr/bin/env python3
"""Run every suite at the scale of the acceptance criteria and write a report.

Exhaustive lattice suites run at their guarded caps; the certificate suites
sample 500 scenarios each over the odd primes up to 97; the inert and
nonsplit suites cover every prime up to 199. Exits nonzero on any genuine
verification failure.

After each stage, its wall time, the sha256 of its JSON report and the peak
resident set sizes so far go to stderr, for this process and for its
finished worker processes; stdout carries only the per-suite lines and the
total. Equal digests mean byte-identical stage reports.
"""

import hashlib
import resource
import sys
import time

from gl2orbits.modarith import is_prime
from gl2orbits.sweep import SweepConfig, run


def _peak_rss_mb(who: int) -> float:
    """Peak RSS in MB from getrusage; ru_maxrss is in KiB, on macOS in bytes."""
    peak = resource.getrusage(who).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def main() -> int:
    started = time.monotonic()
    stages = [
        SweepConfig(
            primes=(3, 5, 7),
            mode="exhaustive",
            sample_count=1,
            suites=("lemma31",),
            seed=0,
        ),
        SweepConfig(
            primes=tuple(p for p in range(3, 32) if is_prime(p)),
            mode="exhaustive",
            sample_count=1,
            suites=("lemma32",),
            seed=0,
        ),
        SweepConfig(
            primes=tuple(p for p in range(3, 32) if is_prime(p)),
            mode="sampled",
            sample_count=1000,
            suites=("lemma33",),
            seed=2024,
            parallelism=2,
        ),
        SweepConfig(
            primes=tuple(p for p in range(3, 98) if is_prime(p)),
            mode="sampled",
            sample_count=500,
            degrees=(1, 2, 3, 6, 12),
            suites=("case1", "case2"),
            seed=864,
            parallelism=2,
        ),
        SweepConfig(
            primes=tuple(p for p in range(3, 200) if is_prime(p)),
            mode="sampled",
            sample_count=1,
            suites=("inert", "nonsplit"),
            seed=0,
            parallelism=2,
        ),
    ]
    failures = 0
    for number, cfg in enumerate(stages, 1):
        stage_started = time.monotonic()
        report = run(cfg)
        print(
            f"stage {number}/{len(stages)} {','.join(cfg.suites)}: "
            f"{time.monotonic() - stage_started:.2f}s, report sha256 "
            f"{hashlib.sha256(report.json_text().encode()).hexdigest()}, peak RSS "
            f"{_peak_rss_mb(resource.RUSAGE_SELF):.1f} MB, workers "
            f"{_peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB",
            file=sys.stderr,
            flush=True,
        )
        for entry in report.suites:
            if entry["total"] == 0:
                continue
            print(
                f"{entry['name']:>8} l={entry['prime']:<3} "
                f"pass={entry['pass']:<5} fail={entry['fail']} "
                f"invalid={entry['invalid']}"
            )
        failures += report.total_failures
    print(f"total failures: {failures}  elapsed: {time.monotonic() - started:.0f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
