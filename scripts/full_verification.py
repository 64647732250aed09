#!/usr/bin/env python3
"""Run every suite at the scale of the acceptance criteria and write a report.

The lattice suites run exhaustively: lemma31 over every subgroup of the
Borel at l = 3, 5, 7 (stage 1) and at every odd l up to 31 (stage 6, 18,908
groups), lemma32 over every diagonal subgroup at each odd l up to 31. The
certificate suites sample 500 scenarios each over the odd primes up to 97;
the inert and nonsplit suites cover every prime up to 199. Exits nonzero
on any genuine verification failure, and on any stage whose report
differs from the one recorded.

After each stage, its wall time, the sha256 of its JSON report and the peak
resident set sizes so far go to stderr, for this process and for its
finished worker processes; stdout carries only the per-suite lines and the
total. Equal digests mean byte-identical stage reports. Each stage's digest
is compared with the one recorded for it in ``RECORDED_DIGESTS``; a stage
that differs is named on stderr and the run exits 1. A deliberate change
to a stage's report bytes updates its recorded digest.
"""

import hashlib
import resource
import sys
import time

from gl2orbits.modarith import is_prime
from gl2orbits.sweep import SweepConfig, run

# sha256 of each stage's JSON report, in stage order.
RECORDED_DIGESTS = (
    "be72657a48dd4c311f0dcf099417414c70fea27d0d05d77a6fdeb2c59362f4bf",
    "7931cce00027296512265d2672f22140d5c0703dcb02775889778d6103e0e1cb",
    "8ab04258e586deb6f099a075e128764f745d883fbc46a45e34923934cb65144f",
    "c954417ac915ca6717bce36b2f8c473b10f397bf9be874c9b293b56d007914e6",
    "0c80af1870544088617eb33bb253a3b59e5cab89dee5a2d9f1c13a6d51c4d99f",
    "5d018fff4d2d4365133f8d39b4e739c168e435ba9ed742119ba6225a5f116a25",
)


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
        SweepConfig(
            primes=tuple(p for p in range(3, 32) if is_prime(p)),
            mode="exhaustive",
            sample_count=1,
            suites=("lemma31",),
            seed=0,
            parallelism=2,
        ),
    ]
    failures = 0
    mismatched = False
    for number, cfg in enumerate(stages, 1):
        stage_started = time.monotonic()
        report = run(cfg)
        name = f"stage {number}/{len(stages)} {','.join(cfg.suites)}"
        digest = hashlib.sha256(report.json_text().encode()).hexdigest()
        print(
            f"{name}: "
            f"{time.monotonic() - stage_started:.2f}s, report sha256 "
            f"{digest}, peak RSS "
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
        if digest != RECORDED_DIGESTS[number - 1]:
            mismatched = True
            print(
                f"{name}: report sha256 differs from the recorded "
                f"{RECORDED_DIGESTS[number - 1]}",
                file=sys.stderr,
                flush=True,
            )
    print(f"total failures: {failures}  elapsed: {time.monotonic() - started:.0f}s")
    return 1 if failures or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
