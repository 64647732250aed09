"""Workload definitions: the sweep configurations each benchmark round runs.

A round is one fresh process that runs its configurations through
``gl2orbits.sweep.run`` with ``parallelism=1``. Configurations are plain
keyword dictionaries for ``SweepConfig`` so that this module imports nothing
from the program under test.

The inputs do not depend on the benchmark's --seed. lattices is exhaustive.
The sampled workloads fix their sweep seeds because the cost of one sampled
scenario swings with the sampler's own coins: a case1 group is l times
larger when the unipotent is adjoined, and a triangular draw at l >= 131
either overruns its closure budget (about 2 s and 140 MB thrown away) or
costs almost nothing. With seed-drawn certificate scenarios, five seeds gave
per-run wall_s medians from 2.6 s to 3.9 s and peak_rss_mb from 54 to 87 MB.
"""

from __future__ import annotations

WORKLOADS = ("certificates", "lattices", "large_primes")

CERT_DEGREES = (1, 2, 3, 6, 12)
# The certificate seed of scripts/full_verification.py.
CERT_SWEEP_SEED = 864
# Under this seed one lemma31 draw and one lemma33 draw overrun their
# closure budgets, so the over-budget path runs in every round.
LARGE_PRIMES_SWEEP_SEED = 2024


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def odd_primes(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(p for p in range(max(lo, 3), hi + 1) if is_prime(p))


# The upper part of the certificate range, stopping at 67 (a Borel of
# 291,852 elements) so that a round takes seconds and a run holds several.
CERT_PRIMES = odd_primes(37, 67)


def round_configs(workload: str) -> list[dict]:
    """SweepConfig keyword arguments for one round, in the order they run."""
    if workload == "certificates":
        # Two scenarios per prime and suite.
        return [
            dict(
                primes=CERT_PRIMES,
                mode="sampled",
                sample_count=2 * len(CERT_PRIMES),
                degrees=CERT_DEGREES,
                suites=("case1", "case2"),
                seed=CERT_SWEEP_SEED,
            )
        ]
    if workload == "lattices":
        # Stages 1 and 2 of scripts/full_verification.py.
        return [
            dict(
                primes=(3, 5, 7),
                mode="exhaustive",
                sample_count=1,
                suites=("lemma31",),
                seed=0,
            ),
            dict(
                primes=odd_primes(3, 31),
                mode="exhaustive",
                sample_count=1,
                suites=("lemma32",),
                seed=0,
            ),
        ]
    if workload == "large_primes":
        return [
            dict(
                primes=(151, 199),
                mode="sampled",
                sample_count=2,
                suites=("lemma31", "lemma33", "nonsplit"),
                seed=LARGE_PRIMES_SWEEP_SEED,
            )
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
