"""Command line front end for the verification sweep.

Exit codes: 0 all selected suites verified, 1 at least one genuine
verification failure, 2 configuration error, an unwritable --out path
included: the report file is opened before the sweep runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack

from .modarith import is_prime
from .sweep import SUITE_NAMES, ConfigError, SweepConfig, run


def parse_primes(text: str) -> tuple[int, ...]:
    """Primes from 'a..b' (inclusive range), or the values of a comma-separated
    list, which ``SweepConfig`` checks for primality."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        primes = tuple(p for p in range(lo, hi + 1) if is_prime(p))
        if not primes:
            raise ConfigError(f"no primes in range {lo}..{hi}")
        return primes
    return tuple(int(part) for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweep",
        description=(
            "Run verification suites over subgroup scenarios in GL2 of prime fields."
        ),
    )
    parser.add_argument(
        "--primes",
        default="3..31",
        help="prime range 'a..b' or comma list, e.g. 3..97 or 3,5,7",
    )
    parser.add_argument(
        "--mode",
        default="sampled",
        choices=("exhaustive", "sampled"),
        help="exhaustive runs the whole lemma31 and lemma32 lattices at each prime",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=100,
        help="total scenarios per sampled suite, spread over the primes",
    )
    parser.add_argument(
        "--suites",
        default=",".join(SUITE_NAMES),
        help=f"comma list from {{{','.join(SUITE_NAMES)}}}",
    )
    parser.add_argument(
        "--degrees",
        default="1",
        help="comma list of degree parameters for the certificate suites",
    )
    parser.add_argument("--seed", type=int, default=0, help="64-bit sweep seed")
    parser.add_argument(
        "--parallelism", type=int, default=1, help="worker process count"
    )
    parser.add_argument(
        "--out", default="-", help="report path, '-' for standard output"
    )
    parser.add_argument("--format", default="json", choices=("json", "csv"))
    parser.add_argument(
        "--timing",
        action="store_true",
        help="embed real elapsed_ms in the report (breaks byte-reproducibility)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = SweepConfig(
            primes=parse_primes(args.primes),
            mode=args.mode,
            sample_count=args.samples,
            degrees=tuple(int(d) for d in args.degrees.split(",") if d.strip()),
            suites=tuple(s.strip() for s in args.suites.split(",") if s.strip()),
            seed=args.seed,
            parallelism=args.parallelism,
            output_format=args.format,
            include_timing=args.timing,
        )
    except (ConfigError, ValueError) as exc:
        print(f"sweep: configuration error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2

    with ExitStack() as stack:
        try:
            out = (
                sys.stdout
                if args.out == "-"
                else stack.enter_context(open(args.out, "w", encoding="utf-8"))
            )
        except OSError as exc:
            print(f"sweep: configuration error: {exc}", file=sys.stderr)
            return 2
        started = time.monotonic()
        report = run(cfg)
        elapsed = time.monotonic() - started
        out.write(report.text())

    totals: dict[str, list[int]] = {}
    for entry in report.suites:
        bucket = totals.setdefault(entry["name"], [0, 0, 0])
        bucket[0] += entry["pass"]
        bucket[1] += entry["fail"]
        bucket[2] += entry["invalid"]
    for name, (n_pass, n_fail, n_invalid) in totals.items():
        print(
            f"sweep: {name}: pass={n_pass} fail={n_fail} invalid={n_invalid}",
            file=sys.stderr,
        )
    print(f"sweep: elapsed {elapsed:.1f}s", file=sys.stderr)
    return 1 if report.total_failures else 0


if __name__ == "__main__":
    sys.exit(main())
