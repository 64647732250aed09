"""One benchmark round: a fresh process that runs a workload's sweeps.

Prints one JSON line: the monotonic time of the first call into
``sweep.run`` (the runner subtracts the time it started this process to get
set-up time), the wall time from that call to the last report text being
built, the process's peak RSS and each report's per-(suite, prime) counts.
With ``--trace-file`` the layer functions are wrapped first, the spans are
appended to that file and the per-layer metrics are added to the line.
With ``--setup-only`` the process stops where it would call ``sweep.run``.

Run it through bench/run.py, which puts the checkout's src/ on PYTHONPATH.
"""

import argparse
import hashlib
import json
import resource
import sys
import time

import gl2orbits.sweep as sweep
from workloads import round_configs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    configs = [sweep.SweepConfig(**kw) for kw in round_configs(args.workload)]
    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0
    origin = time.perf_counter()
    texts = []
    reports = []
    for cfg in configs:
        report = sweep.run(cfg)
        texts.append(report.text())
        reports.append(report)
    wall_s = time.perf_counter() - origin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_end": setup_end,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "reports": [
            {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "suites": [
                    {k: e[k] for k in ("name", "prime", "total", "pass", "fail", "invalid")}
                    for e in report.suites
                ],
            }
            for report, text in zip(reports, texts)
        ],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.trace_file, args.round, origin)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
