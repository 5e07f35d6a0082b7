"""The repo benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-1000 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split.  The line before the result holds the host stamp and the run's
notes; the last line is ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

from common import BenchError, host_stamp, require_source

END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "utility_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

# layers idle on a workload read 0 (serve.* on solve-1000, load.* likewise)
PER_LAYER = {
    "core.flow_ms": "ms",
    "core.usage_ms": "ms",
    "core.cost_ms": "ms",
    "core.dadf_ms": "ms",
    "core.dadr_ms": "ms",
    "core.edge_marginals_ms": "ms",
    "core.blocked_ms": "ms",
    "core.gamma_ms": "ms",
    "core.iteration_ms": "ms",
    "core.coverage": "ratio",
    "core.iterations": "count",
    "core.cells": "count",
    "serve.plan_ms": "ms",
    "delta.compile_ms": "ms",
    "delta.apply_scalar_ms": "ms",
    "delta.apply_structural_ms": "ms",
    "online.shed_ms": "ms",
    "core.refine_ms": "ms",
    "core.solution_ms": "ms",
    "validate.audit_ms": "ms",
    "serve.publish_ms": "ms",
    "serve.session_ms": "ms",
    "serve.session.coverage": "ratio",
    "serve.outside_session_ms": "ms",
    "serve.batches": "count",
    "serve.batch_size": "count",
    "delta.scalar_count": "count",
    "delta.structural_count": "count",
    "serve.events_coalesced": "count",
    "serve.read_p99_ms": "ms",
    "load.lateness_max_ms": "ms",
    "load.lateness_p99_ms": "ms",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_pct": "%",
}

# the traced split must account for the iteration / the session
MIN_COVERAGE = 0.95
WORKLOADS = ("solve-1000", "serve-mix-120", "serve-session-churn-120")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if workload == "solve-1000":
        import solve

        return solve.run(seed, seconds, trace)
    import serve

    return serve.run(workload, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    trace = bool(args.trace)
    try:
        require_source()
        stamp = host_stamp(args.workload, args.seed, args.seconds, trace)
        result = measure(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1

    wanted = PER_LAYER if trace else END_TO_END
    values = result["metrics"]
    unknown = set(values) - set(wanted)
    if unknown:
        print(f"perfbench: unlisted metrics {sorted(unknown)}", file=sys.stderr)
        return 1
    if trace:
        values = {name: values.get(name, 0.0) for name in wanted}
    elif set(values) != set(wanted):
        print(f"perfbench: missing {sorted(set(wanted) - set(values))}", file=sys.stderr)
        return 1

    failed = int(result["failed"])
    correct = failed == 0 and result.get("valid", True) and all(
        math.isfinite(v) for v in values.values()
    )
    if trace:
        for name in ("core.coverage", "serve.session.coverage"):
            if name in result["metrics"] and values[name] < MIN_COVERAGE:
                correct = False
    print(json.dumps({"stamp": stamp, "notes": result["notes"]}, default=float))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": wanted[name]}
            for name in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
