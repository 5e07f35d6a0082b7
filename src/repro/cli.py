"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   create a random paper-style model and write it as JSON
``info``       summarise a model file (``--json`` for machine output)
``solve``      solve a model (gradient / distributed / optimal / backpressure)
``profile``    solve with instrumentation on and print phase timings
``validate``   solve + audit against the paper's invariant catalog
``figure4``    run a quick Figure-4 reproduction
``serve``      run the admission-control daemon (``repro.serve/1`` over TCP)
``scenario``   list the named scenario catalog, or compile and run one

Examples
--------
::

    python -m repro generate --nodes 40 --commodities 3 --seed 7 -o model.json
    python -m repro info model.json --json
    python -m repro solve model.json --method gradient --step-size 0.04 -o sol.json
    python -m repro solve model.json --metrics-out m.json --trace-out t.json
    python -m repro solve model.json --workers 2 --staleness 4 --record-every 10
    python -m repro solve model.json --validate           # attach the audit
    python -m repro profile model.json --max-iterations 2000 \
        --workers 2 --staleness 4 --record-every 10
    python -m repro validate model.json --method optimal --strict
    python -m repro validate --self-test                  # fault injection
    python -m repro figure4 --seed 7
    python -m repro serve model.json --port 7471 --workers 2 --staleness 4
    python -m repro serve --nodes 120 --commodities 12 --batch-window 0.02
    python -m repro serve --scenario serve-smoke-30
    python -m repro scenario list --json
    python -m repro scenario run fat-tree-16          # TAB-PLACEMENT
    python -m repro scenario run serve-diurnal-30 --seed 3
    python -m repro solve --scenario sparse-30x4 --method gradient

``solve --json`` emits one JSON document (the ``repro.result/1`` schema,
plus an embedded ``repro.metrics/1`` registry section when instrumentation
ran); ``--metrics-out`` / ``--trace-out`` write the full metrics document
and a ``chrome://tracing`` timeline.  ``--workers N --staleness K`` runs the
batched-staleness worker pool, whose batches never cross a trajectory
record: without ``--record-every`` above 1 the pool never runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import (
    BackpressureConfig,
    GradientConfig,
    Instrumentation,
    SolveOptions,
    build_extended_network,
    solve,
)
from repro.analysis import AlgorithmTrajectory, figure4_table, timing_table
from repro.core.marginals import CostModel
from repro.io import (
    load_network,
    result_to_dict,
    save_network,
    save_solution,
    utility_to_spec,
)
from repro.scenarios import paper_figure4_network, random_stream_network
from repro.scenarios import RandomNetworkSpec

__all__ = ["main"]

INFO_SCHEMA = "repro.info/1"


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = RandomNetworkSpec(
        num_nodes=args.nodes, num_commodities=args.commodities
    )
    network = random_stream_network(spec, seed=args.seed)
    save_network(network, args.output)
    print(f"wrote {network} to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    network = load_network(args.model)
    ext = build_extended_network(network)
    if args.json:
        doc = {
            "schema": INFO_SCHEMA,
            "model": args.model,
            "nodes": len(network.physical.nodes),
            "links": len(network.physical.links),
            "commodities": [
                {
                    "name": c.name,
                    "source": c.source,
                    "sink": c.sink,
                    "max_rate": c.max_rate,
                    "utility": utility_to_spec(c.utility),
                }
                for c in network.commodities
            ],
            "extended": {"nodes": ext.num_nodes, "edges": ext.num_edges},
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(network)
    print(ext.describe())
    for commodity in network.commodities:
        print(f"  {commodity}  utility={commodity.utility!r}")
    return 0


def _make_config(args: argparse.Namespace):
    """The per-method config object from the shared solver flags."""
    if args.method == "optimal":
        return None
    if args.method == "backpressure":
        kwargs = {"max_iterations": args.max_iterations}
        if args.record_every is not None:
            kwargs["record_every"] = args.record_every
        return BackpressureConfig(**kwargs)
    kwargs = {
        "eta": args.step_size,
        "max_iterations": args.max_iterations,
        "cost_model": CostModel(eps=args.eps),
        "adaptive_eta": args.adaptive,
    }
    if args.record_every is not None:
        kwargs["record_every"] = args.record_every
    return GradientConfig(**kwargs)


def _model_label(args: argparse.Namespace) -> str:
    """What the output documents call the input model."""
    if getattr(args, "scenario", None) is not None:
        return f"scenario:{args.scenario}"
    return args.model


def _input_network(args: argparse.Namespace):
    """The input model: a file, or a compiled ``--scenario`` network."""
    scenario_name = getattr(args, "scenario", None)
    if scenario_name is not None:
        if args.model is not None:
            raise SystemExit(
                "error: pass either a model file or --scenario, not both"
            )
        from repro.scenarios import scenario

        return scenario(scenario_name).compile().network
    if args.model is None:
        raise SystemExit("error: a model file or --scenario is required")
    return load_network(args.model)


def _instrumented_solve(args: argparse.Namespace, instrumentation, validate=False):
    network = _input_network(args)
    options = SolveOptions(
        method=args.method,
        config=_make_config(args),
        instrumentation=instrumentation,
        full_result=True,
        workers=args.workers,
        staleness=args.staleness,
        execution=args.execution,
        validate=validate,
    )
    return solve(network, options=options)


def _export_instrumentation(args: argparse.Namespace, inst, quiet: bool) -> None:
    if getattr(args, "metrics_out", None):
        inst.export_metrics(
            args.metrics_out, model=_model_label(args), method=args.method
        )
        if not quiet:
            print(f"wrote metrics to {args.metrics_out}")
    if getattr(args, "trace_out", None):
        inst.export_trace(args.trace_out)
        if not quiet:
            print(f"wrote chrome trace to {args.trace_out}")


def _cmd_solve(args: argparse.Namespace) -> int:
    instrument = bool(args.json or args.metrics_out or args.trace_out)
    inst = Instrumentation() if instrument else None
    result = _instrumented_solve(args, inst, validate=args.validate)
    if args.json:
        doc = result_to_dict(result, model=_model_label(args), method=args.method)
        doc["metrics"] = inst.metrics_document(include_events=False)
        print(json.dumps(doc, indent=2))
    else:
        print(result.solution.summary())
        if result.validation is not None:
            print()
            print(result.validation.summary())
    if args.output:
        save_solution(result.solution, args.output)
        if not args.json:
            print(f"wrote solution to {args.output}")
    if inst is not None:
        _export_instrumentation(args, inst, quiet=args.json)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    inst = Instrumentation()
    result = _instrumented_solve(args, inst, validate=args.validate)
    solution = result.solution
    iterations = solution.iterations if solution is not None else None
    print(
        timing_table(
            inst,
            title=f"Phase timings: {args.method}"
            + (f", {iterations} iterations" if iterations else ""),
        )
    )
    counters = inst.registry.as_dict()["counters"]
    if counters:
        width = max(len(name) for name in counters)
        print("\nCounters")
        for name in sorted(counters):
            print(f"  {name.ljust(width)}  {counters[name]:g}")
    print(f"\nfinal utility: {result.final_utility:.6g}")
    if result.validation is not None:
        print()
        print(result.validation.summary())
    _export_instrumentation(args, inst, quiet=False)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate import run_self_test

    if args.self_test:
        records = run_self_test()
        if args.json:
            doc = {
                "schema": "repro.selftest/1",
                "records": [
                    {
                        "fault": r.fault,
                        "expected_check": r.expected_check,
                        "flagged": list(r.flagged),
                        "caught": r.caught,
                        "isolated": r.isolated,
                    }
                    for r in records
                ],
                "healthy": all(r.caught for r in records),
            }
            print(json.dumps(doc, indent=2))
        else:
            width = max(len(r.fault) for r in records)
            print("Fault self-test (each class must be caught by its check)")
            for r in records:
                status = "caught" if r.caught else "MISSED"
                if r.caught and r.isolated:
                    status += ", isolated"
                print(
                    f"  {r.fault.ljust(width)}  -> {r.expected_check:<12}"
                    f"  [{status}]  flagged={list(r.flagged)}"
                )
        return 0 if all(r.caught for r in records) else 1

    if args.model is None and getattr(args, "scenario", None) is None:
        print(
            "error: a model file or --scenario is required unless --self-test",
            file=sys.stderr,
        )
        return 2
    result = _instrumented_solve(args, None, validate=True)
    report = result.validation
    if args.json:
        doc = report.to_dict()
        doc["model"] = _model_label(args)
        doc["method"] = args.method
        print(json.dumps(doc, indent=2))
    else:
        print(result.solution.summary())
        print()
        print(report.summary())
    return 0 if report.passed or not args.strict else 1


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.core.optimal import solve_lp

    network = paper_figure4_network(seed=args.seed)
    ext = build_extended_network(network)
    optimum = solve_lp(ext)
    gradient = solve(
        network,
        config=GradientConfig(
            eta=0.04, max_iterations=args.max_iterations, record_every=10
        ),
        full_result=True,
    )
    backpressure = solve(
        network,
        method="backpressure",
        config=BackpressureConfig(
            max_iterations=args.bp_iterations, record_every=200, buffer_cap=1000.0
        ),
        full_result=True,
    )
    print(
        figure4_table(
            optimum.utility,
            [
                AlgorithmTrajectory.from_result("gradient (eta=0.04)", gradient),
                AlgorithmTrajectory.from_result("back-pressure", backpressure),
            ],
        )
    )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import scenario, scenario_summaries

    if args.action == "list":
        rows = scenario_summaries()
        if args.json:
            doc = {"schema": "repro.scenarios/1", "scenarios": rows}
            print(json.dumps(doc, indent=2))
        else:
            width = max(len(row["name"]) for row in rows)
            for row in rows:
                print(f"{row['name'].ljust(width)}  {row['description']}")
        return 0

    spec = scenario(args.name, seed=args.seed)
    if spec.placement.kind == "joint":
        from repro.analysis import placement_table
        from repro.placement import JointPlacementLoop

        report = JointPlacementLoop.from_scenario(spec).run()
        if args.json:
            doc = {
                "schema": "repro.scenario.run/1",
                "scenario": spec.name,
                "seed": spec.seed,
                "mode": "joint-placement",
                "report": report.to_dict(),
            }
            print(json.dumps(doc, indent=2))
        else:
            print(
                placement_table(
                    report, title=f"TAB-PLACEMENT ({spec.name}, seed {spec.seed})"
                )
            )
        return 0

    from repro.online import OnlineOrchestrator

    compiled = spec.compile()
    orchestrator = OnlineOrchestrator(
        compiled.network, compiled.events, config=GradientConfig(eta=args.step_size)
    )
    iterations = (
        args.iterations if args.iterations is not None else compiled.horizon()
    )
    result = orchestrator.run(iterations)
    if args.json:
        doc = {
            "schema": "repro.scenario.run/1",
            "scenario": spec.name,
            "seed": spec.seed,
            "mode": "online",
            "events": len(compiled.events),
            "iterations": iterations,
            "final_utility": result.final_utility,
            "recoveries": len(result.recoveries),
        }
        print(json.dumps(doc, indent=2))
    else:
        network = compiled.network
        print(
            f"scenario {spec.name!r} (seed {spec.seed}): "
            f"{len(network.physical.nodes)} nodes, "
            f"{len(network.commodities)} commodities, "
            f"{len(compiled.events)} events over {iterations} iterations"
        )
        print(
            f"final utility {result.final_utility:.4f}  "
            f"({len(result.recoveries)} event recoveries)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import AdmissionServer, ServeConfig

    if args.model is not None and args.scenario is not None:
        print(
            "error: pass either a model file or --scenario, not both",
            file=sys.stderr,
        )
        return 2
    if args.model is not None:
        network = load_network(args.model)
    elif args.scenario is not None:
        from repro.scenarios import scenario

        network = scenario(args.scenario).compile().network
    else:
        spec = RandomNetworkSpec(
            num_nodes=args.nodes, num_commodities=args.commodities
        )
        network = random_stream_network(spec, seed=args.seed)

    config = ServeConfig(
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        refine_iterations=args.refine,
        warmup_iterations=args.warmup,
        validate_epochs=not args.no_validate,
        min_admit_rate=args.min_admit_rate,
    )
    options = SolveOptions(
        method="gradient",
        config=GradientConfig(eta=args.step_size),
        workers=args.workers,
        staleness=args.staleness,
    )
    inst = Instrumentation() if args.metrics_out else None

    async def run() -> None:
        server = AdmissionServer(
            network, config=config, options=options, instrumentation=inst
        )
        port = await server.start()
        # the readiness line scripts and the CI smoke job key off: one line,
        # stdout, flushed before any request is served
        print(
            f"repro.serve/1 listening on {config.host}:{port} "
            f"(batch-window {1e3 * config.batch_window:g} ms, "
            f"max-batch {config.max_batch}, "
            f"validate={'on' if config.validate_epochs else 'off'})",
            flush=True,
        )
        try:
            await server.wait_closed()
        except asyncio.CancelledError:
            await server.drain()
            raise

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    if inst is not None:
        inst.export_metrics(
            args.metrics_out,
            model=args.model
            or (f"scenario:{args.scenario}" if args.scenario else "generated"),
            method="serve",
        )
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def _add_solver_options(
    parser: argparse.ArgumentParser, positional_model: bool = True
) -> None:
    """Flags shared by ``solve``, ``profile``, and ``validate``."""
    if positional_model:
        parser.add_argument(
            "model", nargs="?", default=None,
            help="model file (or use --scenario)",
        )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="compile a named scenario's network as the input model "
        "instead of reading a file (see 'repro scenario list')",
    )
    parser.add_argument(
        "--method",
        choices=["gradient", "distributed", "optimal", "backpressure"],
        default="gradient",
    )
    parser.add_argument(
        "--step-size",
        type=float,
        default=0.04,
        help="gradient step size eta",
    )
    parser.add_argument("--eps", type=float, default=0.2)
    parser.add_argument("--adaptive", action="store_true", help="adaptive step scale")
    parser.add_argument("--max-iterations", type=int, default=20000)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run the batched-staleness worker pool on N processes "
        "(method=gradient only; N >= 2 needs --staleness)",
    )
    parser.add_argument(
        "--staleness",
        type=int,
        default=None,
        metavar="K",
        help="pool batches: up to K+1 iterations per worker round-trip with "
        "the global derivative held stale (K >= 1; needs --record-every > 1)",
    )
    parser.add_argument(
        "--execution",
        choices=["sync", "async"],
        default=None,
        help="distributed execution model: 'sync' phase barriers (default) "
        "or the barrier-free 'async' event-driven engine, where "
        "--staleness bounds how stale a node's neighbour view may be "
        "(method=distributed only; see docs/async.md)",
    )
    parser.add_argument(
        "--record-every",
        type=int,
        default=None,
        help="history sampling period (default: the method's own)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the repro.metrics/1 JSON document here",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write a chrome://tracing timeline here",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="audit the result against the paper's invariant catalog "
        "(see docs/validation.md) and print the report",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ICDCS'07 stream-processing reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random paper-style model")
    gen.add_argument("--nodes", type=int, default=40)
    gen.add_argument("--commodities", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="summarise a model file")
    info.add_argument("model")
    info.add_argument(
        "--json", action="store_true", help="emit a repro.info/1 JSON document"
    )
    info.set_defaults(func=_cmd_info)

    slv = sub.add_parser("solve", help="solve a model file")
    _add_solver_options(slv)
    slv.add_argument("-o", "--output", default=None)
    slv.add_argument(
        "--json",
        action="store_true",
        help="emit a repro.result/1 JSON document instead of the text summary",
    )
    slv.set_defaults(func=_cmd_solve)

    prof = sub.add_parser(
        "profile", help="solve with instrumentation on and print phase timings"
    )
    _add_solver_options(prof)
    prof.set_defaults(func=_cmd_profile)

    val = sub.add_parser(
        "validate",
        help="solve a model and audit the result against the invariant catalog",
    )
    val.add_argument(
        "model", nargs="?", default=None, help="model file (omit with --self-test)"
    )
    _add_solver_options(val, positional_model=False)
    val.add_argument(
        "--self-test",
        action="store_true",
        help="inject every known fault class and verify the checker catches each",
    )
    val.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any check fails",
    )
    val.add_argument(
        "--json",
        action="store_true",
        help="emit the repro.validation/1 report as JSON",
    )
    val.set_defaults(func=_cmd_validate)

    fig = sub.add_parser("figure4", help="quick Figure-4 reproduction")
    fig.add_argument("--seed", type=int, default=7)
    fig.add_argument("--max-iterations", type=int, default=3000)
    fig.add_argument("--bp-iterations", type=int, default=60000)
    fig.set_defaults(func=_cmd_figure4)

    scen = sub.add_parser(
        "scenario",
        help="list the named scenario catalog, or compile and run one",
    )
    scen_sub = scen.add_subparsers(dest="action", required=True)
    scen_list = scen_sub.add_parser("list", help="list the catalog")
    scen_list.add_argument(
        "--json", action="store_true",
        help="emit a repro.scenarios/1 JSON document",
    )
    scen_list.set_defaults(func=_cmd_scenario)
    scen_run = scen_sub.add_parser(
        "run",
        help="compile a named scenario and run it (online timeline, or the "
        "joint placement loop for placement=joint entries)",
    )
    scen_run.add_argument("name")
    scen_run.add_argument(
        "--seed", type=int, default=None,
        help="override the entry's pinned seed",
    )
    scen_run.add_argument(
        "--iterations", type=int, default=None,
        help="online horizon (default: past the last event)",
    )
    scen_run.add_argument("--step-size", type=float, default=0.04)
    scen_run.add_argument(
        "--json", action="store_true",
        help="emit a repro.scenario.run/1 JSON document",
    )
    scen_run.set_defaults(func=_cmd_scenario)

    srv = sub.add_parser(
        "serve",
        help="run the admission-control daemon (repro.serve/1 over TCP)",
    )
    srv.add_argument(
        "model", nargs="?", default=None,
        help="model file (omit to generate one from --nodes/--commodities/--seed)",
    )
    srv.add_argument("--nodes", type=int, default=40)
    srv.add_argument("--commodities", type=int, default=4)
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="serve a named scenario's compiled network "
        "(see 'repro scenario list'); clients can replay the same "
        "scenario's trace with 'python -m repro.serve.client "
        "--scenario NAME'",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick an ephemeral port, printed on the "
        "readiness line)",
    )
    srv.add_argument(
        "--batch-window", type=float, default=0.020, metavar="SECONDS",
        help="how long requests coalesce into one batch (default 20 ms)",
    )
    srv.add_argument("--max-batch", type=int, default=64)
    srv.add_argument(
        "--queue-limit", type=int, default=1024,
        help="pending event requests before overloaded (429) backpressure",
    )
    srv.add_argument(
        "--refine", type=int, default=8, metavar="ITERATIONS",
        help="gradient refinement steps per published epoch",
    )
    srv.add_argument(
        "--warmup", type=int, default=200, metavar="ITERATIONS",
        help="initial convergence before the daemon starts serving",
    )
    srv.add_argument(
        "--no-validate", action="store_true",
        help="skip the per-epoch invariant audit before publishing",
    )
    srv.add_argument(
        "--min-admit-rate", type=float, default=0.0, metavar="RATE",
        help="revert arrivals whose admitted rate stays below RATE",
    )
    srv.add_argument("--step-size", type=float, default=0.04)
    srv.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run warm-up and refine batches on an N-process pool "
        "(N >= 2 needs --staleness)",
    )
    srv.add_argument("--staleness", type=int, default=None, metavar="K")
    srv.add_argument(
        "--metrics-out", default=None,
        help="write the repro.metrics/1 document here on shutdown",
    )
    srv.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
