#!/usr/bin/env python3
"""Admission control as a service: drive the ``repro.serve`` daemon.

The paper's distributed algorithm decides, per commodity, how much offered
rate the system admits at max utility.  ``repro.serve`` packages that
decision loop as a daemon: a TCP endpoint accepts churn events
(new-session admission requests, demand changes, capacity changes,
failures), takes everything queued as one batch the moment its optimizer
is free, applies each batch to the live epoch-versioned model as a few
compiled deltas, refines with the warm gradient engine, and publishes the
next epoch only after the invariant audit passes.

This demo embeds the daemon in-process (:class:`ServerThread`), connects
the line-protocol client, and walks one small operational story:

* a demand surge on an existing session,
* a session departure followed by its re-admission at a higher offered
  rate (the paper's admission-control case -- the daemon may admit it
  below what it asks for),
* a capacity cut on its source node,
* a node failure, which drops whatever routed through it.

Every response carries the admission decision plus the epoch that made
it, so the printed table is a faithful audit trail of the daemon's
published epochs.

Run:  python examples/serve_demo.py
"""

from repro.analysis import TableBuilder
from repro.io import commodity_to_dict
from repro.serve import ServeConfig, ServerThread
from repro.serve.client import ServeClient
from repro.scenarios import scenario

# the catalog pins the instance (24 nodes, 4 streams, seed 11); the same
# name works everywhere: `repro scenario run serve-demo-24`, or
# `python -m repro.serve.client --scenario serve-demo-24` against a live
# daemon, reproduce this exact network
SCENARIO_NAME = "serve-demo-24"


def describe(label: str, doc: dict) -> list:
    """One table row out of an event response."""
    rate = doc.get("admitted_rate")
    return [
        label,
        doc.get("commodity", "-"),
        doc["decision"],
        f"{rate:.3f}" if rate is not None else "-",
        doc["epoch"],
        f"{doc['utility']:.2f}",
    ]


def main() -> None:
    network = scenario(SCENARIO_NAME).compile().network
    # a demo is latency-unconstrained: spend more refine iterations per
    # batch than a serving deployment would, so each printed admitted
    # rate is well converged
    config = ServeConfig(refine_iterations=40, warmup_iterations=200)
    rows = []
    with ServerThread(network, config=config) as port:
        with ServeClient("127.0.0.1", port) as client:
            hello = client.hello()
            print(
                f"daemon up on port {port}: "
                f"{len(hello['model']['nodes'])} nodes, "
                f"{len(hello['model']['commodities'])} commodities, "
                f"epoch {hello['epoch']}, utility {hello['utility']:.2f}"
            )

            surged = network.commodities[0]
            rows.append(describe(
                "demand surge (2x)",
                client.demand(surged.name, 2.0 * surged.max_rate),
            ))

            # session churn: one commodity leaves, then asks back in at a
            # higher offered rate -- the admission-control case (each sink
            # serves one commodity, so re-admission frees its slot first)
            churner = network.commodities[1]
            rows.append(describe(
                "session departs", client.depart(churner.name)
            ))
            spec = commodity_to_dict(churner)
            spec["max_rate"] = 1.5 * spec["max_rate"]
            rows.append(describe(
                "re-admit at 1.5x rate", client.admit(spec)
            ))

            victim = churner.source
            rows.append(describe(
                "capacity cut (50%)",
                client.capacity(
                    victim, 0.5 * network.physical.node(victim).capacity
                ),
            ))

            failed = network.commodities[2].source
            doc = client.node_down(failed)
            rows.append(describe(f"node {failed!r} fails", doc))
            if doc.get("dropped_commodities"):
                print(
                    "dropped by the failure: "
                    + ", ".join(doc["dropped_commodities"])
                )

            stats = client.stats()

    table = TableBuilder(
        ["event", "commodity", "decision", "admitted rate", "epoch", "utility"]
    )
    for row in rows:
        table.add_row(*row)
    print()
    print(table.render(title="Admission decision audit trail"))

    counters = stats["stats"]
    print(
        f"\ndaemon processed {counters['requests_total']} requests in "
        f"{counters['batches']} batches: "
        f"{counters['events_accepted']} admission decisions accepted, "
        f"{counters['events_rejected']} rejected, "
        f"{counters['validation_failures']} epochs failed the audit"
    )
    print(f"final epoch {stats['epoch']}, every published epoch audited")


if __name__ == "__main__":
    main()
