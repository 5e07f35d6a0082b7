"""Print the ``solve_lp`` utility optimum of each model file, as a JSON list.

Run by :func:`common.lp_optima` in a child process::

    PYTHONPATH=src python3 perfbench/lp.py model1.json [model2.json ...]
"""

from __future__ import annotations

import json
import sys


def main(paths):
    from repro import build_extended_network
    from repro.core.commodity import StreamNetwork
    from repro.core.optimal import solve_lp
    from repro.io import load_network

    # a serve checkpoint model may have been split into islands by link
    # failures, which the model accepts after failure events
    # (validate(require_connected=False)); load_network always asks for a
    # connected graph
    validate = StreamNetwork.validate
    StreamNetwork.validate = lambda self, require_connected=True: validate(
        self, require_connected=False
    )
    return [solve_lp(build_extended_network(load_network(p))).utility for p in paths]


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
