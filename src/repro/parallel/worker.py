"""Worker-process side of the batched-staleness worker pool.

Each worker owns a contiguous *shard* of commodities.  The pool initializer
receives the pickled :class:`~repro.core.transform.ExtendedNetwork` exactly
once (the static graph arrays never cross the pickle boundary again) and
attaches to the shared-memory arrays published by the master; after that,
per-batch task descriptors are a few bytes each.

The one task phase, ``batch``, runs several full iterations privately
over the owned shard with the global ``dadf`` frozen at its dispatch value
(the bounded-staleness mode of ``ParallelBackend(staleness=K)``); local
traffic rows are re-solved every inner iteration, so only the *global*
coupling is stale, exactly as the paper's Section-5 asynchronous protocol
allows.  A worker serves one epoch for its whole life: an epoch change
closes the pool.

Every kernel a batch runs is a :class:`~repro.core.state.ModelState`
row-block kernel: the serial engine's own sweeps restricted to the shard's
contiguous rows.
"""

from __future__ import annotations

import atexit
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.gradient import apply_gamma_batch
from repro.core.routing import external_inputs_rows
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork
from repro.parallel.shm import ArraySpec, attach_arrays

__all__ = ["FAULT_PHASES", "init_worker", "run_shard"]

# the phases ``ParallelBackend(inject_fault=...)`` can make every worker fail
FAULT_PHASES = ("batch",)

# Process-global worker state, set once by the pool initializer.
_EXT: Optional[ExtendedNetwork] = None
_ARRAYS: Dict[str, np.ndarray] = {}
_BLOCKS: List[Any] = []
_FAULT: Optional[str] = None
# private per-worker scratch for the batch body, keyed by name
_SCRATCH: Dict[str, np.ndarray] = {}


def _close_shared_memory() -> None:
    global _ARRAYS, _BLOCKS
    _ARRAYS = {}
    for block in _BLOCKS:
        try:
            block.close()
        except Exception:
            pass
    _BLOCKS = []


def init_worker(ext: ExtendedNetwork, specs: ArraySpec, fault: Optional[str]) -> None:
    """Pool initializer: receive the graph once, attach the shared arrays."""
    global _EXT, _ARRAYS, _BLOCKS, _FAULT
    _EXT = ext
    _ARRAYS, _BLOCKS = attach_arrays(specs)
    _FAULT = fault
    # build the shared ModelState eagerly so iteration-time tasks never pay
    # (or re-time) its construction
    ModelState.of(ext)
    atexit.register(_close_shared_memory)


def _scratch(name: str, shape: Tuple[int, ...], dtype=float) -> np.ndarray:
    """Private per-worker scratch array, allocated on first use."""
    array = _SCRATCH.get(name)
    if array is None or array.shape != shape:
        array = _SCRATCH[name] = np.zeros(shape, dtype=dtype)
    return array


def _batch_shard(
    lo: int,
    hi: int,
    iterations: int,
    eta: float,
    use_blocking: bool,
    traffic_tol: float,
) -> Dict[str, float]:
    """Run ``iterations`` private iterations over this shard's commodities.

    The bounded-staleness batch body: ``dadf`` stays frozen at its
    batch-start value for every inner iteration (that is the whole point --
    one round-trip buys ``iterations`` steps), while ``Gamma`` applies in
    place on the shard's shm ``phi`` rows and the shard's traffic rows are
    re-solved after every application, so local state is always fresh.
    Every read and write stays inside this shard's rows -- siblings running
    concurrently never observe (or miss) a byte of ours -- and the master
    computes usage over the batch-final rows once every shard has returned.
    """
    assert _EXT is not None, "worker used before init_worker ran"
    ext = _EXT
    state = ModelState.of(ext)
    phi = _ARRAYS["phi"]
    phi_flat = phi.reshape(-1)
    traffic = _ARRAYS["traffic"]
    t_flat = traffic.reshape(-1)
    dadf = _ARRAYS["dadf"]
    shape_jv = (ext.num_commodities, ext.num_nodes)
    shape_je = (ext.num_commodities, ext.num_edges)
    dadr = _scratch("dadr", shape_jv)
    delta = _scratch("delta", shape_je)
    plan = state.block(lo, hi).gamma_plan
    start = time.perf_counter()
    for _ in range(iterations):
        dadr[lo:hi] = 0.0
        state.marginal_costs_block(dadr.reshape(-1), phi_flat, dadf, lo, hi)
        delta[lo:hi] = 0.0
        state.edge_marginals_block(delta.reshape(-1), dadf, dadr.reshape(-1), lo, hi)
        blocked_flat: Optional[np.ndarray] = None
        if use_blocking:
            blocked = _scratch("blocked", shape_je, dtype=bool)
            blocked[lo:hi] = False
            if state.blocked_sets_block(
                blocked.reshape(-1),
                phi_flat,
                t_flat,
                dadr.reshape(-1),
                delta.reshape(-1),
                eta,
                lo,
                hi,
            ):
                blocked_flat = blocked.reshape(-1)
        if plan is not None:
            apply_gamma_batch(
                phi_flat, plan, t_flat, delta.reshape(-1), blocked_flat, eta,
                traffic_tol,
            )
        traffic[lo:hi] = external_inputs_rows(ext, lo, hi)
        state.solve_traffic_block(t_flat, phi_flat, lo, hi)
    return {"batch": time.perf_counter() - start}


def run_shard(phase: str, lo: int, hi: int, *args: Any) -> Tuple[int, Dict[str, float]]:
    """Task entry point: run one phase over commodities ``[lo, hi)``.

    Returns ``(lo, timings)`` so the master can attribute the per-phase
    wall-clock to the shard's logical worker in the instrumentation.
    """
    if _FAULT is not None and _FAULT == phase:
        raise RuntimeError(
            f"injected worker fault during {phase!r} (test hook)"
        )
    if phase == "batch":
        iterations, eta, use_blocking, traffic_tol = args
        return lo, _batch_shard(lo, hi, iterations, eta, use_blocking, traffic_tol)
    raise ValueError(f"unknown worker phase {phase!r}")
