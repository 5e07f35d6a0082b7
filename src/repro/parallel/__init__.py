"""Execution backends for the gradient engine.

See :mod:`repro.parallel.backend` for the two backend classes and
``docs/parallelism.md`` for the design: :class:`SerialBackend` is the
engine, and :class:`ParallelBackend` adds a process pool that runs
bounded-staleness batches (per-commodity sharding, shared-memory array
exchange, a monotonicity guard, crash safety and online refresh).
"""

from repro.parallel.backend import ParallelBackend, SerialBackend, resolve_backend

__all__ = ["SerialBackend", "ParallelBackend", "resolve_backend"]
