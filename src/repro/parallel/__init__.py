"""Execution backends for the gradient engine.

See :mod:`repro.parallel.backend` for the two backend classes and
``docs/parallelism.md`` for the design: :class:`SerialBackend` is the
engine, and :class:`ParallelBackend` adds a process pool that runs
bounded-staleness batches of a cold solve (per-commodity sharding,
shared-memory array exchange, a monotonicity guard and crash safety).  An
epoch change closes the pool; live models run the serial engine.
"""

from repro.parallel.backend import ParallelBackend, SerialBackend, resolve_backend

__all__ = ["SerialBackend", "ParallelBackend", "resolve_backend"]
