"""The unified solver-option surface: one frozen :class:`SolveOptions`.

The keyword surface of :func:`repro.solve` accreted one axis at a time --
``workers=`` (PR 3), ``backend=``/``staleness=`` (PR 4), ``validate=``
(PR 5) -- and the CLI and :class:`repro.online.OnlineOrchestrator` each
re-spelled the same knobs.  :class:`SolveOptions` is the single source of
truth: every entry point (``solve()``, the CLI, the orchestrator) accepts
one frozen options object, and the drifted per-call kwargs survive as
deprecated aliases that construct the same object internally (see the
migration table in docs/api.md).

Round-trip law (pinned by tests/test_options.py)::

    SolveOptions.from_kwargs(**opts.to_kwargs()) == opts

and ``solve(net, options=opts)`` is bit-identical to
``solve(net, **opts.to_kwargs())``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Optional, Union

__all__ = ["SolveOptions"]


@dataclass(frozen=True)
class SolveOptions:
    """Every knob a solve run takes, as one immutable value.

    Attributes
    ----------
    method:
        ``"gradient"`` (default) / ``"distributed"`` / ``"optimal"`` /
        ``"backpressure"``.
    config:
        The method's config object (:class:`~repro.core.GradientConfig` or
        :class:`~repro.core.BackpressureConfig`), or ``None`` for defaults.
    workers:
        Worker processes for the batched-staleness pool: ``None`` or ``1``
        (the serial engine), or ``N >= 2`` together with ``staleness``.
    backend:
        A borrowed :class:`~repro.parallel.SerialBackend` or
        :class:`~repro.parallel.ParallelBackend` instance, or ``None``.
    staleness:
        The pool's batch depth ``K >= 1``: up to ``K + 1`` iterations per
        worker round-trip.  Under ``execution="async"`` the same number
        bounds how many epochs a node's neighbour view may lag before it
        must wait.
    execution:
        Execution model for ``method="distributed"``: ``None``/``"sync"``
        for the phase-barrier runner, ``"async"`` for the barrier-free
        event-driven engine (:class:`repro.simulation.AsyncGradientRun`).
    validate:
        ``False`` / ``True`` / ``"strict"`` -- the invariant-catalog audit.
    instrumentation:
        Optional :class:`repro.obs.Instrumentation` hook.
    full_result:
        Return the full ``RunResult`` instead of just the ``Solution``.
    """

    method: str = "gradient"
    config: Any = None
    workers: Optional[int] = None
    backend: Any = None
    staleness: Optional[int] = None
    execution: Optional[str] = None
    validate: Union[bool, str] = False
    instrumentation: Any = None
    full_result: bool = False

    def to_kwargs(self) -> dict:
        """The equivalent legacy keyword dict (the deprecated alias form)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "SolveOptions":
        """Build options from the legacy keyword spelling.

        Unknown keys raise ``TypeError`` -- the per-field config aliases
        (``eta=`` and friends) belong to the config object, not here.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise TypeError(
                f"SolveOptions got unexpected keyword arguments {unknown}"
            )
        return cls(**kwargs)

    def replace(self, **changes: Any) -> "SolveOptions":
        """A copy with the given fields replaced (frozen-safe)."""
        merged = self.to_kwargs()
        merged.update(changes)
        return SolveOptions.from_kwargs(**merged)
