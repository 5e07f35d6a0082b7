"""Exception hierarchy for the streamflow reproduction package.

All exceptions raised by this package derive from :class:`StreamFlowError`, so
callers can catch a single base class.  Specific subclasses distinguish model
construction errors from numerical/algorithmic failures.
"""

from __future__ import annotations


class StreamFlowError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(StreamFlowError):
    """The stream-processing model is malformed (bad graph, tasks, rates)."""


class ValidationError(ModelError):
    """A model object failed validation (e.g. Property 1 violated)."""


class TransformError(StreamFlowError):
    """The extended-graph transformation could not be constructed."""


class RoutingError(StreamFlowError):
    """Routing variables are invalid (negative, non-stochastic, off-graph)."""


class InfeasibleError(StreamFlowError):
    """A flow or allocation violates a hard constraint."""


class ConvergenceError(StreamFlowError):
    """An iterative algorithm failed to converge within its iteration budget."""


class SolverError(StreamFlowError):
    """A centralized solver (LP / convex) failed or returned an invalid result."""


class ParallelExecutionError(StreamFlowError):
    """The worker pool failed (worker crash, broken pool, misuse)."""


class SimulationError(StreamFlowError):
    """The message-passing simulation reached an inconsistent state."""


class ProtocolError(SimulationError):
    """A node agent received a message that violates the protocol contract."""


class ServeError(StreamFlowError):
    """The admission-control daemon (``repro.serve``) failed."""


class ServeRequestError(ServeError):
    """A ``repro.serve/1`` request is malformed (the client's fault)."""


class ServeUnavailableError(ServeError):
    """The background optimizer is down; event requests get 503-style
    responses until the daemon is restarted."""
