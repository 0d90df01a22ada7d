"""Exception hierarchy for the RESPECT reproduction library.

Every error raised by :mod:`repro` derives from :class:`RespectError` so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the failing subsystem.
"""

from __future__ import annotations


class RespectError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(RespectError):
    """Raised for malformed computational graphs (bad nodes/edges)."""


class CycleError(GraphError):
    """Raised when an operation requires a DAG but the graph has a cycle."""


class SchedulingError(RespectError):
    """Raised when a scheduler cannot produce a schedule."""


class InfeasibleScheduleError(SchedulingError):
    """Raised when the scheduling constraints admit no feasible solution."""


class SolverError(SchedulingError):
    """Raised when an external or internal solver fails unexpectedly."""


class DeploymentError(RespectError):
    """Raised when a schedule cannot be deployed on the Edge TPU system."""


class TrainingError(RespectError):
    """Raised for failures inside the RL training loop."""


class CheckpointError(RespectError):
    """Raised when a model checkpoint cannot be saved or loaded."""


class EmbeddingError(RespectError):
    """Raised when a graph cannot be embedded into the encoder queue."""


class ServiceError(RespectError):
    """Raised by the scheduling service (bad requests, closed service)."""


class WireFormatError(ServiceError):
    """Raised for malformed wire-format payloads (see :mod:`repro.service.wire`).

    Covers every way a payload can be bad — truncation, a foreign or
    corrupt byte stream, an unsupported format version, a checksum or
    fingerprint mismatch, and values the format cannot represent.  The
    message always names the specific violation so a failed decode is
    diagnosable from the exception alone.
    """


class DecodeWorkerError(ServiceError):
    """Raised when the decode worker pool cannot complete a decode.

    A worker process crashing mid-task is retried transparently (the
    task is resubmitted to a respawned worker); this error surfaces only
    when retries are exhausted, the task's payload itself is rejected by
    every worker, or a decode exceeds its timeout.
    """


class ServiceOverloadError(ServiceError):
    """Raised when admission control sheds a request from a saturated shard.

    Only the ``"shed"`` admission policy of
    :class:`~repro.service.SchedulingService` raises this; the
    ``"block"`` and ``"degrade"`` policies absorb overload instead.
    Callers catching it should back off and retry (the condition is
    transient by construction: the shard's queue was at its depth limit
    at submission time).
    """
