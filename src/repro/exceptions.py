"""Exception hierarchy used across the Garfield reproduction.

Every error raised by the library derives from :class:`GarfieldError` so
applications can catch library failures with a single ``except`` clause.
"""


class GarfieldError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(GarfieldError):
    """An invalid configuration was supplied (bad cluster sizes, f/n ratios...)."""


class AggregationError(GarfieldError):
    """A GAR could not aggregate its inputs (wrong shapes, too few vectors...)."""


class ResilienceConditionError(ConfigurationError):
    """The Byzantine resilience condition relating ``n`` and ``f`` is violated.

    Each GAR has a minimum number of inputs ``q`` required to tolerate ``f``
    Byzantine inputs (e.g. ``q >= 2f + 3`` for Multi-Krum).  Constructing an
    aggregator that violates the condition raises this error.
    """


class CommunicationError(GarfieldError):
    """A simulated RPC failed (timeout, crashed peer, dropped message)."""


class SerializationError(CommunicationError):
    """A wire codec failure: malformed header, truncated body, bad format tag,
    a delta-encoded vector without its reference, or values outside the range
    a quantized format can represent.

    Subclasses :class:`CommunicationError` so callers treating any RPC
    failure uniformly keep working; catch this type to distinguish corrupt
    bytes from crashed peers.
    """


class MissingPayloadError(CommunicationError):
    """A request shipped no payload, and its handler holds nothing to serve
    in its stead: a gradient request without a model reached a worker whose
    cache does not hold the requested iteration.

    The process backend sends no model to a worker host that already
    answered the iteration, so this is raised only where that bookkeeping is
    wrong — loudly, as a typed error response, never a crash of the host.
    """


class TimeoutError(CommunicationError):
    """A blocking collection (``get_gradients`` / ``get_models``) timed out."""


class NodeCrashedError(CommunicationError):
    """The remote node targeted by an RPC has crashed."""


class DialError(NodeCrashedError):
    """The connect phase of an RPC failed (refused, reset, unreachable,
    connect-timeout) — the peer never accepted the call.

    Subclasses :class:`NodeCrashedError` so every existing crashed-peer
    handler keeps working; catch this type to distinguish "could not even
    dial" (cheap to retry against a respawning host) from "died mid-call".
    Dial failures are retryable under a :class:`repro.network.resilience.\
RetryPolicy` — no request reached the peer, so retrying is always safe.
    """


class DeadlineError(TimeoutError):
    """The read deadline expired mid-call: the peer accepted the connection
    but did not produce a full reply in time — slow-but-alive, not dead.

    Subclasses :class:`TimeoutError` (and therefore
    :class:`CommunicationError`); distinguishing it from
    :class:`NodeCrashedError` is the point — a wedged or overloaded host
    should feed the liveness detector's *suspect* path, not its *dead* path.
    """


class TrainingError(GarfieldError):
    """Training failed (diverged to NaN, no workers responded, ...)."""


class DatasetError(GarfieldError):
    """A dataset could not be generated or partitioned as requested."""
