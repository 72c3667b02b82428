"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause
while still being able to distinguish configuration mistakes from corrupted
streams.  :func:`check_count` is the one validation rule of a count-valued
knob, applied where the knob lives.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter was supplied (bad error bound, shape, mode...)."""


class StreamFormatError(ReproError, ValueError):
    """A compressed stream is malformed, truncated, or has a bad magic/version."""


class RetrievalError(ReproError, RuntimeError):
    """A progressive retrieval request cannot be satisfied.

    Raised for example when a bitrate budget is smaller than the mandatory
    header + anchor payload, or when an incremental refinement asks for a
    *looser* fidelity than what was already reconstructed.
    """


class RemoteSourceError(ReproError, OSError):
    """A remote byte-range backend failed at the transport level.

    Covers connection failures, unexpected HTTP statuses, ``Content-Range``
    mismatches, open circuit breakers, and exceeded request deadlines.
    Subclasses :class:`OSError` so every existing retry ladder (the
    service's, the remote stack's) already treats
    it as transient, while staying distinct from
    :class:`StreamFormatError` — the *stream* may be fine, the *network*
    was not.
    """


class RemoteIntegrityError(RemoteSourceError):
    """A fetched payload failed its per-fetch checksum.

    The bytes arrived but do not match the checksum the server declared
    for the range — in-flight corruption, a mid-rewrite mirror, a broken
    proxy.  Retryable (a re-fetch usually heals it) and deliberately *not*
    a :class:`StreamFormatError`: the stored stream is presumed intact.
    """


class CircuitOpenError(RemoteSourceError):
    """An endpoint's circuit breaker is open: the read failed fast, untried.

    No retry of the same endpoint can succeed before the breaker's
    cooldown, so an endpoint's retry loop re-raises it at once; a mirror
    set still fails over on it, like on any other transport failure.
    """


def check_count(name: str, value, *, positive: bool = False) -> None:
    """A count-valued knob: an integer ≥ 0 (≥ 1 when ``positive``), or a
    :class:`ConfigurationError` naming it — never a silent clamp."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < (1 if positive else 0)
    ):
        kind = "positive" if positive else "non-negative"
        raise ConfigurationError(f"{name} must be a {kind} integer, got {value!r}")
