"""Backend registry for lossless coders.

A stream names the lossless coder of its anchor block and of every plane
block, and its reader resolves those names here — the FZ framework's
pluggable lossless stage described in the paper (§3.2).  Two coders are
registered: ``zlib`` (DEFLATE, the paper's zstd stand-in) and ``raw`` (the
block stored verbatim), the two outcomes of the writer's entropy stage
(:func:`repro.core.predictive_coder.negotiate_encode`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from repro.errors import ConfigurationError


class Backend(Protocol):
    """Minimal protocol every lossless backend implements."""

    #: Registry name of the backend.
    name: str

    def encode(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        """Losslessly compress ``data``."""
        ...

    def decode(
        self, data: bytes, max_length: Optional[int] = None
    ) -> bytes:  # pragma: no cover - protocol
        """Invert :meth:`encode`, producing no more than ``max_length`` bytes.

        ``data`` may be hostile: a coder whose output can exceed its input
        must stop at the bound and raise
        :class:`~repro.errors.StreamFormatError` on malformed input.
        """
        ...


_REGISTRY: Dict[str, Callable[[], Backend]] = {}


def register_backend(
    name: str, factory: Callable[[], Backend], *, replace: bool = False
) -> None:
    """Register a lossless backend factory under ``name``.

    Re-registering an existing name is rejected unless ``replace=True`` —
    a silent replacement would let two subsystems fight over a name and
    corrupt streams written with the original coder.  Tests that inject
    instrumented backends pass ``replace=True`` explicitly.
    """
    if not name:
        raise ConfigurationError("backend name must be a non-empty string")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"lossless backend {name!r} is already registered; "
            "pass replace=True to override it"
        )
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Return the names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> Backend:
    """Instantiate the backend registered under ``name``.

    Raises
    ------
    ConfigurationError
        If no backend with that name has been registered.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown lossless backend {name!r}; available: {available_backends()}"
        ) from None
    return factory()


def _register_defaults() -> None:
    """Register the built-in backends lazily to avoid import cycles."""
    from repro.coders.zlib_backend import ZlibCoder

    register_backend("zlib", ZlibCoder)
    register_backend("raw", RawCoder)


class RawCoder:
    """Identity backend — useful for isolating the effect of the lossy stage."""

    name = "raw"

    def encode(self, data: bytes) -> bytes:
        return bytes(data)

    def decode(self, data: bytes, max_length: Optional[int] = None) -> bytes:
        return bytes(data)


_register_defaults()
