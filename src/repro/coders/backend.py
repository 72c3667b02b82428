"""The lossless coders a stream can name.

A stream names the lossless coder of its anchor block and of every plane
block, and its reader resolves those names here — the FZ framework's
pluggable lossless stage described in the paper (§3.2).  There are two:
``zlib`` (DEFLATE, the paper's zstd stand-in) and ``raw`` (the block stored
verbatim), the two outcomes of the writer's entropy stage
(:func:`repro.core.predictive_coder.negotiate_level`, which stores a
level's planes below two stored in a row untried: byte-identical on the
registry datasets bar one tied plane, ≤ 0.8 % larger on a 64-value field).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from repro.coders.zlib_backend import ZlibCoder
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


def available_backends() -> tuple[str, ...]:
    """Return the names of all backends, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> Backend:
    """Instantiate the backend called ``name``.

    Raises
    ------
    ConfigurationError
        If there is no backend with that name.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown lossless backend {name!r}; available: {available_backends()}"
        ) from None
    return factory()


class RawCoder:
    """Identity backend — useful for isolating the effect of the lossy stage."""

    name = "raw"

    def encode(self, data: bytes) -> bytes:
        return bytes(data)

    def decode(self, data: bytes, max_length: Optional[int] = None) -> bytes:
        return bytes(data)


#: Name → factory of every coder (a closed table: a stream can only name
#: what every reader can resolve).
_REGISTRY: Dict[str, Callable[[], Backend]] = {"zlib": ZlibCoder, "raw": RawCoder}
