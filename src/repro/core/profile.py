"""CodecProfile: the single configuration object of the whole system.

Every layer — :class:`repro.IPComp`, the progressive retriever, the
block-parallel compressor, the file-backed :class:`repro.io.ChunkedDataset`,
the baselines adapter, and the CLI — is configured by one frozen dataclass
instead of ad-hoc keyword plumbing.  A profile bundles:

* the **lossy stage** — error bound (+ relative flag), interpolation method,
  prefix bits of the predictive bitplane coder;
* the **runtime knobs** of retrieval and serving — remote prefetch, pool
  workers, cache budget and verification — which never change a byte.

The lossless stage is not configurable: every packed plane is deflated, or
stored verbatim when that is not smaller
(:func:`repro.core.predictive_coder.negotiate_encode`), and the stream
records which per plane.

Profiles are immutable, hashable, picklable (they cross process boundaries in
:mod:`repro.parallel`), and JSON round-trippable (they are embedded in
dataset manifests and loaded from ``--profile`` files by the CLI).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.bitplane import DEFAULT_PREFIX_BITS, check_prefix_bits
from repro.errors import ConfigurationError

#: Keys old ``CodecProfile.dump()`` files carry for options that no longer
#: exist (``io_backend`` until 3.0, ``kernel`` until 4.0, the four
#: lossless-coder fields until 5.0): dropped on load.
LEGACY_JSON_KEYS = (
    "io_backend",
    "kernel",
    "anchor_coder",
    "plane_coders",
    "negotiation",
    "negotiation_sample",
)


@dataclass(frozen=True)
class CodecProfile:
    """Unified codec configuration.

    Parameters
    ----------
    error_bound:
        The point-wise L∞ bound ``eb``.  Interpreted as absolute unless
        ``relative`` is true, in which case it is multiplied by the value
        range of each field at compression time (the SDRBench convention the
        paper uses).
    relative:
        Whether ``error_bound`` is value-range relative.
    method:
        Interpolation formula: ``"cubic"`` (default) or ``"linear"``.
    prefix_bits:
        Number of prefix bits of the predictive bitplane coder (0–3; 2 is
        the paper's choice, Table 2).
    prefetch:
        Retrieval-side knob: 0 = serial, any positive value = multiplexed
        remote reads; ignored for local files (they read synchronously).
        A pure runtime choice — it never changes any byte, reported byte
        count, or range trace.
    workers:
        Read-side knob: pool-decode worker processes for stateless reads
        of a local container (0/1 = in-process decode), taken as the
        default by ``ChunkedDataset(path, profile=...)`` and by ``retrieve``
        / ``decompress --profile``.  The write side has a ``workers`` of
        its own (``ChunkedDataset.write(workers=)``, ``compress
        --workers``) and never reads this field; neither does the serving
        layer, which decodes in-process.  Runtime-only, output
        bitwise-identical either way.
    cache_bytes:
        Serving-side knob: byte budget of the
        :class:`~repro.service.RetrievalService` tiered cache (decoded slabs
        + resident plane rungs).  ``0`` means the service default.  Like
        ``prefetch`` / ``workers`` it is runtime-only: it never
        changes any served byte, reported byte count, or range trace — only
        how much physical I/O a warm request can skip.
    cache_verify:
        Serving-side knob: verify the checksum of a cached decoded slab on
        every hit, so a poisoned cache entry is invalidated and recomputed
        instead of served.  Runtime-only.
    """

    error_bound: float = 1e-6
    relative: bool = True
    method: str = "cubic"
    prefix_bits: int = DEFAULT_PREFIX_BITS
    prefetch: int = 0
    workers: int = 0
    cache_bytes: int = 0
    cache_verify: bool = True

    def __post_init__(self) -> None:
        if self.error_bound <= 0 or not np.isfinite(self.error_bound):
            raise ConfigurationError("error_bound must be a positive finite number")
        if self.method not in ("cubic", "linear"):
            raise ConfigurationError("method must be 'cubic' or 'linear'")
        check_prefix_bits(self.prefix_bits)
        for name in ("prefetch", "workers", "cache_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer")
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not isinstance(self.cache_verify, bool):
            raise ConfigurationError("cache_verify must be a boolean")

    # -------------------------------------------------------------- derived

    def absolute_bound(self, data: np.ndarray) -> float:
        """The absolute ``eb`` this profile implies for a given field."""
        from repro.core.quantizer import relative_to_absolute

        if self.relative:
            return relative_to_absolute(self.error_bound, data)
        return self.error_bound

    def resolve(self, data: np.ndarray) -> "CodecProfile":
        """A copy with the range-relative bound resolved to an absolute one.

        Block-parallel and sharded compression resolve the bound once from
        the *global* field so every slab honours the same absolute bound.
        """
        if not self.relative:
            return self
        return self.replace(error_bound=self.absolute_bound(data), relative=False)

    def replace(self, **changes) -> "CodecProfile":
        """A copy of this profile with ``changes`` applied (and validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------ construction

    @classmethod
    def from_options(
        cls,
        profile: "CodecProfile | None" = None,
        *,
        error_bound: "float | None" = None,
        relative: "bool | None" = None,
        **overrides,
    ) -> "CodecProfile":
        """Build a profile from an optional base plus field overrides.

        This is the one place keyword configuration enters the system: every
        façade (``IPComp``, ``BlockParallelCompressor``,
        ``ChunkedDataset.write``, the baselines adapter) funnels its kwargs
        through here.  Unknown names raise :class:`ConfigurationError` (a
        ``ValueError``) listing the valid fields, so a typo like ``metod=``
        fails loudly instead of being silently swallowed.

        ``error_bound`` and ``relative`` are named so the façades' optional
        parameters flow through directly: ``None`` means *unspecified* —
        defer to the base profile (or the field default) — which is what
        lets an explicitly passed profile keep its bound.
        """
        if error_bound is not None:
            overrides["error_bound"] = error_bound
        if relative is not None:
            overrides["relative"] = relative
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ConfigurationError(
                f"unknown codec option(s) {unknown}; valid fields: {sorted(valid)}"
            )
        if profile is None:
            return cls(**overrides)
        if not isinstance(profile, cls):
            raise ConfigurationError(
                f"profile must be a CodecProfile, got {type(profile).__name__}"
            )
        return profile.replace(**overrides) if overrides else profile

    # ------------------------------------------------------------------ JSON

    def to_json(self, *, runtime: bool = True) -> dict:
        """JSON form of the profile.

        ``runtime=False`` omits the runtime-only fields — ``prefetch``,
        ``workers``, ``cache_bytes``, ``cache_verify`` — which never change
        the bytes, so on-disk artefacts (dataset manifests) exclude them to
        stay byte-identical across runtime configurations; ``--profile``
        files keep them.
        """
        obj = {
            "error_bound": float(self.error_bound),
            "relative": bool(self.relative),
            "method": self.method,
            "prefix_bits": int(self.prefix_bits),
            "prefetch": int(self.prefetch),
            "workers": int(self.workers),
            "cache_bytes": int(self.cache_bytes),
            "cache_verify": bool(self.cache_verify),
        }
        if not runtime:
            for name in (
                "prefetch",
                "workers",
                "cache_bytes",
                "cache_verify",
            ):
                del obj[name]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "CodecProfile":
        if not isinstance(obj, dict):
            raise ConfigurationError("codec profile JSON must be an object")
        obj = {k: v for k, v in obj.items() if k not in LEGACY_JSON_KEYS}
        return cls.from_options(None, **obj)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CodecProfile":
        """Load a profile from a JSON file (the CLI's ``--profile``)."""
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read codec profile {path}: {exc}") from None
        return cls.from_json(obj)

    def dump(self, path: Union[str, Path]) -> None:
        """Write the profile as readable JSON."""
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")
