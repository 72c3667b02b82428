"""CodecProfile: the single configuration object of the whole system.

Every layer — :class:`repro.IPComp`, the progressive retriever, the
block-parallel compressor, the file-backed :class:`repro.io.ChunkedDataset`,
the baselines adapter, and the CLI — is configured by one frozen dataclass
instead of ad-hoc ``error_bound=`` / ``backend=`` keyword plumbing.  A profile
bundles:

* the **lossy stage** — error bound (+ relative flag), interpolation method,
  prefix bits of the predictive bitplane coder;
* the **per-stage lossless coders** — the anchor-block coder and the
  candidate set for the plane blocks;
* the **backend-negotiation policy** — how a plane block's coder is chosen
  from the candidates at compression time.

With ``negotiation="smallest"`` (the default, also accepted as ``"full"``)
every packed plane block is trial-encoded against each candidate and the
smallest output wins (ties go to the earlier candidate, so the choice is
deterministic); the winning coder name is recorded per ``(level, plane)`` in
the stream-v2 header, making streams self-describing.
``negotiation="sampled"`` probes two deterministic plane prefixes (half and
all of ``negotiation_sample`` bytes) per candidate, extrapolates each
candidate's full-plane size from the affine fit, and encodes the plane once
with the predicted winner — O(candidates × sample) negotiation cost instead
of O(candidates × plane), which is what makes wide candidate sets
affordable on large fields; the choice is still deterministic and still
recorded in the header, so sampled streams decode exactly like full ones.
``negotiation="fixed"`` skips the trials and uses the first candidate
everywhere — the v1-era single-backend behaviour.

Profiles are immutable, hashable, picklable (they cross process boundaries in
:mod:`repro.parallel`), and JSON round-trippable (they are embedded in
dataset manifests and loaded from ``--profile`` files by the CLI).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.core.bitplane import DEFAULT_PREFIX_BITS, check_prefix_bits
from repro.errors import ConfigurationError

#: Negotiation policies understood by :class:`CodecProfile`.
NEGOTIATION_POLICIES = ("smallest", "sampled", "fixed")

#: Accepted spellings that normalise to a canonical policy name.
NEGOTIATION_ALIASES = {"full": "smallest"}

#: Default number of packed-plane prefix bytes trial-encoded per candidate
#: under ``negotiation="sampled"``.  64 KiB keeps the probe cheap while
#: covering several compression-window lengths of every built-in coder.
DEFAULT_NEGOTIATION_SAMPLE = 65536

#: Default plane-coder candidate set (ordered: ties pick the earliest).
#: Deliberately small: ``zlib`` wins on compressible planes, ``raw`` on
#: incompressible ones, and both trial-encodes are cheap — wider sets
#: (``huffman``, ``rle``, ``lz77``) trade compression speed for rarely-won
#: planes and are opt-in via the profile.
DEFAULT_PLANE_CODERS = ("zlib", "raw")

#: Keys old ``CodecProfile.dump()`` files carry for options that no longer
#: exist (``io_backend`` until 3.0, ``kernel`` until 4.0): dropped on load.
LEGACY_JSON_KEYS = ("io_backend", "kernel")


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
    anchor_coder:
        Registered lossless coder used for the (small, always fully loaded)
        anchor block.
    plane_coders:
        Ordered candidate coders for the bitplane blocks.  With
        ``negotiation="fixed"`` only the first entry is used.
    negotiation:
        ``"smallest"`` (accepted alias: ``"full"``) trial-encodes every
        plane against all candidates and keeps the smallest output;
        ``"sampled"`` picks the winner on a ``negotiation_sample``-byte
        plane prefix and encodes once with it; ``"fixed"`` always uses
        ``plane_coders[0]``.
    negotiation_sample:
        **Upper bound** on the packed-plane prefix bytes trial-encoded per
        candidate under the ``"sampled"`` policy; the effective probe is
        autotuned per plane from the plane's size (see
        :func:`repro.core.predictive_coder.effective_negotiation_sample`).
        Ignored by the other policies (and by planes that fit inside the
        probe, which are fully negotiated).
    prefetch:
        Retrieval-side knob: number of planned byte ranges kept in flight
        by the retrieval engine's background prefetcher (0 = synchronous
        reads).  A pure runtime choice — it never changes any byte,
        reported byte count, or range trace.
    workers:
        Retrieval-side knob: pool-decode worker processes for stateless
        container reads (0/1 = in-process decode).  Runtime-only, output
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
    anchor_coder: str = "zlib"
    plane_coders: Tuple[str, ...] = DEFAULT_PLANE_CODERS
    negotiation: str = "smallest"
    negotiation_sample: int = DEFAULT_NEGOTIATION_SAMPLE
    prefetch: int = 0
    workers: int = 0
    cache_bytes: int = 0
    cache_verify: bool = True

    def __post_init__(self) -> None:
        from repro.coders.backend import available_backends

        if self.error_bound <= 0 or not np.isfinite(self.error_bound):
            raise ConfigurationError("error_bound must be a positive finite number")
        if self.method not in ("cubic", "linear"):
            raise ConfigurationError("method must be 'cubic' or 'linear'")
        check_prefix_bits(self.prefix_bits)
        object.__setattr__(
            self,
            "negotiation",
            NEGOTIATION_ALIASES.get(self.negotiation, self.negotiation),
        )
        if self.negotiation not in NEGOTIATION_POLICIES:
            raise ConfigurationError(
                f"negotiation must be one of {NEGOTIATION_POLICIES} "
                f"(or an alias {tuple(NEGOTIATION_ALIASES)}), "
                f"got {self.negotiation!r}"
            )
        if not isinstance(self.negotiation_sample, int) or isinstance(
            self.negotiation_sample, bool
        ):
            raise ConfigurationError("negotiation_sample must be an integer")
        if self.negotiation_sample < 1:
            raise ConfigurationError("negotiation_sample must be positive")
        for name in ("prefetch", "workers", "cache_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer")
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not isinstance(self.cache_verify, bool):
            raise ConfigurationError("cache_verify must be a boolean")
        # Coerce list/single-string plane coders to a tuple so profiles built
        # from JSON (or sloppy callers) stay hashable and picklable.
        coders = self.plane_coders
        if isinstance(coders, str):
            coders = (coders,)
        object.__setattr__(self, "plane_coders", tuple(coders))
        if not self.plane_coders:
            raise ConfigurationError("plane_coders must name at least one coder")
        known = available_backends()
        for name in (self.anchor_coder, *self.plane_coders):
            if name not in known:
                raise ConfigurationError(
                    f"unknown lossless coder {name!r}; available: {known}"
                )

    # -------------------------------------------------------------- derived

    @property
    def candidates(self) -> Tuple[str, ...]:
        """The effective plane-coder candidate set under the policy."""
        if self.negotiation == "fixed":
            return (self.plane_coders[0],)
        return self.plane_coders

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
    def fixed(cls, coder: str, **overrides) -> "CodecProfile":
        """A single-coder profile (no negotiation), e.g. ``fixed("huffman")``."""
        overrides.setdefault("anchor_coder", coder)
        return cls(plane_coders=(coder,), negotiation="fixed", **overrides)

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

        The legacy ``backend=`` keyword of the v1-era configuration is
        accepted as shorthand for a fixed single-coder profile.
        """
        if error_bound is not None:
            overrides["error_bound"] = error_bound
        if relative is not None:
            overrides["relative"] = relative
        if "backend" in overrides:
            legacy = overrides.pop("backend")
            overrides.setdefault("anchor_coder", legacy)
            overrides.setdefault("plane_coders", (legacy,))
            overrides.setdefault("negotiation", "fixed")
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ConfigurationError(
                f"unknown codec option(s) {unknown}; valid fields: {sorted(valid)} "
                "(plus legacy 'backend')"
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
            "anchor_coder": self.anchor_coder,
            "plane_coders": list(self.plane_coders),
            "negotiation": self.negotiation,
            "negotiation_sample": int(self.negotiation_sample),
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
