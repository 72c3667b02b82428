"""CodecProfile: the codec's configuration — the four fields that shape bytes.

Every writer — :class:`repro.IPComp`, :meth:`repro.io.ChunkedDataset.write`
(and the block-parallel compressor under it), the baselines adapter, and the
CLI's ``compress`` / ``demo`` — is configured by one frozen dataclass instead of
ad-hoc keyword plumbing.  A profile is the **lossy stage** and nothing else:
the error bound (+ relative flag), the interpolation method and the prefix
bits of the predictive bitplane coder (the paper's Table 2 parameters).

A read takes no profile: streams are self-describing, so decoding needs only
a fidelity target.  Runtime knobs live where they act, each validated there
— ``ChunkedDataset(prefetch=)``, ``RetrievalService(cache_bytes=)`` and
the CLI flags of the same names — and never in a profile.

The lossless stage is not configurable: each plane is deflated or stored,
and a level's planes below two stored in a row are stored untried — on the
registry byte-identical bar one tied plane, ≤ 0.8 % larger on a 64-value
field (:mod:`repro.core.predictive_coder`); the stream records which.

Profiles are immutable, hashable and JSON round-trippable (they are embedded
in dataset manifests and loaded from ``compress --profile`` files).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.kernels import DEFAULT_PREFIX_BITS, check_prefix_bits
from repro.errors import ConfigurationError

#: Keys old ``CodecProfile.dump()`` files carry for options that no longer
#: exist (``io_backend`` until 3.0, ``kernel`` until 4.0, the four
#: lossless-coder fields until 5.0, the four runtime knobs until 9.0):
#: dropped on load.
LEGACY_JSON_KEYS = (
    "io_backend",
    "kernel",
    "anchor_coder",
    "plane_coders",
    "negotiation",
    "negotiation_sample",
    "prefetch",
    "workers",
    "cache_bytes",
    "cache_verify",
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
    """

    error_bound: float = 1e-6
    relative: bool = True
    method: str = "cubic"
    prefix_bits: int = DEFAULT_PREFIX_BITS

    def __post_init__(self) -> None:
        if self.error_bound <= 0 or not np.isfinite(self.error_bound):
            raise ConfigurationError("error_bound must be a positive finite number")
        if self.method not in ("cubic", "linear"):
            raise ConfigurationError("method must be 'cubic' or 'linear'")
        check_prefix_bits(self.prefix_bits)

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
        façade (``IPComp``, ``ChunkedDataset.write``, the baselines adapter,
        the CLI) funnels its kwargs through here.  The block compressor is
        not a façade: it takes the profile ``ChunkedDataset.write`` resolved.
        Unknown names raise :class:`ConfigurationError` (a ``ValueError``)
        listing the valid fields, so a typo like ``metod=`` fails loudly
        instead of being silently swallowed.

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

    def to_json(self) -> dict:
        """JSON form of the profile (what manifests embed)."""
        return {
            "error_bound": float(self.error_bound),
            "relative": bool(self.relative),
            "method": self.method,
            "prefix_bits": int(self.prefix_bits),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CodecProfile":
        if not isinstance(obj, dict):
            raise ConfigurationError("codec profile JSON must be an object")
        obj = {k: v for k, v in obj.items() if k not in LEGACY_JSON_KEYS}
        return cls.from_options(None, **obj)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CodecProfile":
        """Load a profile from a JSON file (``compress --profile``)."""
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read codec profile {path}: {exc}") from None
        return cls.from_json(obj)

    def dump(self, path: Union[str, Path]) -> None:
        """Write the profile as readable JSON."""
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")
