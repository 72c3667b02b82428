"""Unit tests of the unified CodecProfile configuration layer."""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro import ChunkedDataset, CodecProfile, IPComp, IPCompConfig
from repro.baselines.ipcomp_adapter import IPCompAdapter
from repro.errors import ConfigurationError
from repro.parallel import BlockParallelCompressor

# Local generator: the session-scoped conftest ``rng`` is one shared stream
# and consuming it here would shift every later module's draws.
_rng = np.random.default_rng(8842)


def _field(shape=(12, 10, 8)):
    base = np.cumsum(_rng.normal(size=shape), axis=0)
    return (base + np.cumsum(_rng.normal(size=shape), axis=1)).astype(np.float64)


# ------------------------------------------------------------------ validation


def test_defaults_are_valid():
    profile = CodecProfile()
    assert (profile.method, profile.prefix_bits, profile.relative) == ("cubic", 2, True)
    # The four lossy-stage fields; no lossless-stage one, no runtime knob.
    assert [f.name for f in dataclasses.fields(profile)] == [
        "error_bound", "relative", "method", "prefix_bits",
    ]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"error_bound": 0.0},
        {"error_bound": float("nan")},
        {"method": "quartic"},
        {"prefix_bits": 7},
        {"error_bound": float("inf")},
    ],
)
def test_invalid_fields_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        CodecProfile(**kwargs)


def test_resolve_makes_bound_absolute():
    field = _field()
    profile = CodecProfile(error_bound=1e-4, relative=True)
    resolved = profile.resolve(field)
    assert not resolved.relative
    assert resolved.error_bound == pytest.approx(
        1e-4 * (field.max() - field.min())
    )
    # Absolute profiles resolve to themselves.
    assert resolved.resolve(field) is resolved


# ---------------------------------------------------------------- from_options


def test_unknown_option_raises_value_error_listing_fields():
    with pytest.raises(ValueError, match="kernal"):
        CodecProfile.from_options(None, kernal="vectorized")
    with pytest.raises(ConfigurationError, match="valid fields"):
        CodecProfile.from_options(None, error_bond=1e-3)


def test_ipcomp_rejects_typo_kwargs():
    """The satellite regression: IPComp must not swallow unknown options."""
    with pytest.raises(ValueError, match="kernal"):
        IPComp(error_bound=1e-5, kernal="vectorized")
    # The v1-era single-coder keyword went with the coder fields in 5.0.
    with pytest.raises(ValueError, match="backend"):
        IPComp(error_bound=1e-5, backend="zlib")


def test_from_options_overrides_base_profile():
    base = CodecProfile(error_bound=1e-3, method="linear")
    derived = CodecProfile.from_options(base, error_bound=1e-5)
    assert derived.error_bound == 1e-5
    assert derived.method == "linear"
    assert CodecProfile.from_options(base) is base


def test_from_options_rejects_non_profile_base():
    with pytest.raises(ConfigurationError):
        CodecProfile.from_options({"error_bound": 1e-3})


def test_ipcompconfig_is_codecprofile():
    assert IPCompConfig is CodecProfile


# --------------------------------------------------------------- serialization


def test_json_roundtrip():
    profile = CodecProfile(
        error_bound=2.5e-5,
        relative=False,
        method="linear",
        prefix_bits=1,
    )
    assert CodecProfile.from_json(profile.to_json()) == profile


def test_from_file_and_dump(tmp_path):
    path = tmp_path / "profile.json"
    profile = CodecProfile(error_bound=1e-3, method="linear")
    profile.dump(path)
    assert CodecProfile.from_file(path) == profile


def test_profile_file_written_before_3_0_still_loads(tmp_path):
    # ``io_backend`` was a runtime field until 3.0, ``kernel`` until 4.0,
    # the four coder fields until 5.0 and the four runtime knobs until 9.0;
    # a file carrying them loads with the keys ignored (any other unknown
    # key — and any of these names as a keyword in code — still fails
    # loudly).
    path = tmp_path / "old.json"
    legacy = {
        "io_backend": "threads",
        "kernel": "reference",
        "anchor_coder": "huffman",
        "plane_coders": ["huffman", "zlib", "rle", "raw"],
        "negotiation": "sampled",
        "negotiation_sample": 2048,
        "prefetch": 8,
        "workers": 4,
        "cache_bytes": 1 << 20,
        "cache_verify": False,
    }
    path.write_text(json.dumps({**CodecProfile().to_json(), **legacy}))
    assert CodecProfile.from_file(path) == CodecProfile()
    for name, value in legacy.items():
        with pytest.raises(ConfigurationError, match=name):
            CodecProfile.from_options(None, **{name: value})
    with pytest.raises(ConfigurationError, match="kernal"):
        CodecProfile.from_json({**CodecProfile().to_json(), "kernal": "fused"})


def test_from_file_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        CodecProfile.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigurationError):
        CodecProfile.from_file(bad)
    array = tmp_path / "array.json"
    array.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigurationError):
        CodecProfile.from_file(array)


def test_profile_pickles_unchanged():
    """Profiles are plain frozen data: a pickle round trip changes nothing."""
    profile = CodecProfile(error_bound=1e-4, prefix_bits=1)
    assert pickle.loads(pickle.dumps(profile)) == profile


# ------------------------------------------------------------------- threading


def test_ipcomp_threads_profile_end_to_end():
    field = _field()
    profile = CodecProfile(error_bound=1e-4, relative=True)
    comp = IPComp(profile=profile)
    assert comp.profile is profile
    assert comp.config is profile  # legacy attribute alias
    blob = comp.compress(field)
    restored = comp.decompress(blob)
    assert np.abs(field - restored).max() <= comp.absolute_bound(field) * (1 + 1e-12)


def test_ipcomp_explicit_args_override_profile():
    profile = CodecProfile(error_bound=1e-3)
    comp = IPComp(error_bound=1e-6, profile=profile)
    assert comp.profile.error_bound == 1e-6


def test_block_parallel_compressor_carries_profile(tmp_path):
    field = _field((16, 6, 6))
    profile = CodecProfile(error_bound=1e-4)
    resolved = profile.resolve(field)
    assert not resolved.relative
    assert BlockParallelCompressor(resolved, 2).profile is resolved
    manifest = ChunkedDataset.write(
        tmp_path / "f.rprc", field, profile=profile, n_blocks=2
    )
    # The write resolves the bound once, from the whole field.
    assert CodecProfile.from_json(manifest["profile"]) == resolved
    with ChunkedDataset(tmp_path / "f.rprc") as dataset:
        restored = dataset.read().data
    assert np.abs(field - restored).max() <= resolved.error_bound * (1 + 1e-9)


def test_adapter_preserves_profile_bound_when_unspecified():
    profile = CodecProfile(error_bound=1e-3, relative=False)
    adapter = IPCompAdapter(profile=profile)
    assert adapter.profile is profile
    assert adapter.profile.error_bound == 1e-3
    assert not adapter.profile.relative


def test_adapter_accepts_profile():
    field = _field((10, 8, 6))
    adapter = IPCompAdapter(
        error_bound=1e-4, profile=CodecProfile(method="linear")
    )
    assert adapter.profile.method == "linear"
    assert adapter.profile.error_bound == 1e-4
    restored = adapter.decompress(adapter.compress(field))
    assert np.abs(field - restored).max() <= adapter.absolute_bound(field) * (1 + 1e-12)
