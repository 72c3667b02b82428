"""Tests of the ``ipcomp`` command line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.progressive import ProgressiveRetriever
from repro.errors import ConfigurationError
from repro.datasets import load_dataset, load_raw, save_raw


@pytest.fixture
def raw_field(tmp_path):
    field = load_dataset("density", shape=(16, 18, 20))
    path = save_raw(tmp_path / "density.d64", field)
    return field, path


def test_compress_decompress_cycle(tmp_path, raw_field, capsys):
    field, raw_path = raw_field
    compressed = tmp_path / "density.ipc"
    restored_path = tmp_path / "restored.d64"

    assert main(
        ["compress", str(raw_path), "-o", str(compressed), "--shape", "16x18x20", "--eb", "1e-5"]
    ) == 0
    assert compressed.exists()
    out = capsys.readouterr().out
    assert "CR" in out

    assert main(["decompress", str(compressed), "-o", str(restored_path)]) == 0
    restored = load_raw(restored_path, (16, 18, 20))
    eb = 1e-5 * (field.max() - field.min())
    assert np.abs(field - restored).max() <= eb * (1 + 1e-9)


def test_retrieve_error_bound_mode(tmp_path, raw_field, capsys):
    field, raw_path = raw_field
    compressed = tmp_path / "density.ipc"
    partial_path = tmp_path / "partial.d64"
    main(["compress", str(raw_path), "-o", str(compressed), "--shape", "16x18x20", "--eb", "1e-6"])
    eb = 1e-6 * (field.max() - field.min())
    assert main(
        ["retrieve", str(compressed), "-o", str(partial_path), "--error-bound", str(eb * 64)]
    ) == 0
    partial = load_raw(partial_path, (16, 18, 20))
    assert np.abs(field - partial).max() <= eb * 64 * (1 + 1e-9)
    assert "guaranteed error" in capsys.readouterr().out


def test_retrieve_bitrate_mode(tmp_path, raw_field):
    field, raw_path = raw_field
    compressed = tmp_path / "density.ipc"
    partial_path = tmp_path / "partial.d64"
    main(["compress", str(raw_path), "-o", str(compressed), "--shape", "16x18x20", "--eb", "1e-6"])
    assert main(
        ["retrieve", str(compressed), "-o", str(partial_path), "--bitrate", "6.0"]
    ) == 0
    assert partial_path.exists()


def test_info_prints_header_json(tmp_path, raw_field, capsys):
    _, raw_path = raw_field
    compressed = tmp_path / "density.ipc"
    main(["compress", str(raw_path), "-o", str(compressed), "--shape", "16x18x20"])
    capsys.readouterr()  # drop the compress-command output
    assert main(["info", str(compressed)]) == 0
    header = json.loads(capsys.readouterr().out)
    assert header["shape"] == [16, 18, 20]
    assert header["levels"]
    # v2 inspection output: version, codec names, per-plane codec + sizes.
    assert header["version"] == 2
    assert header["codecs"]
    assert header["anchor_coder"] in header["codecs"]
    for level in header["levels"]:
        assert len(level["plane_codecs"]) == len(level["plane_sizes"])
        assert set(level["plane_codecs"]) <= set(header["codecs"])


def test_info_on_container_includes_shard_headers(tmp_path, raw_field, capsys):
    _, raw_path = raw_field
    container = tmp_path / "density.rprc"
    main(["compress", str(raw_path), "-o", str(container), "--shape", "16x18x20",
          "--blocks", "2"])
    capsys.readouterr()
    assert main(["info", str(container)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format"] == "repro-chunked-dataset"
    assert report["version"] == 2
    assert "profile" in report
    assert set(report["shard_headers"]) == {"shard-0000", "shard-0001"}
    for summary in report["shard_headers"].values():
        assert summary["version"] == 2
        assert summary["levels"]


def test_profile_file_configures_compression(tmp_path, raw_field, capsys):
    field, raw_path = raw_field
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({
        "error_bound": 1e-4,
        "relative": True,
        "method": "cubic",
    }))
    compressed = tmp_path / "density.ipc"
    assert main(["compress", str(raw_path), "-o", str(compressed),
                 "--shape", "16x18x20", "--profile", str(profile_path)]) == 0
    capsys.readouterr()
    assert main(["info", str(compressed)]) == 0
    header = json.loads(capsys.readouterr().out)
    assert set(header["codecs"]) <= {"zlib", "raw"}
    eb = 1e-4 * (field.max() - field.min())
    assert header["error_bound"] == pytest.approx(eb, rel=1e-6)

    # Flags override profile-file fields.
    tighter = tmp_path / "tighter.ipc"
    assert main(["compress", str(raw_path), "-o", str(tighter), "--shape", "16x18x20",
                 "--profile", str(profile_path), "--eb", "1e-6"]) == 0
    capsys.readouterr()
    assert main(["info", str(tighter)]) == 0
    header = json.loads(capsys.readouterr().out)
    assert header["error_bound"] == pytest.approx(1e-6 * (field.max() - field.min()), rel=1e-6)


def test_bad_profile_file_errors(tmp_path, raw_field, capsys):
    _, raw_path = raw_field
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["compress", str(raw_path), "-o", str(tmp_path / "x.ipc"),
                 "--shape", "16x18x20", "--profile", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_bitrate_or_budget_is_a_configuration_error(tmp_path, raw_field, capsys, value):
    """A bitrate or byte budget of NaN or infinity is a caller mistake: the
    library raises ``ConfigurationError`` (not a bare ``ValueError`` or
    ``OverflowError``) and the CLI exits 2 with ``error:``, no traceback."""
    field, raw_path = raw_field
    compressed = tmp_path / "density.ipc"
    main(["compress", str(raw_path), "-o", str(compressed), "--shape", "16x18x20", "--eb", "1e-6"])
    retriever = ProgressiveRetriever(compressed.read_bytes())
    for request in ({"bitrate": value}, {"byte_budget": value}):
        with pytest.raises(ConfigurationError, match="positive finite"):
            retriever.retrieve(**request)
        with pytest.raises(ConfigurationError, match="positive finite"):
            retriever.plan_request(**request)
    capsys.readouterr()
    code = main(["retrieve", str(compressed), "-o", str(tmp_path / "out.d64"),
                 "--bitrate", str(value)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out.d64").exists()


def test_datasets_listing(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "Density" in out and "CH4" in out


def test_demo_command(capsys):
    assert main(["demo", "--dataset", "speedx", "--shape", "12x16x16", "--eb", "1e-5"]) == 0
    out = capsys.readouterr().out
    assert "psnr" in out and "compression_ratio" in out


#: What ``CodecProfile(error_bound=1e-4).dump()`` wrote at 3.0 (plus the
#: pre-3.0 ``io_backend`` key): all ten removed options (``io_backend``,
#: ``kernel``, the four coder fields dropped in 5.0 and the four runtime
#: knobs dropped in 9.0) must keep loading.
LEGACY_PROFILE_JSON = {
    "error_bound": 1e-4,
    "relative": True,
    "method": "cubic",
    "prefix_bits": 2,
    "kernel": "fused",
    "io_backend": "async",
    "anchor_coder": "zlib",
    "plane_coders": ["zlib", "raw"],
    "negotiation": "smallest",
    "negotiation_sample": 65536,
    "prefetch": 0,
    "workers": 0,
    "cache_bytes": 0,
    "cache_verify": True,
}


def test_legacy_profile_file_with_kernel_key_drives_the_cli(tmp_path, raw_field):
    field, raw_path = raw_field
    profile_path = tmp_path / "v3_profile.json"
    profile_path.write_text(json.dumps(LEGACY_PROFILE_JSON, indent=2))
    for suffix, extra in ((".ipc", []), (".rprc", ["--blocks", "3"])):
        compressed = tmp_path / f"density{suffix}"
        plain = tmp_path / f"plain{suffix}"
        common = ["compress", str(raw_path), "--shape", "16x18x20", *extra]
        assert main(common + ["-o", str(compressed), "--profile", str(profile_path)]) == 0
        assert main(common + ["-o", str(plain), "--eb", "1e-4"]) == 0
        assert compressed.read_bytes() == plain.read_bytes()
        restored = tmp_path / "restored.d64"
        assert main(["decompress", str(compressed), "-o", str(restored)]) == 0
        eb = 1e-4 * (field.max() - field.min())
        assert np.abs(load_raw(restored, field.shape) - field).max() <= eb * (1 + 1e-9)
    # The flags themselves are gone: argparse rejects them like any unknown option.
    with pytest.raises(SystemExit):
        main(["decompress", str(compressed), "-o", str(restored), "--kernel", "fused"])
    for flag in ("--coders", "--negotiation", "--negotiation-sample"):
        with pytest.raises(SystemExit):
            main([*common, "-o", str(plain), flag, "zlib"])


def test_compress_blocks_writes_container_and_roi_retrieve(tmp_path, raw_field, capsys):
    field, raw_path = raw_field
    container = tmp_path / "density.rprc"
    assert main(
        ["compress", str(raw_path), "-o", str(container), "--shape", "16x18x20",
         "--eb", "1e-5", "--blocks", "4"]
    ) == 0
    assert "shards" in capsys.readouterr().out

    # info prints the dataset manifest for containers.
    assert main(["info", str(container)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["format"] == "repro-chunked-dataset"
    assert manifest["shape"] == [16, 18, 20]
    eb = manifest["error_bound"]

    # ROI retrieval touches a strict subset of the shards.
    roi_path = tmp_path / "roi.d64"
    assert main(
        ["retrieve", str(container), "-o", str(roi_path),
         "--roi", "0:4,:,:", "--error-bound", str(eb * 16)]
    ) == 0
    out = capsys.readouterr().out
    assert "1/4 shards" in out
    roi_data = load_raw(roi_path, (4, 18, 20))
    assert np.abs(field[:4] - roi_data).max() <= eb * 16 * (1 + 1e-9)

    # Full decompression of a container reassembles within the bound.
    restored_path = tmp_path / "restored.d64"
    assert main(["decompress", str(container), "-o", str(restored_path)]) == 0
    restored = load_raw(restored_path, (16, 18, 20))
    assert np.abs(field - restored).max() <= eb * (1 + 1e-9)


def test_roi_on_plain_stream_equals_sliced_decode(tmp_path, raw_field, capsys):
    """A bare stream is a one-shard dataset: ``--roi`` slices its decode."""
    _, raw_path = raw_field
    compressed = tmp_path / "density.ipc"
    main(["compress", str(raw_path), "-o", str(compressed), "--shape", "16x18x20"])
    full, roi = tmp_path / "full.d64", tmp_path / "roi.d64"
    assert main(["retrieve", str(compressed), "-o", str(full), "--error-bound", "1e-3"]) == 0
    assert main(
        ["retrieve", str(compressed), "-o", str(roi),
         "--roi", "0:8,:,:", "--error-bound", "1e-3"]
    ) == 0
    assert "1/1 shards" in capsys.readouterr().out
    sliced = load_raw(full, (16, 18, 20))[0:8]
    assert load_raw(roi, (8, 18, 20)).tobytes() == sliced.tobytes()


def test_bitrate_on_container_rejected(tmp_path, raw_field, capsys):
    _, raw_path = raw_field
    container = tmp_path / "density.rprc"
    main(["compress", str(raw_path), "-o", str(container), "--shape", "16x18x20",
          "--blocks", "2"])
    code = main(
        ["retrieve", str(container), "-o", str(tmp_path / "x.d64"), "--bitrate", "2.0"]
    )
    assert code == 2
    assert "error bound" in capsys.readouterr().err


def test_compress_blocks_rejects_negative_workers(tmp_path, raw_field, capsys):
    """``compress`` has no ``--workers``: every write runs one in-process
    path, so the flag is an unknown argument."""
    _, raw_path = raw_field
    container = tmp_path / "density.rprc"
    with pytest.raises(SystemExit) as exc:
        main(["compress", str(raw_path), "-o", str(container), "--shape", "16x18x20",
              "--blocks", "4", "--workers", "-1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers -1" in capsys.readouterr().err
    assert not container.exists()


def test_error_path_returns_nonzero(tmp_path, capsys):
    missing = tmp_path / "missing.d64"
    out_path = tmp_path / "out.ipc"
    code = main(["compress", str(missing), "-o", str(out_path), "--shape", "4x4x4"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_retrieve_prefetch_and_workers_flags(tmp_path, raw_field, capsys):
    """--prefetch: identical output and accounting; a local file reads
    synchronously whatever the flag says (no thread prefetcher exists:
    tests/test_retrieval_engine.py pins that)."""
    _, raw_path = raw_field
    container = tmp_path / "density.rprc"
    main(["compress", str(raw_path), "-o", str(container), "--shape", "16x18x20",
          "--blocks", "4", "--eb", "1e-5"])
    capsys.readouterr()
    variants = {
        "sync": ["--prefetch", "0"],
        "prefetch": ["--prefetch", "8"],
        "default": [],
    }
    outputs, reports = {}, {}
    for label, extra in variants.items():
        out = tmp_path / f"{label}.d64"
        assert main(
            ["retrieve", str(container), "-o", str(out),
             "--roi", "0:8,:,:", "--error-bound", "1e-3"] + extra
        ) == 0
        outputs[label] = out.read_bytes()
        reports[label] = capsys.readouterr().out
    assert len(set(outputs.values())) == 1
    # The printed byte accounting is identical across execution paths.
    assert len({r.split("(")[0] for r in reports.values()}) == 1
    # Single streams accept the prefetch flags too.
    stream = tmp_path / "density.ipc"
    main(["compress", str(raw_path), "-o", str(stream), "--shape", "16x18x20",
          "--eb", "1e-5"])
    a, b, c = tmp_path / "a.d64", tmp_path / "b.d64", tmp_path / "c.d64"
    assert main(["retrieve", str(stream), "-o", str(a),
                 "--error-bound", "1e-3", "--prefetch", "4"]) == 0
    assert main(["retrieve", str(stream), "-o", str(b),
                 "--error-bound", "1e-3", "--prefetch", "0"]) == 0
    assert main(["retrieve", str(stream), "-o", str(c),
                 "--error-bound", "1e-3"]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_read_subcommands_take_no_profile(tmp_path, raw_field, capsys):
    """Streams are self-describing: no reading subcommand accepts
    ``--profile``, ``--no-prefetch`` is gone (``--prefetch 0`` is the serial
    read), and a bad runtime knob is an ``error:`` exit, not a silent clamp."""
    _, raw_path = raw_field
    stream = tmp_path / "density.ipc"
    main(["compress", str(raw_path), "-o", str(stream), "--shape", "16x18x20"])
    profile_path = tmp_path / "p.json"
    profile_path.write_text('{"prefetch": 2, "workers": 2}')
    requests = tmp_path / "r.jsonl"
    requests.write_text("{}\n")
    out = str(tmp_path / "out.d64")
    rejected = [
        ["decompress", str(stream), "-o", out, "--profile", str(profile_path)],
        ["retrieve", str(stream), "-o", out, "--error-bound", "1e-3",
         "--profile", str(profile_path)],
        ["retrieve", str(stream), "-o", out, "--error-bound", "1e-3", "--no-prefetch"],
        ["serve", str(stream), "--requests", str(requests), "--profile", str(profile_path)],
        ["stats", str(stream), "--requests", str(requests), "--profile", str(profile_path)],
    ]
    for argv in rejected:
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert main(["retrieve", str(stream), "-o", out, "--error-bound", "1e-3",
                 "--prefetch", "-1"]) == 2
    assert "error: prefetch must be a non-negative integer" in capsys.readouterr().err


def test_info_stream_error_bound_prints_plan(tmp_path, raw_field, capsys):
    """`info STREAM --error-bound` prints the single-stream retrieval plan."""
    _, raw_path = raw_field
    stream = tmp_path / "density.ipc"
    main(["compress", str(raw_path), "-o", str(stream), "--shape", "16x18x20",
          "--eb", "1e-5"])
    capsys.readouterr()
    assert main(["info", str(stream), "--error-bound", "1e-3"]) == 0
    report = json.loads(capsys.readouterr().out)
    plan = report["retrieval_plan"]
    assert plan["ops"] >= 1 and plan["predicted_bytes"] > 0
    # The plan predicts the bytes a retrieve at the same target reports.
    out = tmp_path / "p.d64"
    assert main(["retrieve", str(stream), "-o", str(out),
                 "--error-bound", "1e-3", "--prefetch", "0"]) == 0
    assert f"retrieved {plan['predicted_bytes']} B" in capsys.readouterr().out


def test_info_roi_prints_retrieval_plan(tmp_path, raw_field, capsys):
    _, raw_path = raw_field
    container = tmp_path / "density.rprc"
    main(["compress", str(raw_path), "-o", str(container), "--shape", "16x18x20",
          "--blocks", "4", "--eb", "1e-5"])
    capsys.readouterr()
    assert main(["info", str(container), "--roi", "0:8,:,:",
                 "--error-bound", "1e-3"]) == 0
    report = json.loads(capsys.readouterr().out)
    plan = report["retrieval_plan"]
    assert plan["ops"] >= 1
    assert plan["predicted_bytes"] == plan["op_bytes"] + plan["header_bytes"]
    shard_names = {entry["shard"] for entry in plan["shards"]}
    assert shard_names <= {f"shard-{i:04d}" for i in range(4)}
    for entry in plan["shards"]:
        for op in entry["ops"]:
            assert op["length"] > 0 and op["blocks"]
    # The plan predicts the bytes a retrieve of the same region reports.
    out = tmp_path / "roi.d64"
    assert main(["retrieve", str(container), "-o", str(out),
                 "--roi", "0:8,:,:", "--error-bound", "1e-3",
                 "--prefetch", "0"]) == 0
    printed = capsys.readouterr().out
    assert f"retrieved {plan['predicted_bytes']} B" in printed
    # A plain stream plans the same way: its one shard, whatever the region.
    stream = tmp_path / "density.ipc"
    main(["compress", str(raw_path), "-o", str(stream), "--shape", "16x18x20"])
    capsys.readouterr()
    assert main(["info", str(stream), "--roi", "0:4,:,:"]) == 0
    plan = json.loads(capsys.readouterr().out)["retrieval_plan"]
    assert [entry["shard"] for entry in plan["shards"]] == ["stream"]
