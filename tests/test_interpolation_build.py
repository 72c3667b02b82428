"""How the C sweep is built, cached and loaded, each case in a fresh process.

``repro.core.interpolation`` compiles ``_sweep.c`` at import into
``$XDG_CACHE_HOME/ipcomp-repro``.  Every test here points ``XDG_CACHE_HOME``
at its own empty directory and imports the package in a child process, so
the build it checks is the one that process ran.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports the package, runs one reconstruct and prints the loaded library.
PROBE = """
import numpy as np
import repro
from repro.core import native
from repro.core.interpolation import InterpolationPredictor
from repro.errors import ConfigurationError

predictor = InterpolationPredictor((5, 6))
try:
    field = predictor.reconstruct(
        np.ones(predictor.anchor_count), np.zeros(0, np.int64), predictor.unit_offsets({}), 1.0
    )
except ConfigurationError as error:
    print("ConfigurationError:", error)
else:
    assert (field == 1.0).all()
    print("loaded", native._LIB._name)
"""


def _env(cache: Path, path: str | None = None) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["XDG_CACHE_HOME"] = str(cache)
    env["PYTHONPATH"] = str(SRC)
    if path is not None:
        env["PATH"] = path
    return env


def _probe(cache: Path, path: str | None = None) -> str:
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=_env(cache, path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def _library(cache: Path) -> Path:
    [library] = (cache / "ipcomp-repro").iterdir()
    return library


def test_without_a_compiler_import_works_and_the_first_sweep_names_it(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    out = _probe(tmp_path / "cache", path=str(empty))
    assert out.startswith("ConfigurationError:"), out
    assert "C compiler" in out and "not on PATH" in out


def test_two_processes_building_into_one_empty_cache_both_load_it(tmp_path):
    cache = tmp_path / "cache"
    children = [
        subprocess.Popen(
            [sys.executable, "-c", PROBE],
            env=_env(cache),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outs = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        outs.append(out.strip())
    # One library under one name, and no build left half-written.
    library = _library(cache)
    assert outs == [f"loaded {library}"] * 2


def test_the_cache_is_private_and_a_library_it_did_not_build_is_rebuilt(tmp_path):
    cache = tmp_path / "cache"
    first = _probe(cache)
    directory = cache / "ipcomp-repro"
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    library = _library(cache)
    assert first == f"loaded {library}"

    # A library anyone could have written is not loaded: it is rebuilt.
    library.write_bytes(b"not a library")
    library.chmod(0o666)
    assert _probe(cache) == f"loaded {library}"
    assert library.read_bytes() != b"not a library"
    assert not library.stat().st_mode & 0o022

    if os.geteuid() == 0:  # only root can give a file away
        library.write_bytes(b"not a library")
        os.chown(library, 65534, 65534)
        assert _probe(cache) == f"loaded {library}"
        assert library.stat().st_uid == 0 and library.read_bytes() != b"not a library"


def test_a_cache_directory_others_can_write_is_refused(tmp_path):
    cache = tmp_path / "cache"
    _probe(cache)
    directory = cache / "ipcomp-repro"
    directory.chmod(0o777)
    try:
        out = _probe(cache)
    finally:
        directory.chmod(0o700)
    assert out.startswith("ConfigurationError:"), out
    assert "only this user can write" in out
