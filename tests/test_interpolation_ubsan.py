"""The C sweep under the undefined-behaviour sanitizer.

One child process builds ``_sweep.c`` with ``-fsanitize=undefined`` (plus
``float-cast-overflow``, which GCC leaves out of ``undefined``) and
``-fno-sanitize-recover=all`` into a temporary directory, loads it in place
of the module's library, and runs ``decompose``, ``transform`` and
``reconstruct`` against the numpy oracle over fields full of specials —
±0.0, subnormals, ±1e300, NaN — and the quantizer's edge cases: half-bin
ties, nudged codes, codes near ±2^62, ±inf.  Any undefined behaviour aborts
the child.  Skipped when the compiler cannot build or load such a library.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import ctypes, shlex, subprocess, sys, sysconfig, tempfile
from pathlib import Path

from repro.core import interpolation

if interpolation._SWEEP is None:
    print("SKIP", interpolation._SWEEP_MISSING)
    sys.exit(0)
cc = shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]
sanitize = ("-fsanitize=undefined,float-cast-overflow", "-fno-sanitize-recover=all")
with tempfile.TemporaryDirectory() as scratch:
    path = Path(scratch) / "sweep-ubsan.so"
    built = subprocess.run(
        [*cc, *interpolation._FLAGS, *sanitize, "-o", str(path),
         str(interpolation._SOURCE), *interpolation._LIBS],
        capture_output=True, text=True,
    )
    if built.returncode:
        print("SKIP cannot build with UBSan:", built.stderr.strip()[:500])
        sys.exit(0)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as error:
        print("SKIP cannot load a UBSan build:", error)
        sys.exit(0)
for name in ("ipc_forward", "ipc_reconstruct"):
    entry, real = getattr(lib, name), getattr(interpolation._SWEEP, name)
    entry.argtypes, entry.restype = real.argtypes, real.restype
interpolation._SWEEP = lib

import test_interpolation_sweep as sweep

runs = 0
shapes = [(1,), (2,), (300,), (2, 1), (17, 40), (9, 7, 17), (5, 9, 4, 9),
          (3, 2, 5, 1, 4), (2, 3, 1, 2, 2, 3, 1, 2, 2)]
for shape in shapes:
    for method in sweep.METHODS:
        for granularity in sweep.GRANULARITIES:
            for seed in (1, 2):
                sweep._check_every_path(shape, method, granularity, seed)
                runs += 1
for case in sweep._edge_diffs():
    for method in sweep.METHODS:
        sweep.test_the_c_quantizer_is_bitwise_the_numpy_quantizer(case, method)
        runs += 1
print("OK", runs)
"""


def test_the_sweep_has_no_undefined_behaviour():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    out = done.stdout.strip()
    if out.startswith("SKIP"):
        pytest.skip(out[len("SKIP ") :])
    assert done.returncode == 0, done.stderr[-4000:]
    assert "runtime error" not in done.stderr, done.stderr[-4000:]
    assert out.startswith("OK"), out
