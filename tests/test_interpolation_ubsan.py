"""The C sweep under the undefined-behaviour sanitizer.

One child process builds ``_sweep.c`` with ``-fsanitize=undefined`` (plus
``float-cast-overflow``, which GCC leaves out of ``undefined``) and
``-fno-sanitize-recover=all`` and the library's own flags into a temporary
directory, loads it in place of the module's library, and runs
``decompose``, ``transform`` and ``reconstruct`` against the numpy oracle
over fields full of specials — ±0.0, subnormals, ±1e300, NaN — and the
quantizer's edge cases: half-bin ties, nudged codes, codes near ±2^62, and
the differences it refuses (±2^63 bins, ±inf, NaN).  It then runs the plane
decode (``ipc_decode_planes``) over random shards — 64-bit levels, levels
with no plane loaded, one value, counts around the 256-column chunk, every
prefix — the planner's DP (``ipc_plan``) over random flat tables —
shifts of exactly ``bins``, infinite ones and ones past int64, levels of one
choice, no levels — and the plane encode and δ tables
(``ipc_encode_planes``, ``ipc_truncation_errors``) over the generated
shards of ``tests/test_encode_chain.py`` — every width 1–64, empty levels,
the chunk's edge counts, every prefix — against the unsanitized library.  Any undefined
behaviour aborts the child.  Skipped when the compiler cannot build or load
such a library.
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
for name in ("ipc_forward", "ipc_reconstruct", "ipc_decode_planes", "ipc_plan",
             "ipc_encode_planes", "ipc_truncation_errors"):
    entry, real = getattr(lib, name), getattr(interpolation._SWEEP, name)
    entry.argtypes, entry.restype = real.argtypes, real.restype
unsanitized, interpolation._SWEEP = interpolation._SWEEP, lib

import test_interpolation_sweep as sweep

runs = 0
shapes = [(1,), (2,), (300,), (2, 1), (17, 40), (9, 7, 17), (5, 9, 4, 9),
          (3, 2, 5, 1, 4), (2, 3, 1, 2, 2, 3, 1, 2, 2)]
for shape in shapes:
    for method in sweep.METHODS:
        for drop in sweep.DROPS:
            for seed in (1, 2):
                sweep._check_every_path(shape, method, drop, seed)
                runs += 1
for case in sweep._edge_diffs():
    for method in sweep.METHODS:
        sweep.test_the_c_quantizer_is_bitwise_the_numpy_quantizer(case, method)
        runs += 1

# The plane decode over random shards: 64-bit levels, nothing loaded, one
# value, chunk edges, every prefix; each answer is the unsanitized library's.
import numpy as np
from oracle_kernel import shard_rows
from repro.core.kernels import get_kernel

kernel = get_kernel()
rng = np.random.default_rng(20261008)
seen = set()
for trial in range(48):
    prefix = trial % 4
    levels = []
    for _ in range(int(rng.integers(1, 6))):
        count = int(rng.choice([1, 2, 9, 17, 255, 2047, 2048, 2049]))
        top = 63 if trial < 16 else int(rng.integers(0, 63))
        codes = rng.integers(-(2**63), 2**63 - 1, size=count, dtype=np.int64, endpoint=True)
        codes >>= 63 - top
        codes[0] = -(2**63) if trial < 16 else codes[0]
        [(nbits, blocks)] = kernel.encode_planes([codes], prefix)
        keep = int(rng.choice([0, 0, nbits, int(rng.integers(0, nbits + 1))]))
        rows = np.frombuffer(b"".join(blocks[:keep]), np.uint8).reshape(keep, (count + 7) // 8)
        levels.append((rows, count, nbits))
        seen |= {name for name, hit in (("64 planes", nbits == 64), ("none loaded", keep == 0),
                                         ("one value", count == 1)) if hit}
    got = kernel.decode_planes(*shard_rows(levels), prefix)
    interpolation._SWEEP = unsanitized
    want = kernel.decode_planes(*shard_rows(levels), prefix)
    interpolation._SWEEP = lib
    assert all(np.array_equal(a, b) for a, b in zip(got, want)), trial
    runs += 1
assert {"64 planes", "none loaded", "one value"} <= seen, seen

# The planner's DP over random flat tables, both modes: weights of exactly
# the budget (a shift of exactly ``bins``), infinite weights and weights
# whose shift passes int64, levels of one choice, no levels at all; each
# plan is the unsanitized library's.
from repro.core.optimizer import DEFAULT_BINS

def plan(library, cost, err, lengths, by_size, budget):
    keep = (ctypes.c_int64 * len(lengths))()
    error = ctypes.c_double()
    payload = library.ipc_plan(
        cost.ctypes.data, err.ctypes.data, lengths.ctypes.data, len(lengths), by_size,
        budget, DEFAULT_BINS, 0.5, keep, ctypes.byref(error),
    )
    return payload, list(keep), error.value if payload >= 0 else None

seen = set()
for trial in range(160):
    nlevels = 0 if trial % 20 == 0 else int(rng.integers(1, 9))
    lengths = rng.integers(1, 16, size=nlevels).astype(np.int64)
    lengths[rng.random(nlevels) < 0.3] = 1
    total = int(lengths.sum())
    budget = float(rng.choice([1.0, 37.0, 4096.0, 1e6]))
    # Costs are byte counts (integers, the weight of the size mode); errors
    # mix the specials in.
    cost = rng.choice([0.0, budget, float(rng.integers(0, 2 * budget + 1))], size=total)
    specials = [0.0, budget, budget / 3, np.inf, budget * 1e30, float(rng.uniform(0, 2 * budget))]
    err = np.array(rng.choice(specials, size=total), dtype=np.float64)
    for by_size in (0, 1):
        got = plan(lib, cost, err, lengths, by_size, budget)
        want = plan(unsanitized, cost, err, lengths, by_size, budget)
        assert got == want, (trial, by_size, got, want)
        runs += 1
    seen |= {name for name, hit in (("no levels", nlevels == 0), ("one choice", 1 in lengths),
                                     ("shift = bins", budget in err), ("inf", np.inf in err),
                                     ("no plan", got[0] == -1)) if hit}
assert {"no levels", "one choice", "shift = bins", "inf"} <= seen, seen

# The plane encode and the δ tables over generated shards: every width
# 1–64 (63 and 64 planes overflow δ tables), empty levels, one value,
# counts 1–17 and around the chunk, every prefix; each answer (or
# overflow) is the unsanitized library's.
from test_encode_chain import COUNTS, _level
from repro.core.negabinary import truncation_error_tables

def encoded(library, levels, prefix):
    interpolation._SWEEP = library
    try:
        planes = kernel.encode_planes(levels, prefix)
        try:
            tables = truncation_error_tables([(c, nbits) for c, (nbits, _) in zip(levels, planes)])
            tables = [t.tobytes() for t in tables]
        except OverflowError as error:
            tables = str(error)
        return planes, tables
    finally:
        interpolation._SWEEP = lib

seen = set()
for trial in range(96):
    prefix = trial % 4
    levels = [
        _level(int(rng.integers(2**32)), int(rng.choice(COUNTS)), int(rng.integers(1, 65)))
        for _ in range(int(rng.integers(0, 6)))
    ]
    if trial < 8:  # one shard of every width 1–64 at one edge count
        levels = [_level(trial * 64 + w, COUNTS[-1 - trial % 4], w) for w in range(1, 65)]
    got, want = encoded(lib, levels, prefix), encoded(unsanitized, levels, prefix)
    assert got == want, trial
    runs += 1
    seen |= {name for name, hit in (("empty", any(c.size == 0 for c in levels)),
                                     ("overflow", isinstance(got[1], str)),
                                     ("64 planes", any(n == 64 for n, _ in got[0])),
                                     ("no levels", not levels)) if hit}
assert {"empty", "overflow", "64 planes", "no levels"} <= seen, seen
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
