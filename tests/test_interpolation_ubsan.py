"""The C library under the undefined-behaviour and the address sanitizer.

For each sanitizer the test process builds ``_sweep.c`` through
``repro.core.native.build`` with the sanitizer's flags into a temporary
directory, and one child process loads it (``native.load``) in place of the
module's library and runs ``decompose``, ``transform`` and ``reconstruct``
against the numpy oracle over fields full of specials — ±0.0, subnormals,
±1e300, NaN — and the quantizer's edge cases: half-bin ties, nudged codes,
codes near ±2^62, and the differences it refuses (±2^63 bins, ±inf, NaN).
It then runs the plane decode (``ipc_decode_planes``) over random shards —
64-bit levels, levels with no plane loaded, one value, counts around the
256-column chunk, every prefix — the planner's DP (``ipc_plan``) over
random flat tables — shifts of exactly ``bins``, infinite ones and ones
past int64, levels of one choice, no levels — and the plane encode and δ
tables (``ipc_encode_planes``, ``ipc_truncation_errors``) over the
generated shards of ``tests/test_encode_chain.py`` — every width 1–64,
empty levels, the chunk's edge counts, every prefix — against the
unsanitized library.

* UBSan: ``-fsanitize=undefined`` plus ``float-cast-overflow``, which GCC
  leaves out of ``undefined``, and ``-fno-sanitize-recover=all``: any
  undefined behaviour aborts the child.
* ASan: ``-fsanitize=address``; the child starts with the runtime the
  compiler names (``-print-file-name=libasan.so``) in ``LD_PRELOAD`` and
  ``ASAN_OPTIONS=detect_leaks=0`` (the interpreter frees little at exit):
  any read or write outside a buffer aborts it.

Under ASan, each wrapper check that guards the C's memory is then shown
load-bearing: one more child passes a hostile argument straight to the raw
entry, and ASan must stop it naming that entry, while the wrapper refuses
the same argument with its typed error.  Each sanitizer is skipped, by
name, when the compiler cannot build such a library, libasan cannot be
found, or a child cannot load it.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import sysconfig
from array import array
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.core import native
from repro.core.interpolation import InterpolationPredictor
from repro.core.kernels import get_kernel
from repro.core.negabinary import CodeTable, table_truncation_errors
from repro.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]

#: Each sanitizer's flags, which ``native.build`` adds to the library's own.
SANITIZERS = {
    "ubsan": ("-fsanitize=undefined,float-cast-overflow", "-fno-sanitize-recover=all"),
    "asan": ("-fsanitize=address", "-fno-omit-frame-pointer"),
}

#: Loads the library at ``argv[1]``: a build the child cannot load is skipped.
LOAD = "import sys; from repro.core import native; native.load(sys.argv[1])"

CHILD = r"""
import sys
from array import array

from repro.core import native

lib = native.load(sys.argv[1])
unsanitized, native._LIB = native._LIB, lib

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
    native._LIB = unsanitized
    want = kernel.decode_planes(*shard_rows(levels), prefix)
    native._LIB = lib
    assert all(np.array_equal(a, b) for a, b in zip(got, want)), trial
    runs += 1
assert {"64 planes", "none loaded", "one value"} <= seen, seen

# The planner's DP over random flat tables, both modes: weights of exactly
# the budget (a shift of exactly ``bins``), infinite weights and weights
# whose shift passes int64, levels of one choice, no levels at all; each
# plan is the unsanitized library's.
from repro.core.optimizer import DEFAULT_BINS

def plan(library, cost, err, lengths, by_size, budget):
    keep, error = array("q", bytes(8 * len(lengths))), array("d", [0.0])
    payload = library.ipc_plan(
        *map(native.address, (cost, err, lengths)), len(lengths), by_size,
        budget, DEFAULT_BINS, 0.5, native.address(keep), native.address(error),
    )
    return payload, list(keep), error[0] if payload >= 0 else None

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
    native._LIB = library
    try:
        planes = kernel.encode_planes(levels, prefix)
        try:
            tables = truncation_error_tables([(c, nbits) for c, (nbits, _) in zip(levels, planes)])
            tables = [t.tobytes() for t in tables]
        except OverflowError as error:
            tables = str(error)
        return planes, tables
    finally:
        native._LIB = lib

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


#: Runs one case of ``HOSTILE`` straight into the raw entry of the library
#: at ``argv[1]``; ASan must stop it.
HOSTILE_CHILD = r"""
import sys

from repro.core import native

native._LIB = native.load(sys.argv[1])
import test_interpolation_ubsan

test_interpolation_ubsan.HOSTILE[sys.argv[2]][3](raw=True)
print("the C read past no buffer")
"""


def _reconstruct(raw: bool, dtype, short: int) -> None:
    """Zero codes of ``dtype`` for every unit, and the layout less its last
    ``short`` offsets."""
    predictor = InterpolationPredictor((33, 40))
    codes = np.zeros(sum(predictor.sweep_sizes.values()), dtype=dtype)
    offsets = predictor.layout[: predictor.num_units - short]
    if not raw:
        predictor.reconstruct(np.zeros(predictor.anchor_count), codes, offsets, 1.0)
        return
    xhat = np.zeros(predictor.shape)
    native.library().ipc_reconstruct(
        native.address(xhat), predictor._table_address, predictor.num_units, predictor._cubic,
        native.address(codes), codes.size, native.address(offsets), 1.0,
    )


def _decode(raw: bool, rows, levels) -> None:
    if not raw:
        get_kernel().decode_shard(rows, levels, 0)
        return
    counts = levels[2::4]
    codes = np.zeros(sum(counts), dtype=np.int64)
    native.library().ipc_decode_planes(
        native.address(rows), rows.size, native.address(levels), len(counts), 0,
        native.address(codes),
    )


def _truncation(raw: bool, widths) -> None:
    table = CodeTable([np.arange(-50, 50, dtype=np.int64)])
    if not raw:
        table_truncation_errors(table, widths)
        return
    tables = np.zeros(sum(widths) + len(widths), dtype=np.int64)
    native.library().ipc_truncation_errors(
        native.address(table.addresses), native.address(table.counts), native.address(widths),
        len(widths), native.address(tables),
    )


#: Each wrapper check that guards the C's memory: the entry the hostile
#: argument reaches without it, the wrapper's refusal, and the call (``raw``:
#: straight into the entry, with what the wrapper would pass it).
HOSTILE = {
    # int32 codes: the C reads eight bytes a code.
    "codes-dtype": (
        "ipc_reconstruct", ConfigurationError, "must be int64",
        lambda raw: _reconstruct(raw, np.int32, 0),
    ),
    # One offset short: the C reads one offset a unit.
    "offsets-length": (
        "ipc_reconstruct", ConfigurationError, "one offset for each of",
        lambda raw: _reconstruct(raw, np.int64, 1),
    ),
    # 4,096 elements of a zero-width dtype, the one kind whose byte count is
    # below its element count, which the C takes as the buffer's size.
    "rows-dtype": (
        "ipc_decode_planes", ValueError, "plane rows are not",
        lambda raw: _decode(raw, np.zeros(4096, dtype="V0"), array("q", [0, 1, 8 * 4096, 1])),
    ),
    # A level and three ints: the C reads four ints a level.
    "levels-length": (
        "ipc_decode_planes", ValueError, "four ints per level",
        lambda raw: _decode(raw, np.zeros(8, dtype=np.uint8), array("q", [0, 1, 8, 1, 0, 1, 8])),
    ),
    # Three widths for one level: the C reads a code address and a count a width.
    "widths-length": (
        "ipc_truncation_errors", ValueError, "one width for each of 1 levels",
        lambda raw: _truncation(raw, array("q", [8, 8, 8])),
    ),
    # 200 planes: the C's per-plane extremes hold 65.
    "width-range": (
        "ipc_truncation_errors", ValueError, "nbits must be in 0..64, got 200",
        lambda raw: _truncation(raw, array("q", [200])),
    ),
}


def _build(sanitizer: str, directory: Path) -> Tuple[Path, dict]:
    """The library built with ``sanitizer`` in ``directory`` and the
    environment a child loads it in; skipped, by name, when the compiler
    cannot build it, libasan cannot be found, or a child cannot load it."""
    if native._LIB is None:
        pytest.skip(native._MISSING)
    try:
        library = native.build(directory, SANITIZERS[sanitizer])
    except ConfigurationError as error:
        pytest.skip(f"cannot build with {sanitizer}: {str(error)[:500]}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    needs = sanitizer
    if sanitizer == "asan":
        cc = shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]
        found = subprocess.run(
            [*cc, "-print-file-name=libasan.so"], capture_output=True, text=True
        ).stdout.strip()
        if not os.path.isabs(found) or not os.path.exists(found):
            pytest.skip(f"libasan cannot be found: {cc[0]} -print-file-name printed {found!r}")
        env.update(LD_PRELOAD=found, ASAN_OPTIONS="detect_leaks=0")
        needs = f"libasan ({found})"
    loaded = subprocess.run(
        [sys.executable, "-c", LOAD, str(library)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if loaded.returncode:
        pytest.skip(f"{needs} cannot be loaded: {loaded.stderr.strip()[-500:]}")
    return library, env


@pytest.fixture(scope="module")
def sanitized(tmp_path_factory) -> Callable[[str], Tuple[Path, dict]]:
    """``sanitized(name)``: :func:`_build` of ``name``, once per module."""
    built: Dict[str, Tuple[Path, dict]] = {}

    def get(sanitizer: str) -> Tuple[Path, dict]:
        if sanitizer not in built:
            built[sanitizer] = _build(sanitizer, tmp_path_factory.mktemp(sanitizer))
        return built[sanitizer]

    return get


@pytest.mark.parametrize("sanitizer", list(SANITIZERS))
def test_the_sweep_has_no_undefined_behaviour(sanitized, sanitizer):
    library, env = sanitized(sanitizer)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(library)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert "runtime error" not in done.stderr, done.stderr[-4000:]
    assert "AddressSanitizer" not in done.stderr, done.stderr[-4000:]
    assert done.stdout.strip().startswith("OK"), done.stdout


@pytest.mark.parametrize("case", list(HOSTILE))
def test_every_memory_check_of_a_wrapper_is_load_bearing(sanitized, case):
    """The wrapper refuses the hostile argument with its typed error; passed
    straight to the raw entry, it makes ASan stop the child, naming the
    entry.  Every Python allocation goes through malloc there
    (``PYTHONMALLOC=malloc``), so that ASan guards the ``array`` tables
    too."""
    entry, error, message, call = HOSTILE[case]
    with pytest.raises(error, match=message):
        call(raw=False)
    library, env = sanitized("asan")
    done = subprocess.run(
        [sys.executable, "-c", HOSTILE_CHILD, str(library), case],
        env={**env, "PYTHONMALLOC": "malloc"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0, done.stdout
    assert "ERROR: AddressSanitizer" in done.stderr, done.stderr[-4000:]
    assert f" in {entry} " in done.stderr, done.stderr[-4000:]
