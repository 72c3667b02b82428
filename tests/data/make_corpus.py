"""Record the golden format corpus that ``tests/test_golden_corpus.py`` reads.

One tiny archive of every layout a reader accepts, each beside its expected
decode at the stored bound (``<name>.npy``) and at a coarse rung,
``COARSE`` × the stored bound (``<name>.coarse.npy``):

* ``v1_stream.ipc`` — a bare version-1 stream (the pinned one already in
  this directory; its expectations are recorded here too);
* ``corpus_v2_stream.ipc`` — a bare version-2 stream of a float32 field;
* ``corpus_v1_manifest.rprc`` — a manifest-v1 container of two v1 shards
  and no ``headers`` block, built by ``conftest.write_v1_container``
  (writers have emitted manifest v2 since it existed);
* ``corpus_v2_headers.rprc`` — a manifest-v2 container with the
  ``headers`` block, as :meth:`repro.ChunkedDataset.write` emits it;
* ``corpus_v2_legacy.rprc`` — the same archive rewritten without the
  ``headers`` block by ``conftest.legacy_layout`` (writers emit the block).

The expectations pin today's decode: regenerate them only for a deliberate
format or decode change, never to make a failing corpus test pass.  Run
from the repository root::

    PYTHONPATH=src python tests/data/make_corpus.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import cumsum_field, legacy_layout, write_v1_container  # noqa: E402
from repro import ChunkedDataset, IPComp  # noqa: E402

#: The coarse rung of every expectation, as a multiple of the stored bound.
COARSE = 64.0


def _record(path: Path, stem: str) -> None:
    with ChunkedDataset(path) as dataset:
        eb = dataset.absolute_bound
        np.save(HERE / f"{stem}.npy", dataset.read().data)
        np.save(HERE / f"{stem}.coarse.npy", dataset.read(COARSE * eb).data)


def main() -> None:
    (HERE / "corpus_v2_stream.ipc").write_bytes(
        IPComp(error_bound=1e-4, relative=True).compress(
            cumsum_field((11, 9, 13), 7).astype(np.float32)
        )
    )
    with tempfile.TemporaryDirectory() as scratch:
        v1_container = write_v1_container(Path(scratch) / "v1.rprc")
        shutil.copyfile(v1_container, HERE / "corpus_v1_manifest.rprc")
    ChunkedDataset.write(
        HERE / "corpus_v2_headers.rprc", cumsum_field((20, 12, 10), 8),
        error_bound=1e-5, relative=True, n_blocks=3,
    )
    legacy_layout(HERE / "corpus_v2_headers.rprc", HERE / "corpus_v2_legacy.rprc")
    _record(HERE / "v1_stream.ipc", "corpus_v1_stream")
    for stem in ("corpus_v2_stream", "corpus_v1_manifest", "corpus_v2_headers", "corpus_v2_legacy"):
        _record(HERE / f"{stem}.{'ipc' if 'stream' in stem else 'rprc'}", stem)


if __name__ == "__main__":
    main()
