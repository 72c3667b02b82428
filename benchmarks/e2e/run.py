"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Runs from any checkout without installing anything: puts the checkout (for
``benchmarks.e2e``) and its ``src/`` (for ``repro``) on ``sys.path`` first.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.e2e.cli import main  # noqa: E402  (needs the path set above)

if __name__ == "__main__":
    raise SystemExit(main())
