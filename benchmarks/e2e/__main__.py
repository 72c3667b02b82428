"""``python -m benchmarks.e2e`` — same as ``python3 benchmarks/e2e/run.py``."""

from benchmarks.e2e.run import main

raise SystemExit(main())
