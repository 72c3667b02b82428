"""The repo's end-to-end benchmark (see ``README.md`` beside this file).

One command per workload, described by ``BENCHMARK.json`` at the repo root::

    python3 benchmarks/e2e/run.py --workload full_read --seed 1 --seconds 14 --trace 0

The package is self-contained: it imports :mod:`repro` only through its
public functions, times them from outside, and touches nothing under
``src/``.  Importing it starts no thread or process and reads no file.
"""
