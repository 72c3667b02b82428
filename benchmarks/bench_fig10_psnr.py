"""Figure 10 — PSNR versus retrieved bitrate.

Paper claim: although IPComp optimizes the L∞ error, its PSNR under a given
retrieval bitrate is competitive with or better than the baselines on most
datasets (Density, Pressure, VelocityX, CH4 are shown in the paper).

Each answer's achieved bits per value (from ``bytes_loaded``) is written
beside its PSNR, and an answer past 1.05× its budget is "over", as in
Fig. 7: a residual ladder whose coarsest rung already exceeds a budget has
no answer within it, and its PSNR there is not comparable.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, skip_scale_tuned_asserts, write_csv
from repro.analysis import psnr
from repro.baselines import make_compressor

COMPRESSORS = ("ipcomp", "sz3-r", "pmgard")
FIELDS = ("density", "pressure", "velocityx", "ch4")
BITRATES = (1.0, 2.0, 4.0, 8.0)
BOUND = 1e-6
#: An answer past this multiple of its budget is "over" (as in Fig. 7).
SLACK = 1.05


def _run(bench_datasets):
    rows = []
    for name in FIELDS:
        field = bench_datasets[name]
        compressors = {}
        blobs = {}
        for comp_name in COMPRESSORS:
            comp = make_compressor(comp_name, error_bound=BOUND, relative=True)
            compressors[comp_name] = comp
            blobs[comp_name] = comp.compress(field)
        for bitrate in BITRATES:
            row = [name, bitrate]
            for comp_name in COMPRESSORS:
                try:
                    outcome = compressors[comp_name].retrieve(
                        blobs[comp_name], bitrate=bitrate
                    )
                except Exception:
                    # A budget below the compressor's minimum loadable unit.
                    row.extend(["n/a", "n/a"])
                    continue
                used = outcome.bytes_loaded * 8.0 / field.size
                quality = f"{psnr(field, outcome.data):.2f}" if used <= bitrate * SLACK else "over"
                row.extend([quality, f"{used:.3f}"])
            rows.append(row)
    return rows


@pytest.mark.benchmark(group="fig10")
def test_fig10_psnr_vs_bitrate(benchmark, bench_datasets, results_dir):
    rows = benchmark.pedantic(_run, args=(bench_datasets,), rounds=1, iterations=1)
    header = ["dataset", "bitrate"]
    for comp_name in COMPRESSORS:
        header += [f"{comp_name} PSNR", f"{comp_name} bpv used"]
    print_table("Figure 10: PSNR under a bitrate budget", header, rows)
    write_csv(results_dir / "fig10_psnr.csv", header, rows)

    # Shape check: IPComp's PSNR grows with the budget on every dataset.
    # "n/a" marks budgets below the compressor's minimum loadable unit —
    # on tiny fields the header+anchor overhead alone can exceed the small
    # budgets, which is a property of the scale, not of the codec.
    idx = header.index("ipcomp PSNR")
    per_dataset = {name: [] for name in FIELDS}  # keep all-"n/a" datasets visible
    for row in rows:
        if row[idx] not in ("n/a", "over"):
            per_dataset[row[0]].append(float(row[idx]))
    if any(len(series) < 2 for series in per_dataset.values()):
        skip_scale_tuned_asserts(
            "tiny fields leave < 2 satisfiable bitrate budgets per dataset"
        )
    assert all(len(s) >= 2 for s in per_dataset.values())
    for series in per_dataset.values():
        assert series[-1] > series[0]
    # The progressive codecs plan to the budget: IPComp and PMGARD answer
    # every one within it (on tiny fields the fixed overhead exceeds the
    # small budgets, so this holds at the default scale).
    if any(
        row[header.index(f"{c} PSNR")] in ("over", "n/a")
        for row in rows
        for c in ("ipcomp", "pmgard")
    ):
        skip_scale_tuned_asserts("tiny fields make sub-overhead budgets unsatisfiable")
    for row in rows:
        for comp_name in ("ipcomp", "pmgard"):
            used = float(row[header.index(f"{comp_name} bpv used")])
            assert used <= row[1] * SLACK, (row[0], row[1], comp_name, used)
