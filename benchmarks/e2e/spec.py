"""``BENCHMARK.json`` is the one source of truth for workload and metric
names; the harness checks at start-up that it implements exactly those."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List

__all__ = ["ROOT", "SRC", "check_names", "child_env", "load", "names", "render"]

#: The checkout the benchmark runs in (``benchmarks/e2e/`` is two levels down).
ROOT = Path(__file__).resolve().parents[2]
#: Where the library under test lives; run from source, nothing is installed.
SRC = ROOT / "src"


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``repro`` importable from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def names(spec: dict, section: str) -> List[str]:
    return [entry["name"] for entry in spec[section]]


def check_names(spec: dict, section: str, implemented: Iterable[str]) -> None:
    """Raise unless ``implemented`` is exactly the section's name list."""
    declared, implemented = set(names(spec, section)), set(implemented)
    if declared != implemented:
        raise RuntimeError(
            f"BENCHMARK.json {section} and the harness disagree: "
            f"only declared {sorted(declared - implemented)}, "
            f"only implemented {sorted(implemented - declared)}"
        )


def render(spec: dict) -> str:
    """The ``--list`` output: every workload and metric name, as declared."""
    lines = ["workloads:"]
    lines += [f"  {w['name']:<16} {w['why']}" for w in spec["workloads"]]
    lines.append("end_to_end:")
    lines += [
        f"  {m['name']:<24} {m['unit']:<6} better={m['better']:<7} bound={m['bound']}"
        for m in spec["end_to_end"]
    ]
    lines.append("per_layer:")
    lines += [f"  {m['name']:<44} {m['unit']:<6} better={m['better']}" for m in spec["per_layer"]]
    return "\n".join(lines)
