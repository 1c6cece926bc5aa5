"""Metric units and clocks, declared once.

``BENCHMARK.json`` declares every metric the benchmark reports, with
its unit; :data:`UNITS` reads them from there.  :data:`HOST_MEASURED`
names the metrics measured on the host -- time, memory and rates --
which vary from run to run.  Every other metric is read off the
simulated clock or counts simulated work, so every run of one seed
must report it exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.layers import BUCKETS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}

HOST_MEASURED = frozenset(
    ["wall_ref_x", "setup_s", "peak_rss_mb", "wall_s", "ref_s",
     "simt.events_per_s", "obs.profile_overhead_x", "obs.trace_overhead_x",
     "host_s.total"]
    + [f"host_s.{bucket}" for bucket in BUCKETS]
)


def report(values, trace: int):
    """``{name: {"value", "unit"}}`` for one mode's metrics, which must
    be exactly the ones ``BENCHMARK.json`` lists for that mode."""
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(values) != declared:
        raise RuntimeError(
            f"reported metrics differ from BENCHMARK.json: missing "
            f"{sorted(declared - set(values))}, undeclared "
            f"{sorted(set(values) - declared)}")
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name in sorted(values)}
