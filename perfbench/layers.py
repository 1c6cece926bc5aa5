"""Host time per layer: cProfile self time summed over each layer's modules.

The module-to-layer map is declared once, here.  Every profiled
function falls into exactly one bucket -- a layer, ``builtins`` (C
functions, reported by cProfile with the file name ``~``) or ``other``
(the standard library, numpy's Python code and the few ``repro``
modules no layer claims) -- so the buckets sum to the profiled total.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent

#: layer name -> the modules it owns (dotted names)
LAYERS: Dict[str, tuple] = {
    "simt.kernel": ("repro.simt.kernel",),
    "simt.process": ("repro.simt.process", "repro.simt.primitives"),
    "simt.resources": ("repro.simt.resources",),
    "cluster": ("repro.cluster.network", "repro.cluster.node"),
    "net.transport": ("repro.net.transport", "repro.net.endpoint",
                      "repro.net.message"),
    "net.matching": ("repro.net.matching",),
    "fmi.detector": ("repro.fmi.detector", "repro.net.overlay",
                     "repro.net.pmgr"),
    "mpi.api": ("repro.mpi.api", "repro.mpi.communicator", "repro.mpi.ops",
                "repro.mpi.datatypes", "repro.mpi.runtime"),
    "mpi.collectives": ("repro.mpi.collectives",
                        "repro.models.collective_model"),
    "mpi.macro": ("repro.mpi.macro",),
    "fmi.protocol": ("repro.fmi.api", "repro.fmi.runtime", "repro.fmi.state",
                     "repro.runtime.core", "repro.runtime.policy"),
    "fmi.ckpt": ("repro.fmi.checkpoint", "repro.fmi.redundancy",
                 "repro.fmi.xor_codec", "repro.fmi.payload",
                 "repro.fmi.xor_group"),
    "fmi.msglog": ("repro.fmi.msglog",),
    "fmi.replication": ("repro.fmi.replication",),
    "app": ("perfbench.workloads",),
}
BUCKETS = tuple(LAYERS) + ("builtins", "other")

_OWNER = {module: layer for layer, modules in LAYERS.items()
          for module in modules}


def module_of(filename: str) -> str:
    """Dotted module name of a source file of this checkout (``src/``
    or the benchmark's own package); empty for anything else."""
    path = Path(filename).resolve()
    for root in (ROOT / "src", ROOT):
        if root in path.parents:
            parts = list(path.relative_to(root).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            return ".".join(parts)
    return ""


def bucket_of(filename: str) -> str:
    if filename == "~":
        return "builtins"
    return _OWNER.get(module_of(filename), "other")


def host_seconds(profile: cProfile.Profile) -> Dict[str, float]:
    """``host_s.<bucket>`` self seconds plus ``host_s.total``."""
    out = {f"host_s.{name}": 0.0 for name in BUCKETS}
    total = 0.0
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        self_s = row[2]
        out[f"host_s.{bucket_of(filename)}"] += self_s
        total += self_s
    out["host_s.total"] = total
    return out
