"""The benchmark's four workloads, built only from the public API.

Each workload is one process driving one job: a closed loop with a
single client that launches the job, waits for it to finish and checks
its answer.  ``build(seed)`` draws the workload's inputs from the seed
(the victim slot and the kill time for the ``fmi-*`` workloads, the
halo sizes and per-rank contributions for ``mpi-macro``) and returns a
:class:`Run` that is ready to be driven with ``sim.run(until=run.done)``.
Nothing here reads the environment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.mpi.collectives import set_collective_mode
from repro.mpi.runtime import MpiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

#: declared checkpoint size per rank: 512 MB x 12 ranks/node is the
#: paper's 6 GB per node, so simulated checkpoint cost dominates
CKPT_BYTES = 512e6
#: simulated compute per FMI_Loop iteration and halo size per exchange
WORK_S = 1.0
HALO_BYTES = 1024.0


@dataclass(frozen=True)
class FmiShape:
    """One ``fmi-*`` workload: job shape plus the kill window."""

    recovery: str
    ranks: int
    ppn: int
    loops: int
    interval: int
    xor_group: int
    #: the kill time is drawn uniformly from ``kill_window`` (simulated
    #: seconds); the window lies after the first checkpoint has
    #: completed on every rank, so every seed recovers from a checkpoint
    #: instead of cold-starting
    kill_window: tuple


@dataclass(frozen=True)
class MacroShape:
    """The ``mpi-macro`` control: failure-free MpiJob on the macro tier."""

    ranks: int
    ppn: int
    rounds: int


FMI_WORKLOADS: Dict[str, FmiShape] = {
    "fmi-global": FmiShape("global", 384, 12, 6, 1, 16, (4.2, 5.0)),
    "fmi-logged": FmiShape("logged", 192, 12, 9, 3, 16, (5.0, 5.5)),
    "fmi-replicated": FmiShape("replicated", 96, 12, 6, 1, 16, (6.0, 7.5)),
}
MACRO_WORKLOAD = MacroShape(16384, 16, 6)
WORKLOADS = sorted(FMI_WORKLOADS) + ["mpi-macro"]

#: collective engine per workload: the FMI workloads run at the user
#: default, the control is pinned to the macro tier
COLLECTIVE_MODE = {name: "auto" for name in FMI_WORKLOADS}
COLLECTIVE_MODE["mpi-macro"] = "macro"


@dataclass
class Run:
    """One ready-to-drive job plus what its oracle needs."""

    workload: str
    sim: Simulator
    job: Any
    done: Any
    inputs: Dict[str, Any]
    expected: Callable[[int], Any]


def draw_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The workload's seeded inputs (same seed, same inputs)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mpi-macro":
        shape = MACRO_WORKLOAD
        return {
            "halo_bytes": [float(rng.randint(768, 1280))
                           for _ in range(shape.rounds)],
            "base": rng.randint(0, 1 << 20),
        }
    shape = FMI_WORKLOADS[workload]
    lead_slots = shape.ranks // shape.ppn
    return {
        "victim_slot": rng.randrange(lead_slots),
        "kill_at": rng.uniform(*shape.kill_window),
    }


# -------------------------------------------------------------- fmi-*
def fmi_app(loops: int):
    """Iterative solver with a verifiable per-rank state recurrence."""

    def app(fmi):
        state = np.zeros(4, dtype=np.float64)
        right = (fmi.rank + 1) % fmi.size
        left = (fmi.rank - 1) % fmi.size
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([state], nbytes=[CKPT_BYTES])
            if n >= loops:
                break
            yield fmi.elapse(WORK_S)
            got = yield from fmi.sendrecv(right, float(fmi.rank + n),
                                          source=left, nbytes=HALO_BYTES)
            total = yield from fmi.allreduce(float(fmi.rank + n))
            state[0] = n + 1.0
            state[1] = state[1] * 0.5 + fmi.rank + n
            state[2] = total
            state[3] = got
        yield from fmi.finalize()
        return state

    return app


def fmi_expected(size: int, loops: int) -> Callable[[int], np.ndarray]:
    def expected(rank: int) -> np.ndarray:
        state = np.zeros(4, dtype=np.float64)
        for n in range(loops):
            state[0] = n + 1.0
            state[1] = state[1] * 0.5 + rank + n
            state[2] = float(size * (size - 1) // 2 + size * n)
            state[3] = float((rank - 1) % size + n)
        return state

    return expected


def _simulator(observe) -> Simulator:
    sim = Simulator()
    if observe is not None:
        observe(sim)
    return sim


def build_fmi(workload: str, seed: int, observe=None) -> Run:
    shape = FMI_WORKLOADS[workload]
    inputs = draw_inputs(workload, seed)
    set_collective_mode(COLLECTIVE_MODE[workload])
    copies = 2 if shape.recovery == "replicated" else 1
    nodes = shape.ranks // shape.ppn * copies + 1
    sim = _simulator(observe)
    machine = Machine(sim, SIERRA.with_nodes(nodes), RngRegistry(0))
    job = FmiJob(
        machine, fmi_app(shape.loops), num_ranks=shape.ranks,
        procs_per_node=shape.ppn,
        config=FmiConfig(interval=shape.interval,
                         xor_group_size=shape.xor_group,
                         recovery=shape.recovery, spare_nodes=1),
    )
    done = job.launch()
    slot, kill_at = inputs["victim_slot"], inputs["kill_at"]

    def killer():
        yield sim.timeout(kill_at)
        job.fmirun.node_slots[slot].crash("benchmark kill")

    sim.spawn(killer())
    return Run(workload, sim, job, done, inputs,
               fmi_expected(shape.ranks, shape.loops))


# -------------------------------------------------------------- mpi-macro
def macro_app(halo_bytes: List[float], base: int):
    """The perf-smoke app: allreduce + halo exchange per round."""

    def app(api):
        right = (api.rank + 1) % api.size
        left = (api.rank - 1) % api.size
        total = 0
        for nbytes in halo_bytes:
            total += yield from api.allreduce(base + api.rank, nbytes=8.0)
            total += yield from api.sendrecv(right, base + api.rank,
                                             source=left, nbytes=nbytes,
                                             tag=7)
        return total

    return app


def macro_expected(size: int, rounds: int, base: int) -> Callable[[int], int]:
    world = size * base + size * (size - 1) // 2

    def expected(rank: int) -> int:
        return rounds * (world + base + (rank - 1) % size)

    return expected


def build_macro(seed: int, observe=None) -> Run:
    shape = MACRO_WORKLOAD
    ranks = shape.ranks
    inputs = draw_inputs("mpi-macro", seed)
    set_collective_mode(COLLECTIVE_MODE["mpi-macro"])
    sim = _simulator(observe)
    machine = Machine(sim, SIERRA.with_nodes(ranks // shape.ppn),
                      RngRegistry(0))
    job = MpiJob(machine, macro_app(inputs["halo_bytes"], inputs["base"]),
                 ranks, procs_per_node=shape.ppn, charge_init=False)
    done = job.launch()
    return Run("mpi-macro", sim, job, done, inputs,
               macro_expected(ranks, shape.rounds, inputs["base"]))


def build(workload: str, seed: int,
          observe: Optional[Callable[[Simulator], Any]] = None) -> Run:
    """Set up one run of ``workload`` on a fresh simulator.

    ``observe(sim)`` runs before anything else touches the simulator
    (the tracer pass attaches there).
    """
    if workload == "mpi-macro":
        return build_macro(seed, observe)
    return build_fmi(workload, seed, observe)
