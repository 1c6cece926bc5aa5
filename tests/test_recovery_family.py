"""The recovery family object: one seeded kill under each family.

Every decision that differs between global rollback, logged partial
rollback and replicated failover lives on ``job.recovery_plane``; this
table pins each one on the same small job (8 ranks, 2 per node, the
node of slot 1 crashes at t = 1.6 s).
"""

import numpy as np
import pytest

from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

ITERS = 6
KILLED_SLOT = 1

#: family -> (H1 rendezvous participants by key, survivors absorb the
#: notification, physical copies per rank, (copy, epoch) overlay joins)
FAMILIES = {
    # The whole world re-bootstraps and rebuilds this epoch's ring.
    "global": ({0: 8, 1: 8}, False, 1, {(0, 0), (0, 1)}),
    # Only the killed slot's ppn ranks restart; they join the epoch-0
    # ring the survivors never left.
    "logged": ({0: 8, (1, KILLED_SLOT): 2}, True, 1, {(0, 0)}),
    # Each copy cohort boots as a full world; the respawned copy re-arms
    # as a standby with its slot-mates; only lead copies ring together.
    "replicated": (
        {(0, "boot", 0): 8, (0, "boot", 1): 8,
         (1, "standby", KILLED_SLOT, 0, 1): 2},
        True, 2, {(0, 0)},
    ),
}


def run_killed(recovery):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(0))
    job = FmiJob(
        machine, bsp_app(ITERS, work_s=0.25), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=2,
                         recovery=recovery),
    )
    joins = []
    join = job.detector.join

    def spy(fproc, epoch):
        joins.append((fproc.copy, epoch))
        join(fproc, epoch)

    job.detector.join = spy
    done = job.launch()

    def killer():
        yield sim.timeout(1.6)
        job.fmirun.node_slots[KILLED_SLOT].crash("injected")

    sim.spawn(killer())
    results = sim.run(until=done)
    return job, joins, results


@pytest.mark.parametrize("recovery", sorted(FAMILIES))
def test_family_decisions_on_one_kill(recovery):
    rendezvous, absorbs, copies, overlay = FAMILIES[recovery]
    job, joins, results = run_killed(recovery)
    plane = job.recovery_plane
    assert plane.kind == recovery
    assert job.recovery_count == 1
    for rank, got in enumerate(results):
        assert np.array_equal(got, expected_bsp_state(rank, 8, ITERS))

    assert {key: rdv.size for key, rdv in job._h1_rdv.items()} == rendezvous
    assert job.fmirun.num_copies == copies
    survivors = [p for p in plane.notify_targets()
                 if job.slot_of_rank(p.rank) != KILLED_SLOT]
    assert survivors
    assert all(
        plane.absorb_notification(p, job.epoch) is absorbs for p in survivors
    )
    assert set(joins) == overlay
    for proc in plane.notify_targets():
        is_lead = job.rank_procs[proc.rank] is proc
        assert plane.joins_overlay(proc) is (is_lead or copies == 1)
