"""Per-run correctness and recovery-shape checks, and the public counters.

:func:`check` returns the list of problems with one finished run (empty
when it is correct).  A run is correct when every rank's answer is
bitwise equal to the recurrence's expected value and, for the ``fmi-*``
workloads, there was exactly one recovery of the family's shape:

* ``fmi-global``: every rank restored from the XOR checkpoint;
* ``fmi-logged``: only the victim slot's ranks restored, and the
  survivors replayed logged messages into them;
* ``fmi-replicated``: the replica was promoted, with no fallback to a
  checkpoint restore;
* ``mpi-macro``: every collective ran on the macro tier, none fell back
  to the per-hop engine.

Without the shape checks a kill that landed before the first checkpoint
finished would silently measure a cold start.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from perfbench.workloads import FMI_WORKLOADS, MACRO_WORKLOAD, Run


def macro_instances(run: Run) -> int:
    macro = run.job.transport.macro
    return 0 if macro is None else macro.instances_macro


def check(run: Run, results) -> List[str]:
    problems = []
    job = run.job
    if len(results) != job.num_ranks:
        return [f"{len(results)} results for {job.num_ranks} ranks"]
    wrong = [rank for rank, got in enumerate(results)
             if not _bitwise_equal(got, run.expected(rank))]
    if wrong:
        problems.append(f"{len(wrong)} wrong answers, first at rank {wrong[0]}")
    if run.workload == "mpi-macro":
        macro = job.transport.macro
        if (macro is None or macro.instances_macro != MACRO_WORKLOAD.rounds
                or macro.instances_hop != 0):
            problems.append("collectives left the macro tier")
        return problems
    shape = FMI_WORKLOADS[run.workload]
    if job.recovery_count != 1:
        problems.append(f"{job.recovery_count} recoveries, expected 1")
    plane = job.recovery_plane
    if shape.recovery == "global" and job.restores_done != job.num_ranks:
        problems.append(f"{job.restores_done} restores, expected "
                        f"{job.num_ranks} (a cold start?)")
    if shape.recovery == "logged" and not (
        plane.partial_restores == job.ppn and plane.replayed_msgs > 0
        and plane.det_mismatches == 0
    ):
        problems.append(
            f"partial restores {plane.partial_restores} (expected "
            f"{job.ppn}), replayed {plane.replayed_msgs}, determinant "
            f"mismatches {plane.det_mismatches}")
    if shape.recovery == "replicated" and not (
        plane.promotions > 0 and plane.fallbacks == 0
    ):
        problems.append(f"promotions {plane.promotions}, "
                        f"fallbacks {plane.fallbacks}")
    return problems


def _bitwise_equal(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and got.tobytes() == want.tobytes())
    return type(got) is type(want) and got == want


def simulated(run: Run) -> Dict[str, float]:
    """The run's simulated-clock results: identical for every run of a
    seed, whatever the host."""
    out = {"sim_makespan_s": run.sim.now,
           "events": run.sim.stats.events_processed}
    if run.workload != "mpi-macro":
        out["recovery_s"] = run.job.recovery_latency(1)
    return out


def counters(run: Run, wall: float) -> Dict[str, float]:
    """Per-layer work counts from the public counters of one untraced run."""
    job, sim = run.job, run.sim
    transport = job.transport
    posted = sum(ctx.matching.matched_posted for ctx in transport.contexts)
    unexpected = sum(ctx.matching.matched_unexpected
                     for ctx in transport.contexts)
    macro = transport.macro
    hop = 0 if macro is None else macro.instances_hop
    instances = macro_instances(run)
    plane = getattr(job, "recovery_plane", None)

    def plane_count(kind, attr):
        return getattr(plane, attr) if plane is not None and plane.kind == kind else 0

    fmi = run.workload != "mpi-macro"
    return {
        "simt.events": sim.stats.events_processed,
        "simt.peak_heap": sim.stats.peak_heap,
        "simt.events_per_s": sim.stats.events_processed / wall,
        "cluster.messages_sent": job.machine.fabric.messages_sent,
        "net.delivered": sum(ctx.matching.delivered
                             for ctx in transport.contexts),
        "net.unexpected_frac": unexpected / max(posted + unexpected, 1),
        "net.replication_filtered": transport.replication_filtered,
        "net.replay_dup_dropped": transport.replay_dup_dropped,
        "mpi.macro_instances": instances,
        "mpi.hop_instances": hop,
        "mpi.macro_frac": instances / max(instances + hop, 1),
        "fmi.recoveries": job.recovery_count if fmi else 0,
        "fmi.checkpoints": job.checkpoints_done if fmi else 0,
        "fmi.restores": job.restores_done if fmi else 0,
        "mlog.log_entries": plane_count("logged", "log_entries"),
        "mlog.replayed_msgs": plane_count("logged", "replayed_msgs"),
        "mlog.dup_suppressed": plane_count("logged", "dup_suppressed"),
        "repl.mirrored": plane_count("replicated", "mirrored"),
        "repl.promotions": plane_count("replicated", "promotions"),
        "repl.standby_syncs": plane_count("replicated", "standby_syncs"),
    }
