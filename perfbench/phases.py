"""Simulated recovery and checkpoint phases, read off a ``repro.obs`` trace.

A recovery window runs from the ``node.crash`` event to the moment
every rank is back in H3 (``FmiJob.recovery_latency``).  It is split on
its critical path into consecutive phases whose boundaries are trace
timestamps::

    crash -> last recovering survivor notified   rec.notify_s     (log-ring)
          -> last rank entered H1                rec.respawn_s    (spare + spawn
                                                                   not hidden by it)
          -> last rank entered H2                rec.bootstrap_s  (H1: PMGR)
          -> every rank in H3                    rec.connect_s    (H2: connect)

Under partial rollback the survivors absorb the notice and never leave
H3, so notification is off the critical path there and the window
starts with the respawn.

A replicated failover leaves every survivor in H3, so its window is
the promote delay alone (``rec.promote_s``).

The rollback phases telescope to crash -> H3, so their sum matching
``recovery_s`` only says the crash and the epoch bump coincide; the
shape checks in :func:`recovery_phases` (boundaries in order, each
family's events present on the expected ranks) are what catch a wrong
attribution.  A failover's sum matching ``recovery_s`` says the
promotion ends the window.

Restore and log replay run after H3 inside ``fmi.loop``; they move the
makespan, not the recovery window, and are reported on their own.
Each phase is set beside its analytic term from ``repro.models`` or
the cluster spec.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.fmi.replication import ReplicationPlane
from repro.models import cr_model, msglog_model
from repro.net.overlay import max_notification_hops_bound
from repro.obs import summary

#: every metric :func:`all_phases` returns, so a workload without a
#: recovery or a checkpoint still reports each one (as zero)
PHASE_METRICS = (
    "recovery_s", "rec.phase_sum_s",
    "rec.notify_s", "rec.notify_max_hop", "rec.notify_hop_bound",
    "rec.respawn_s",
    "rec.bootstrap_s", "rec.bootstrap_model_s",
    "rec.connect_s", "rec.connect_model_s",
    "rec.promote_s", "rec.promote_model_s",
    "rec.replay_s", "rec.replay_model_s",
    "ckpt.checkpoint_s", "ckpt.encode_s", "ckpt.model_s",
    "ckpt.sim_over_model", "ckpt.restore_s", "ckpt.restore_model_s",
)


def recovery_phases(events: List, job) -> Tuple[Dict[str, float], List[str]]:
    """Critical-path phases of the first recovery window, and the
    problems found in its shape.

    The phases are differences of raw trace timestamps.  A boundary out
    of order, or an event the family must emit on its way back to H3
    missing, is reported as a problem instead of being folded into a
    zero-length phase.
    """
    crash = next((ev.ts for ev in events if ev.name == "node.crash"), None)
    end = job.recovered_at.get(1)
    if crash is None or end is None:
        return {}, ["no crash or no recovery in the trace"]
    out, problems = {}, []
    window = [ev for ev in events if crash <= ev.ts <= end]
    states = [ev for ev in window if ev.name == "fmi.state" and ev.epoch == 1]
    entered = {state: {ev.rank for ev in states if ev.args["state"] == state}
               for state in ("H1", "H2")}
    notified = [ev for ev in window
                if ev.name == "overlay.notified" and ev.epoch == 1]
    promotions = [ev.ts for ev in window if ev.name == "repl.promote"]
    spec = job.machine.spec
    n = job.num_ranks
    family = job.config.recovery
    if family == "replicated":
        # Failover promotes a replica in place: no rank restarts.
        if not promotions:
            problems.append("no repl.promote in the recovery window")
        if entered["H1"] or entered["H2"]:
            problems.append("ranks re-entered H1/H2 during a failover")
        promoted = max(promotions, default=end)
        out["rec.promote_s"] = promoted - crash
        out["rec.promote_model_s"] = ReplicationPlane.FAILOVER_DELAY
        bounds = [crash, promoted]
    else:
        # The recovering set re-enters H1 and H2 this epoch: the world
        # under global rollback; one slot under partial rollback, whose
        # survivors absorb the notice and never leave H3, so the notice
        # is off the critical path there and the window starts with
        # the respawn.
        recovering = entered["H1"]
        want = n if family == "global" else job.ppn
        if len(recovering) != want or entered["H2"] != recovering:
            problems.append(f"{len(recovering)} ranks entered H1 and "
                            f"{len(entered['H2'])} H2, expected {want}")
        survivors = {ev.rank for ev in notified}
        if len(survivors) != n - job.ppn:
            problems.append(f"{len(survivors)} ranks notified, expected "
                            f"{n - job.ppn} survivors")
        if family == "global":
            b1 = max((ev.ts for ev in notified if ev.rank in recovering),
                     default=crash)
        else:
            if survivors & recovering:
                problems.append("a restarted rank was notified")
            b1 = crash
        h1 = max((ev.ts for ev in states if ev.args["state"] == "H1"),
                 default=b1)
        h2 = max((ev.ts for ev in states if ev.args["state"] == "H2"),
                 default=h1)
        out["rec.notify_s"] = b1 - crash
        out["rec.notify_max_hop"] = float(
            max((int(ev.args.get("hop", 0)) for ev in notified), default=0)
        )
        out["rec.notify_hop_bound"] = float(
            max_notification_hops_bound(n, job.config.logring_k)
        )
        out["rec.respawn_s"] = h1 - b1
        out["rec.bootstrap_s"] = h2 - h1
        out["rec.connect_s"] = end - h2
        # H1 bootstraps the whole world under global rollback and only
        # the restarted slot under partial rollback; H2 connects the
        # restarted ranks into the world-wide log-ring either way.
        scale = n if family == "global" else job.ppn
        out["rec.bootstrap_model_s"] = spec.fmi_bootstrap_time(scale)
        out["rec.connect_model_s"] = (
            math.ceil(math.log2(n)) * spec.network.overlay_connect_cost
        )
        bounds = [crash, b1, h1, h2, end]
    order = bounds + [end]
    if any(a > b for a, b in zip(order, order[1:])):
        problems.append(f"recovery phase boundaries out of order: {order}")
    out["recovery_s"] = job.recovery_latency(1)
    out["rec.phase_sum_s"] = sum(b - a for a, b in zip(bounds, bounds[1:]))
    if abs(out["rec.phase_sum_s"] - out["recovery_s"]) > 1e-9:
        problems.append(f"recovery phases sum to {out['rec.phase_sum_s']}, "
                        f"recovery_s is {out['recovery_s']}")
    return out, problems


def replay_phase(events: List, job) -> Dict[str, float]:
    """Log replay into the restarted ranks (after H3, logged only)."""
    begins = [ev.ts for ev in events if ev.name == "mlog.replay.begin"]
    dones = [ev for ev in events if ev.name == "mlog.replay.done"]
    if not begins or not dones:
        return {}
    per_rank = max(float(ev.args.get("nbytes", 0.0)) for ev in dones)
    net_bw = job.machine.spec.network.link_bw / job.ppn
    return {
        "rec.replay_s": max(ev.ts for ev in dones) - min(begins),
        "rec.replay_model_s": msglog_model.replay_latency(per_rank, net_bw),
    }


def checkpoint_phases(events: List, job, ckpt_bytes: float) -> Dict[str, float]:
    """Mean checkpoint, encode and restore spans beside the V-B model.

    A partial rollback restores through the logging plane, whose
    ``mlog.restore`` span stands in for ``ckpt.restore``.
    """
    spans = summary.checkpoint_summary(events)
    if "ckpt.checkpoint" not in spans:
        return {}
    spec = job.machine.spec
    args = (ckpt_bytes, job.xor_layout.group_size, spec.node.memory_bw,
            spec.network.link_bw, job.ppn, job.config.redundancy)
    out = {
        "ckpt.checkpoint_s": spans["ckpt.checkpoint"]["mean"],
        "ckpt.encode_s": spans["ckpt.encode"]["mean"],
        "ckpt.model_s": cr_model.checkpoint_time(*args),
    }
    out["ckpt.sim_over_model"] = out["ckpt.checkpoint_s"] / out["ckpt.model_s"]
    restores = [ev.dur for ev in events
                if ev.name in ("ckpt.restore", "mlog.restore") and ev.dur]
    if restores:
        out["ckpt.restore_s"] = sum(restores) / len(restores)
        out["ckpt.restore_model_s"] = cr_model.restart_time(*args)
    return out


def all_phases(events: List, job,
               ckpt_bytes: float) -> Tuple[Dict[str, float], List[str]]:
    """Every phase metric, zero where the job has no such phase (the
    ``mpi-macro`` control neither checkpoints nor recovers), and the
    problems :func:`recovery_phases` found."""
    out = {name: 0.0 for name in PHASE_METRICS}
    if not hasattr(job, "recovered_at"):
        return out, []
    phases, problems = recovery_phases(events, job)
    out.update(phases)
    out.update(replay_phase(events, job))
    out.update(checkpoint_phases(events, job, ckpt_bytes))
    return out, problems
