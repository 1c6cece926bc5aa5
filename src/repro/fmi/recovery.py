"""The recovery family: how an FMI job gets its ranks computing again.

Each :class:`~repro.fmi.job.FmiJob` holds one family object,
``job.recovery_plane``, built from ``FmiConfig(recovery=...)``; the
send path, ``FMI_Loop``, the H1/H2 state machine and fmirun call its
hooks unconditionally.  :class:`GlobalRollback` is the paper's
behaviour and the base class; the message-logging and replication
planes subclass it and override only what differs.
"""

from __future__ import annotations

__all__ = ["GlobalRollback"]


class GlobalRollback:
    """``recovery="global"``: every failure unwinds every rank to H1,
    the world re-bootstraps, and ``FMI_Loop`` restores the last
    coordinated checkpoint (Section III-B)."""

    #: the ``FmiConfig.recovery`` name of this family
    kind = "global"
    #: transport delivery hook ``(ctx, env) -> bool`` and its
    #: hop-fidelity reason (None: the epoch fence is the only filter)
    accept = None
    hook_reason = None
    #: physical processes per virtual rank
    num_copies = 1

    def __init__(self, job):
        self.job = job
        self.sim = job.sim

    # -- send / receive path ---------------------------------------------
    def on_send(self, src: int, dst: int, env, ctx=None) -> None:
        """See every outgoing envelope (stamp, log, mirror)."""

    def post_wildcard(self, fmi_ctx, source: int, tag: int, comm_id: int):
        """Rewrite a wildcard receive, or None to post it natively."""
        return None

    # -- FMI_Loop ----------------------------------------------------------
    def restore(self, fmi_ctx):
        """A restarted rank's ``(meta, payloads)``, None on a cold
        start, or ``"beyond-xor"`` for the level-2 path."""
        restored = yield from fmi_ctx.engine.restore(
            world_agree=fmi_ctx._agree_min,
            allow_beyond_xor=fmi_ctx.l2store is not None,
        )
        return restored

    def note_ckpt_begin(self, rank: int, dataset_id: int, ctx=None) -> None:
        """``rank`` is about to write checkpoint ``dataset_id``."""

    def note_rank_checkpoint(self, rank: int, dataset_id: int, ctx=None) -> None:
        """``rank`` completed checkpoint ``dataset_id``."""

    # -- the H1/H2 state machine -----------------------------------------
    def on_h1(self, fproc) -> None:
        """Wire a booting context: stale pre-failure traffic now drops."""
        fproc.ctx.epoch = self.job.epoch
        fproc.ctx.matching.reset()
        self.job.register_endpoint(fproc.rank, fproc.ctx)

    def joins_overlay(self, fproc) -> bool:
        """Whether ``fproc`` joins the log-ring (and, after H2, reports
        the recovery complete)."""
        return True

    @property
    def overlay_epoch(self) -> int:
        """The log-ring a joining process enters: this epoch's."""
        return self.job.epoch

    def absorb_notification(self, fproc, generation: int) -> bool:
        """True: ``fproc`` records the notification but keeps running."""
        return False

    def try_failover(self, policy, cause: str) -> bool:
        """True when the failure was absorbed without any rollback."""
        return False

    def rendezvous_scope(self, fproc):
        """``(key, participants, scale)`` of ``fproc``'s H1/H2
        rendezvous: every unfinished rank, each epoch."""
        job = self.job
        return job.epoch, job.num_ranks - len(job.finished_ranks), job.num_ranks

    # -- fmirun's slot geometry --------------------------------------------
    def adopt(self, fproc) -> None:
        """A (re)spawned process takes over its rank."""
        self.job.rank_procs[fproc.rank] = fproc

    def slot_procs(self, slot: int):
        """The processes hosted on physical slot ``slot``."""
        return [self.job.rank_procs[r] for r in self.job.ranks_of_slot(slot)]

    def notify_targets(self):
        """The processes a recovery must reach."""
        return list(self.job.rank_procs.values())

    def reuse_healthy_node(self, slot: int) -> bool:
        """Whether a slot whose processes died on a healthy node may
        respawn there instead of taking a spare."""
        return False

    def detach(self) -> None:
        """Job teardown."""
