"""Channel ledger: the lseq bookkeeping both log-based recovery planes share.

The logged plane (:mod:`repro.fmi.msglog`, sender-based logging after
Dichev & Nikolopoulos) and the replicated plane
(:mod:`repro.fmi.replication`, copy dedup after FTHP-MPI) keep their
channel state here, per *owner*: a world rank for the logged plane, a
network context (one physical copy) for the replicated one.  An owner
stamps ``lseq = (src, dst, n)`` on its sends, admits each ``(src, n)``
once, and records what its execution consumed; each rank has one log
of wildcard-match determinants and one snapshot of its owner's
channels per completed checkpoint (the last ``CheckpointEngine.KEEP``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.fmi.checkpoint import CheckpointEngine

__all__ = ["ChannelLedger", "Channel", "Determinant", "Snapshot"]


class Determinant:
    """One recorded wildcard match outcome."""

    __slots__ = ("source", "tag", "comm_id", "env_src", "env_tag", "lseq")

    def __init__(self, source, tag, comm_id, env_src, env_tag, lseq):
        self.source = source      # posted pattern (may be ANY_SOURCE)
        self.tag = tag            # posted pattern (may be ANY_TAG)
        self.comm_id = comm_id
        self.env_src = env_src    # who actually matched
        self.env_tag = env_tag
        self.lseq = lseq          # identity of the matched message


class Snapshot:
    """One owner's channel state at a completed checkpoint."""

    __slots__ = ("counters", "consumed", "det_len")

    def __init__(self, counters: Dict[int, int], consumed: Set[Tuple[int, int]],
                 det_len: int):
        self.counters = counters  # dst world rank -> next channel seq
        self.consumed = consumed  # {(src, n)} consumed by the execution
        self.det_len = det_len    # determinants recorded so far


class Channel:
    """The channel state of one owner."""

    __slots__ = ("counters", "seen", "consumed", "cursor")

    def __init__(self):
        self.counters: Dict[int, int] = {}  # dst -> next channel seq
        self.seen: Set[Tuple[int, int]] = set()  # delivered (src, n)
        #: matched (src, n): delivered-but-unmatched messages must be
        #: deliverable again after a rewind, so it is kept apart
        self.consumed: Set[Tuple[int, int]] = set()
        self.cursor = 0  # replay position in the rank's determinant log


class ChannelLedger:
    """Per-owner channels, per-rank determinant logs and snapshots."""

    KEEP = CheckpointEngine.KEEP

    def __init__(self):
        self.channels: Dict[Any, Channel] = {}
        self.dets: Dict[int, List[Determinant]] = {}
        #: (rank, dataset_id) -> snapshot at that checkpoint
        self.snapshots: Dict[Tuple[int, int], Snapshot] = {}
        #: rank -> snapshotted dataset ids (oldest first, at most KEEP)
        self.retained: Dict[int, List[int]] = {}

    def channel(self, owner) -> Channel:
        ch = self.channels.get(owner)
        if ch is None:
            ch = self.channels[owner] = Channel()
        return ch

    def open(self, owner) -> Channel:
        """Give ``owner`` fresh, empty channel state."""
        ch = self.channels[owner] = Channel()
        return ch

    def clear(self) -> None:
        """Forget everything; owners stay registered with empty state."""
        for owner in self.channels:
            self.channels[owner] = Channel()
        self.dets.clear()
        self.snapshots.clear()
        self.retained.clear()

    # -- data path ---------------------------------------------------------
    def stamp(self, owner, src: int, dst: int, env) -> int:
        """Stamp ``env`` with the owner's next lseq on channel ``dst``."""
        ch = self.channels.get(owner) or self.channel(owner)
        counters = ch.counters
        n = counters.get(dst, 0)
        counters[dst] = n + 1
        env.lseq = (src, dst, n)
        return n

    def accept(self, owner, lseq) -> bool:
        """True the first time ``owner`` sees ``lseq``; False after."""
        seen = (self.channels.get(owner) or self.channel(owner)).seen
        key = (lseq[0], lseq[2])
        if key in seen:
            return False
        seen.add(key)
        return True

    def consume(self, owner, lseq) -> None:
        if lseq is not None:
            ch = self.channels.get(owner) or self.channel(owner)
            ch.consumed.add((lseq[0], lseq[2]))

    def record(self, rank: int, source, tag, env) -> int:
        """Append a determinant to ``rank``'s log; returns its length."""
        dets = self.dets.setdefault(rank, [])
        dets.append(
            Determinant(source, tag, env.comm_id, env.src, env.tag, env.lseq)
        )
        return len(dets)

    # -- checkpoints -------------------------------------------------------
    def snapshot(self, owner, rank: int, dataset_id: int) -> None:
        """Snapshot ``owner``'s channels as ``rank``'s state at
        ``dataset_id`` and drop snapshots beyond the KEEP window."""
        ch = self.channel(owner)
        self.snapshots[(rank, dataset_id)] = Snapshot(
            dict(ch.counters), set(ch.consumed), len(self.dets.get(rank, ())),
        )
        retained = self.retained.setdefault(rank, [])
        if dataset_id not in retained:
            retained.append(dataset_id)
            retained.sort()
        while len(retained) > self.KEEP:
            self.snapshots.pop((rank, retained.pop(0)), None)

    def restore(self, owner, snap: Optional[Snapshot]) -> Channel:
        """Rewind ``owner``'s channels to ``snap`` (None: to empty).
        Only consumed messages count as delivered afterwards."""
        if snap is None:
            return self.open(owner)
        ch = self.channel(owner)
        ch.counters = dict(snap.counters)
        ch.consumed = set(snap.consumed)
        ch.seen = set(snap.consumed)
        ch.cursor = snap.det_len
        return ch
