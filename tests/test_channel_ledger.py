"""The channel ledger both log-based recovery planes share.

Stamping, the exact-once accept, consumption, determinant recording
with a replay cursor, snapshot retention at ``CheckpointEngine.KEEP``,
and restoring one owner's snapshot into the same or another owner.
"""

from repro.fmi.checkpoint import CheckpointEngine
from repro.fmi.ledger import ChannelLedger
from repro.net.matching import ANY_SOURCE
from repro.net.message import Envelope


def _env(src=0, dst=1, tag=0, comm_id=0):
    return Envelope(src=src, dst=dst, tag=tag, comm_id=comm_id, epoch=0,
                    nbytes=8.0, data=1.0)


def _stamped(ledger, owner, src, dst, **kw):
    env = _env(src=src, dst=dst, **kw)
    ledger.stamp(owner, src, dst, env)
    return env


def test_stamp_counts_per_owner_and_destination():
    ledger = ChannelLedger()
    envs = [_stamped(ledger, 0, 0, 1) for _ in range(3)]
    envs.append(_stamped(ledger, 0, 0, 2))
    assert [e.lseq for e in envs] == [(0, 1, 0), (0, 1, 1), (0, 1, 2),
                                      (0, 2, 0)]
    assert ledger.channel(0).counters == {1: 3, 2: 1}


def test_owners_stamp_identical_streams_independently():
    # Two copies of one rank (owners "a" and "b") run the same channel
    # schedule, so they must produce the same lseq stream.
    ledger = ChannelLedger()
    streams = {
        owner: [_stamped(ledger, owner, 0, dst).lseq for dst in (1, 1, 2)]
        for owner in ("a", "b")
    }
    assert streams["a"] == streams["b"] == [(0, 1, 0), (0, 1, 1), (0, 2, 0)]


def test_accept_is_exact_once_per_owner():
    ledger = ChannelLedger()
    lseq = (0, 1, 0)
    assert ledger.accept(1, lseq) is True
    assert ledger.accept(1, lseq) is False  # duplicate copy
    assert ledger.accept(1, (0, 1, 1)) is True  # next on the channel
    assert ledger.accept(2, lseq) is True  # another owner's own filter
    assert ledger.channel(1).seen == {(0, 0), (0, 1)}


def test_consume_tracks_matches_apart_from_deliveries():
    ledger = ChannelLedger()
    ledger.accept(1, (0, 1, 0))
    ledger.accept(1, (0, 1, 1))
    ledger.consume(1, (0, 1, 0))
    ledger.consume(1, None)  # unstamped traffic is not tracked
    ch = ledger.channel(1)
    assert ch.consumed == {(0, 0)}
    assert ch.seen == {(0, 0), (0, 1)}


def test_record_appends_determinants_per_rank():
    ledger = ChannelLedger()
    first = _stamped(ledger, 3, 3, 1, tag=7)
    second = _stamped(ledger, 2, 2, 1, tag=7)
    assert ledger.record(1, ANY_SOURCE, 7, first) == 1
    assert ledger.record(1, ANY_SOURCE, 7, second) == 2
    det = ledger.dets[1][0]
    assert (det.source, det.tag, det.comm_id) == (ANY_SOURCE, 7, 0)
    assert (det.env_src, det.env_tag, det.lseq) == (3, 7, (3, 1, 0))
    # The cursor is per owner and starts at the head of the log.
    assert ledger.channel("copy0").cursor == 0


def test_snapshot_retention_follows_checkpoint_keep():
    ledger = ChannelLedger()
    assert ledger.KEEP == CheckpointEngine.KEEP
    for ds in range(CheckpointEngine.KEEP + 2):
        ledger.snapshot(0, 0, ds)
    kept = list(range(2, CheckpointEngine.KEEP + 2))
    assert ledger.retained[0] == kept
    assert sorted(ds for _r, ds in ledger.snapshots) == kept
    # Re-snapshotting a retained dataset replaces it in place.
    ledger.snapshot(0, 0, kept[-1])
    assert ledger.retained[0] == kept


def test_snapshot_captures_counters_consumed_and_determinants():
    ledger = ChannelLedger()
    _stamped(ledger, 1, 1, 2)
    env = _stamped(ledger, 0, 0, 1)
    ledger.accept(1, env.lseq)
    ledger.consume(1, env.lseq)
    ledger.record(1, ANY_SOURCE, 0, env)
    ledger.snapshot(1, 1, 0)
    snap = ledger.snapshots[(1, 0)]
    assert (snap.counters, snap.consumed, snap.det_len) == ({2: 1}, {(0, 0)}, 1)
    # Later traffic does not leak into the stored snapshot.
    _stamped(ledger, 1, 1, 2)
    ledger.consume(1, (0, 1, 1))
    assert snap.counters == {2: 1} and snap.consumed == {(0, 0)}


def test_restore_rewinds_the_same_owner():
    ledger = ChannelLedger()
    env = _stamped(ledger, 0, 0, 1)
    ledger.accept(1, env.lseq)
    ledger.consume(1, env.lseq)
    ledger.record(1, ANY_SOURCE, 0, env)
    _stamped(ledger, 1, 1, 2)
    ledger.snapshot(1, 1, 0)
    later = _stamped(ledger, 0, 0, 1)
    ledger.accept(1, later.lseq)  # delivered, never matched
    _stamped(ledger, 1, 1, 2)
    ch = ledger.restore(1, ledger.snapshots[(1, 0)])
    assert ch is ledger.channel(1)
    assert ch.counters == {2: 1}
    assert ch.consumed == ch.seen == {(0, 0)}
    assert ch.cursor == 1
    # The unmatched delivery is acceptable again; the matched one not.
    assert ledger.accept(1, later.lseq) is True
    assert ledger.accept(1, env.lseq) is False
    # Restoring "no snapshot" is a cold start.
    ch = ledger.restore(1, None)
    assert (ch.counters, ch.seen, ch.consumed, ch.cursor) == ({}, set(),
                                                              set(), 0)


def test_restore_into_another_owner_copies_the_state():
    ledger = ChannelLedger()
    env = _stamped(ledger, "lead", 0, 1)
    ledger.consume("lead", (2, 0, 0))
    ledger.snapshot("lead", 0, 4)
    standby = ledger.restore("standby", ledger.snapshots[(0, 4)])
    assert standby.counters == {1: 1}
    assert standby.seen == standby.consumed == {(2, 0)}
    # The standby's state is its own: its sends continue the lead's
    # channel numbering without touching the lead's counters.
    redo = _stamped(ledger, "standby", 0, 1)
    assert redo.lseq == (0, 1, 1) and env.lseq == (0, 1, 0)
    assert ledger.channel("lead").counters == {1: 1}


def test_clear_keeps_owners_registered_with_empty_state():
    ledger = ChannelLedger()
    env = _stamped(ledger, "ctx", 0, 1)
    ledger.accept("ctx", env.lseq)
    ledger.record(0, ANY_SOURCE, 0, env)
    ledger.snapshot("ctx", 0, 0)
    ledger.clear()
    assert "ctx" in ledger.channels
    ch = ledger.channel("ctx")
    assert (ch.counters, ch.seen, ch.consumed, ch.cursor) == ({}, set(),
                                                              set(), 0)
    assert ledger.dets == {} and ledger.snapshots == {}
    assert ledger.retained == {}
    # open() also resets, and registers a new owner.
    ledger.accept("ctx", env.lseq)
    assert ledger.open("ctx").seen == set()
