"""A fixed reference workload, timed beside the program in the same run.

The host can change speed by a factor of two over minutes, which no
amount of repetition inside one run averages out.  :func:`reference_loop`
is a small generator-driven event loop -- a heap, generators, dicts and
allocation, the kind of work the simulator does -- that no change to the
program can move.  Timing it just before and just after each repetition
and dividing gives ``wall_ref_x``: the program's host cost in units of
the reference, which cancels the host's drift but not the program's own
cost.  Set-up times are scaled the same way and reported in seconds of
a host that runs one pass of the reference in :data:`NOMINAL_S`.
"""

from __future__ import annotations

import heapq

PROCESSES = 4000
STEPS = 60
#: host seconds of one reference pass on the nominal host
NOMINAL_S = 0.4


def _proc(pid, done):
    total = 0
    for step in range(STEPS):
        record = (pid, step, {"v": step * pid})
        total += record[2]["v"]
        yield 0.001 * ((pid * 7 + step) % 13 + 1)
    done[pid] = total


def reference_loop() -> None:
    """One pass of the reference event loop (about 0.4 s of host time)."""
    heap, done, seq = [], {}, 0
    for pid in range(PROCESSES):
        heap.append((0.0, seq, _proc(pid, done)))
        seq += 1
    heapq.heapify(heap)
    while heap:
        now, _seq, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, proc))
    if len(done) != PROCESSES:
        raise RuntimeError("reference loop lost processes")
