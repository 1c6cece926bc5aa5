"""The repo benchmark: an FmiJob end to end for each recovery family,
plus a failure-free macro-tier MpiJob as the control.

Run from the repository root::

    python3 perfbench/run.py --workload fmi-global --seed 1 --seconds 20 --trace 0

Workloads (one process driving one job, a closed loop of one job at a
time; see ``workloads.py``): ``fmi-global``, ``fmi-logged``,
``fmi-replicated`` and ``mpi-macro``.

``--trace 0`` repeats the workload for ``--seconds`` of host time and
reports the end-to-end metrics: the host cost of ``sim.run`` in units
of a fixed reference loop timed around each repetition (``wall_ref_x``,
see ``calibrate.py``), the host time of set-up scaled by the same
reference to seconds of a nominal host (``setup_s``; both medians),
peak resident memory, and the simulated makespan, which is
deterministic and must be identical on every repetition of a seed.

``--trace 1`` makes three separate passes of the same inputs: an
untraced one (its wall time in seconds, the reference loop's, public
counters, events/s), one under cProfile (host self
time per layer, see ``layers.py``) and one with a ``repro.obs`` Tracer
attached (simulated recovery and checkpoint phases beside their model
terms, see ``phases.py``, and the observer effect: traced minus
untraced events, macro-tier collectives and makespan).

Every run is checked: bitwise answers against the recurrence, exactly
one recovery of the family's shape, and identical simulated results on
every repetition.  A run that fails any check, or raises, counts in
``failed``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: extra set-ups timed before each repetition, between two passes of
#: the reference loop, so the set-up samples (median reported) spread
#: over the whole run like the wall samples
SETUPS_PER_REP = 5


def pin_environment() -> None:
    """The benchmark, not the caller's shell, decides how the program
    runs: drop every ``REPRO_*`` override (collective tier, matcher
    engine, bench scale) before ``repro`` is imported, and import it from
    this checkout's ``src/``, never from an installed copy."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT / 'src' / 'repro'} is missing: run the "
                         f"benchmark from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def timed(fn):
    """Run ``fn`` under the benchmark's one GC policy: collect, freeze
    what survives, and keep the collector off while the clock runs."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        t0 = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - t0
    finally:
        gc.enable()
        gc.unfreeze()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {WORKLOADS})")
    from perfbench.metrics import report

    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    result["metrics"] = report(result["metrics"], args.trace)
    print(json.dumps(result))
    return 0


def timed_run(workload, seed, seconds):
    """End-to-end metrics: medians over as many repetitions as fit."""
    from perfbench import oracle, workloads
    from perfbench.calibrate import NOMINAL_S, reference_loop

    def build():
        return workloads.build(workload, seed)

    build()  # warm lazy imports and caches
    setups, ratios, attempted, failed, reference = [], [], 0, 0, None
    start = time.perf_counter()
    while not attempted or time.perf_counter() - start < seconds:
        attempted += 1
        ref_a = timed(reference_loop)[1]
        builds = [timed(build)[1] for _ in range(SETUPS_PER_REP)]
        ref0 = timed(reference_loop)[1]
        try:
            run, setup = timed(build)
            results, wall = timed(lambda: run.sim.run(until=run.done))
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        ref1 = timed(reference_loop)[1]
        setups += [b / ((ref_a + ref0) / 2) for b in builds]
        setups.append(setup / ((ref0 + ref1) / 2))
        ratios.append(wall / ((ref0 + ref1) / 2))
        print(f"repetition {attempted}: wall {wall:.3f} s, reference "
              f"{ref0:.3f} s / {ref1:.3f} s", file=sys.stderr)
        problems = oracle.check(run, results)
        sim = oracle.simulated(run)
        reference = reference or sim
        if sim != reference:
            problems.append(f"simulated results differ between "
                            f"repetitions: {sim} vs {reference}")
        if problems:
            failed += 1
            print(f"check failed: {problems}", file=sys.stderr)
        run = results = None  # release before the next set-up
    if not ratios:
        raise SystemExit(f"{workload}: every repetition raised")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_ref_x": statistics.median(ratios),
            "setup_s": statistics.median(setups) * NOMINAL_S,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_makespan_s": reference["sim_makespan_s"],
        },
    }


def traced_run(workload, seed):
    """Per-layer metrics from three separate passes of one seed."""
    import cProfile

    from perfbench import layers, oracle, phases, workloads
    from perfbench.calibrate import reference_loop
    from repro.obs import Tracer

    workloads.build(workload, seed)
    passes = {"attempted": 0, "failed": 0}

    def tally(problems):
        """Count one pass, failed when any of its checks found a problem."""
        passes["attempted"] += 1
        if problems:
            passes["failed"] += 1
            print(f"check failed: {problems}", file=sys.stderr)

    def drive(run, profile=None):
        if profile is not None:
            profile.enable()
        try:
            results, wall = timed(lambda: run.sim.run(until=run.done))
        finally:
            if profile is not None:
                profile.disable()
        return wall, oracle.check(run, results)

    metrics = {}
    base = workloads.build(workload, seed)
    ref0 = timed(reference_loop)[1]
    wall, problems = drive(base)
    tally(problems)
    metrics["wall_s"] = wall
    metrics["ref_s"] = (ref0 + timed(reference_loop)[1]) / 2
    metrics.update(oracle.counters(base, wall))

    prof = cProfile.Profile()
    profiled = workloads.build(workload, seed)
    profiled_wall, problems = drive(profiled, prof)
    if oracle.simulated(profiled) != oracle.simulated(base):
        problems.append("the profiled pass changed the simulated results")
    tally(problems)
    metrics["obs.profile_overhead_x"] = profiled_wall / wall
    metrics.update(layers.host_seconds(prof))

    traced = workloads.build(workload, seed, observe=Tracer)
    traced_wall, problems = drive(traced)
    phase_metrics, phase_problems = phases.all_phases(
        traced.sim.tracer.events, traced.job, workloads.CKPT_BYTES)
    tally(problems + phase_problems)
    metrics.update(phase_metrics)
    metrics["obs.trace_overhead_x"] = traced_wall / wall
    metrics["obs.event_delta"] = (traced.sim.stats.events_processed
                                  - base.sim.stats.events_processed)
    metrics["obs.macro_delta"] = (oracle.macro_instances(traced)
                                  - oracle.macro_instances(base))
    metrics["obs.makespan_delta_s"] = traced.sim.now - base.sim.now
    metrics["failed_frac"] = passes["failed"] / passes["attempted"]
    return {
        "correct": passes["failed"] == 0,
        "attempted": passes["attempted"],
        "failed": passes["failed"],
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
