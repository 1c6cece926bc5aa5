"""Steadiness self-check: run the benchmark twice over seeds 1 to 10.

Run from the repository root::

    python3 perfbench/steady.py            # end-to-end metrics
    python3 perfbench/steady.py --trace 1  # per-layer metrics

Each of the two sets runs ``run.py`` once per workload and seed, one
run at a time, for ``run_seconds`` from ``BENCHMARK.json``.  For every
workload and metric it prints the unit, the median, the quartiles, the
spread (interquartile distance over the median) and the sample count,
beside the metric's bound.  It fails (exit 1) when

* a run reports a failure, or a metric not measured on the host (see
  ``metrics.HOST_MEASURED``) differs between the two runs of a seed --
  a determinism bug, counted in ``failed_frac``;
* a spread exceeds its bound;
* the second set's median is worse than the first's by more than the
  bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import HOST_MEASURED, SPEC  # noqa: E402

SETS = 2
SEEDS = range(1, 11)


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metric_spec = SPEC["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_spec}
    better = {m["name"]: m["better"] for m in metric_spec}
    problems = []
    attempted = failed = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        # sets[s][metric] -> list of (seed, value, unit)
        sets = []
        for s in range(SETS):
            values = {}
            for seed in SEEDS:
                out = run_once(workload, seed, args.trace)
                attempted += out["attempted"]
                failed += out["failed"]
                for name, m in out["metrics"].items():
                    values.setdefault(name, []).append(
                        (seed, m["value"], m["unit"]))
                print(f"{workload} set {s + 1} seed {seed}: "
                      f"failed {out['failed']}/{out['attempted']}",
                      file=sys.stderr, flush=True)
            sets.append(values)
        print(f"\n{workload}: {SETS} sets x {len(SEEDS)} seeds")
        print(f"  {'metric':24} {'unit':6} {'set':>3} {'n':>3} "
              f"{'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}")
        for name in sorted(sets[0]):
            first_median = None
            for s, values in enumerate(sets):
                vals = [v for _seed, v, _u in values[name]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds[name]
                print(f"  {name:24} {values[name][0][2]:6} {s + 1:>3} "
                      f"{len(vals):>3} {med:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {spread:>8.4f} "
                      f"{'' if bound is None else bound:>6}")
                if bound is not None and spread > bound:
                    problems.append(f"{workload} {name} set {s + 1}: "
                                    f"spread {spread:.4f} > bound {bound}")
                if first_median is None:
                    first_median = med
                elif bound is not None:
                    worse = (med - first_median if better[name] == "lower"
                             else first_median - med)
                    if worse > bound * abs(first_median):
                        problems.append(
                            f"{workload} {name}: set {s + 1} median {med:.6g}"
                            f" worse than set 1's {first_median:.6g} by "
                            f"more than {bound:.0%}")
            if name in HOST_MEASURED:
                continue
            for s, values in enumerate(sets[1:], start=2):
                for (seed, a, _u), (_s, b, _u2) in zip(sets[0][name],
                                                      values[name]):
                    if a != b:
                        failed += 1
                        problems.append(
                            f"{workload} {name} seed {seed}: {a!r} in "
                            f"set 1 but {b!r} in set {s} (determinism bug)")
    print(f"\nfailed_frac: {failed}/{attempted} = "
          f"{failed / max(attempted, 1):.4f}")
    for problem in problems:
        print(f"FAIL {problem}")
    if failed:
        print(f"FAIL {failed} failed runs")
    return 1 if problems or failed else 0


if __name__ == "__main__":
    sys.exit(main())
