"""The chaos soak driver.

Sweeps campaigns x seeds, reports survival per campaign, records every
failing (campaign, seed) pair, and replays any pair deterministically::

    python -m repro.chaos --campaign all --seeds 25
    python -m repro.chaos --campaign spare-exhaustion --seed-list 3,7,11
    python -m repro.chaos --campaign logged --seed-list 0,1,2,3,4
    python -m repro.chaos --replay kill-during-recovery:7 --trace-out t.jsonl
    python -m repro.chaos --list

Exit status is non-zero when any invariant was violated, so the CI
smoke job fails loudly.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.chaos.campaigns import CAMPAIGNS
from repro.chaos.runner import RunResult, run_campaign
from repro.fmi.config import RECOVERY_MODES


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="fault-injection campaign soak for the FMI runtime",
    )
    parser.add_argument(
        "--campaign", default="all",
        help="campaign name, comma-separated names, a recovery family "
             "(every campaign running it, e.g. 'logged'), or 'all' (default)",
    )
    parser.add_argument(
        "--seeds", type=int, default=10,
        help="sweep seeds 0..N-1 (default: 10)",
    )
    parser.add_argument(
        "--seed-list", default=None,
        help="explicit comma-separated seed list (overrides --seeds)",
    )
    parser.add_argument(
        "--replay", default=None, metavar="CAMPAIGN:SEED",
        help="re-run one (campaign, seed) pair with a verbose report",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with --replay: write the run's trace as JSONL to PATH",
    )
    parser.add_argument("--list", action="store_true",
                        help="list campaigns and exit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every run, not just failures")
    return parser.parse_args(argv)


def campaign_names(spec: str) -> List[str]:
    """The campaigns a ``--campaign`` argument selects."""
    if spec == "all":
        return list(CAMPAIGNS)
    if spec in RECOVERY_MODES:
        return [name for name, c in CAMPAIGNS.items()
                if c.make_config().recovery == spec]
    names = [n.strip() for n in spec.split(",") if n.strip()]
    for name in names:
        if name not in CAMPAIGNS:
            known = ", ".join(CAMPAIGNS)
            raise SystemExit(f"unknown campaign {name!r} (known: {known})")
    return names


def _print_result(result: RunResult, verbose: bool) -> None:
    status = "ok " if result.ok else "FAIL"
    print(
        f"  [{status}] {result.campaign} seed={result.seed} "
        f"recoveries={result.recoveries} sim_t={result.sim_time:.2f}s "
        f"events={result.trace_events}"
    )
    if verbose or not result.ok:
        for t, desc in result.injected:
            print(f"         t={t:.3f}s inject: {desc}")
    for violation in result.violations:
        print(f"         VIOLATION {violation}")


def _replay(pair: str, trace_out, verbose: bool) -> int:
    try:
        name, seed_s = pair.rsplit(":", 1)
        seed = int(seed_s)
    except ValueError:
        raise SystemExit(f"--replay wants CAMPAIGN:SEED, got {pair!r}")
    if name not in CAMPAIGNS:
        raise SystemExit(f"unknown campaign {name!r}")
    print(f"replaying ({name}, seed {seed}) ...")
    result = run_campaign(name, seed, keep_trace=True)
    _print_result(result, verbose=True)
    if trace_out:
        from repro.obs import write_jsonl

        write_jsonl(result.tracer.events, trace_out)
        print(f"  trace written to {trace_out} "
              f"({result.trace_events} events)")
    print("invariants GREEN" if result.ok
          else f"{len(result.violations)} invariant violation(s)")
    return 0 if result.ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])

    if args.list:
        for campaign in CAMPAIGNS.values():
            print(f"{campaign.name:24s} {campaign.summary}")
        return 0

    if args.replay:
        return _replay(args.replay, args.trace_out, args.verbose)

    names = campaign_names(args.campaign)
    if args.seed_list:
        seeds = [int(s) for s in args.seed_list.split(",") if s.strip()]
    else:
        seeds = list(range(args.seeds))

    print(f"chaos soak: {len(names)} campaign(s) x {len(seeds)} seed(s)")
    failing: List[RunResult] = []
    t_wall = time.time()
    for name in names:
        results = []
        for seed in seeds:
            result = run_campaign(name, seed)
            results.append(result)
            if args.verbose or not result.ok:
                _print_result(result, args.verbose)
        ok = sum(1 for r in results if r.ok)
        recoveries = [r.recoveries for r in results]
        print(
            f"{name:24s} {ok}/{len(results)} ok   recoveries "
            f"min/mean/max = {min(recoveries)}/"
            f"{sum(recoveries) / len(recoveries):.1f}/{max(recoveries)}"
        )
        failing.extend(r for r in results if not r.ok)

    wall = time.time() - t_wall
    total = len(names) * len(seeds)
    if failing:
        print(f"\nFAILING PAIRS ({len(failing)}/{total} runs, {wall:.1f}s):")
        for result in failing:
            worst = result.violations[0]
            print(f"  ({result.campaign}, {result.seed}): {worst}")
            print(f"    replay: python -m repro.chaos "
                  f"--replay {result.campaign}:{result.seed}")
        return 1
    print(f"\nall invariants green across {total} runs ({wall:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
