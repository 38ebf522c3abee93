#!/usr/bin/env python3
"""Compare saved benchmark results of two commits.

    python3 perfbench/compare.py --base BASE.json ... --new NEW.json ...

Each file is a result saved by run.py under .perfbench_run/results/.  Results
are compared only when the two sides hold the same corpora: for every
workload, the multiset of corpus digests (one per seed) must be identical, so
a change to the input generator can never pass for a change in speed.  For
each metric the medians of both sides are printed with their ratio; for
end-to-end metrics the bound from BENCHMARK.json decides whether the new
median is a regression.  A new result that is not correct, or an operation
that fails on the new side but not on the base side (same corpus, attempted
by both), is a regression too: a change that makes operations fail sooner
must not pass for a speed-up.  Exit code 2 when the sides are not
comparable, 1 when there is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(paths: list[str]) -> dict[tuple[str, int], list[dict]]:
    by_workload: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        by_workload[record["workload"], record["trace"]].append(record)
    return by_workload


def _failure_regressions(base: list[dict], new: list[dict]) -> list[str]:
    """Incorrect new results, and operations the new side fails that the
    base side attempted on the same corpus without failing."""
    problems = [
        f"seed {r.get('seed')}: result is not correct" for r in new if not r.get("correct", True)
    ]
    attempted: dict[str, set[str]] = defaultdict(set)
    failed: dict[str, set[str]] = defaultdict(set)
    for r in base:
        attempted[r["digest"]].update(r.get("attempted_ids", ()))
        failed[r["digest"]].update(r.get("failed_ids", ()))
    for r in new:
        fresh = (set(r.get("failed_ids", ())) & attempted[r["digest"]]) - failed[r["digest"]]
        if fresh:
            problems.append(
                f"seed {r.get('seed')}: {len(fresh)} operations fail that did not fail on the"
                f" base side, e.g. {sorted(fresh)[:3]}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = _load(args.base), _load(args.new)
    if set(base) != set(new):
        print(f"refused: workloads differ: {sorted(base)} vs {sorted(new)}", file=sys.stderr)
        return 2
    for key in base:
        digests_base = Counter(r["digest"] for r in base[key])
        digests_new = Counter(r["digest"] for r in new[key])
        if digests_base != digests_new:
            print(f"refused: {key[0]} corpus digests differ between the two sides",
                  file=sys.stderr)
            return 2
    worse = 0
    for (workload, trace), runs in sorted(base.items()):
        for problem in _failure_regressions(runs, new[workload, trace]):
            worse += 1
            print(f"{workload} (trace {trace}): {problem}")
        print(f"{workload} (trace {trace}): {len(runs)} base runs, "
              f"{len(new[workload, trace])} new runs")
        for name in runs[0]["metrics"]:
            b = statistics.median(r["metrics"][name] for r in runs)
            n = statistics.median(r["metrics"][name] for r in new[workload, trace])
            spec_m = metrics.get(name, {})
            line = f"  {name:34s} {b:12.6g} -> {n:12.6g}"
            if b:
                line += f"  x{n / b:.3f}"
            bound = spec_m.get("bound")
            if bound is not None and b:
                change = (n - b) / b if spec_m["better"] == "lower" else (b - n) / b
                if change > bound:
                    worse += 1
                    line += f"  WORSE than the {bound:.0%} bound"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
