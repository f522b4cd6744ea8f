"""Alternating paired benchmark runs of two source trees, and the claim rule.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed S

Each pair runs ``perfbench/run.py --workload W --seed S --seconds 10
--trace 0`` once in each tree, one run at a time, each tree with its own
harness.  The parent goes first in even pairs and the change in odd ones,
so that a drift of the host's speed falls on both sides alike.  For every
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles over the runs (each run's value is itself a median over its
repetitions) and the pairs the change won, then whether a gain in that
metric could be claimed: the change wins at least 9 of every 10 pairs, over
at least 10 pairs, and its median beats the parent's by more than the
parent's interquartile range.  A run that is not correct, or that fails an
operation, stops the script with exit code 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_SECONDS = 10
MIN_PAIRS = 10
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values, as perfbench's own detail line gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def claim(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """The claim rule on paired values, pair i being (parent[i], change[i]):
    the pairs the change won, the gap between the medians in the direction
    of ``better`` (positive when the change is better), the parent's
    interquartile range, and whether the claim holds."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (parent_median - statistics.median(change))
    holds = len(parent) >= MIN_PAIRS and 10 * won >= 9 * len(parent) and gap > q3 - q1
    return {"pairs": len(parent), "won": won, "gap": gap, "parent_iqr": q3 - q1,
            "holds": holds}


def run_once(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """One ``--trace 0`` run in ``tree``: its end-to-end metric values."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(RUN_SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if not result or not result["correct"] or result["failed"]:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"bench_pairs: the run in {tree} failed or was not correct")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, args.seed))
        last = {side: runs[side][-1] for side in runs}
        print(f"pair {i + 1}: " + ", ".join(
            f"{m['name']} {last['parent'][m['name']]:.4f} -> {last['change'][m['name']]:.4f}"
            for m in metrics), flush=True)
    for m in metrics:
        name = m["name"]
        parent, change = ([r[name] for r in runs[side]] for side in ("parent", "change"))
        rule = claim(parent, change, m["better"])
        sides = ", ".join(f"{side} median {med:.4f} (q1 {q1:.4f}, q3 {q3:.4f})"
                          for side, (q1, med, q3) in (("parent", quartiles(parent)),
                                                      ("change", quartiles(change))))
        verdict = "holds" if rule["holds"] else "does not hold"
        print(f"{args.workload} {name} [{m['unit']}]: {sides}; change won {rule['won']} of "
              f"{rule['pairs']} pairs; median gap {rule['gap']:+.4f} "
              f"({100 * rule['gap'] / quartiles(parent)[1]:+.1f}%) against the parent's "
              f"IQR {rule['parent_iqr']:.4f}; claim {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
