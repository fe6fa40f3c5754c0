"""Replay bijection-batch op lists through two copies of permaps in one process.

Each ``src/`` tree is loaded as its own package by ``side_by_side.load``.
Every op runs through the benchmark's own ``child._round_trip``, so the
calls timed are exactly those a bijection-batch run times.  Each op runs
on both sides in turn, the first side alternating from op to op, and the
two results must be equal.  Per seed and side it prints the median op
over all passes, the 11th-slowest op of each pass (the op that
``op_tail_ms`` reads, at 540 ops per pass) and the busy seconds per
family, summed over the passes; then b/a for each.  Example:

    python tools/replay_bijections.py PARENT/src src --seeds 1 2 3 --passes 4
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "tools")]

import child  # noqa: E402  (the benchmark's round trip, unchanged)
import workloads  # noqa: E402
from side_by_side import load  # noqa: E402


def run(side: dict, op: dict) -> tuple[dict, float]:
    """One op on one side: the round trip's ``permaps`` imports resolve to it."""
    sys.modules["permaps"], sys.modules["permaps.perm"] = side["pm"], side["perm"]
    tracer = child.Tracer(False)
    return child._round_trip(tracer, op), tracer.busy


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a")
    ap.add_argument("src_b")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--passes", type=int, default=4)
    args = ap.parse_args()
    sides = [load(args.src_a, "side_a"), load(args.src_b, "side_b")]
    for seed in args.seeds:
        ops = workloads.generate("bijection-batch", seed)
        lat: list[list[float]] = [[], []]
        tails: list[list[float]] = [[], []]
        family: list[Counter] = [Counter(), Counter()]
        for _ in range(args.passes):
            this_pass: list[list[float]] = [[], []]
            for op in ops:
                results = [None, None]
                for s in (0, 1) if op["id"] % 2 == 0 else (1, 0):
                    results[s], busy = run(sides[s], op)
                    this_pass[s].append(busy)
                    family[s][op["kind"]] += busy
                if results[0] != results[1]:
                    raise SystemExit(f"seed {seed}: outputs differ on op {op['id']} ({op['kind']})")
            for s in (0, 1):
                lat[s] += this_pass[s]
                tails[s].append(sorted(this_pass[s])[-11] if len(ops) > 10 else max(this_pass[s]))
        p50 = [statistics.median(x) * 1e3 for x in lat]
        for s, name in enumerate("ab"):
            print(f"seed {seed} {name}: p50 {p50[s]:.3f} ms | 11th-slowest per pass "
                  + " ".join(f"{t * 1e3:.2f}" for t in tails[s]) + " ms | family s "
                  + " ".join(f"{k} {v:.3f}" for k, v in sorted(family[s].items())))
        print(f"seed {seed} b/a: p50 {p50[1] / p50[0]:.3f} | tail "
              + " ".join(f"{b / a:.3f}" for a, b in zip(*tails)) + " | family "
              + " ".join(f"{k} {family[1][k] / family[0][k]:.2f}" for k in sorted(family[0])))


if __name__ == "__main__":
    main()
