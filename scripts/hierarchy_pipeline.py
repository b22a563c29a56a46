#!/usr/bin/env python3
"""Generate a synthetic definition hierarchy, analyze it, and rank it.

Demonstrates the full corpus pipeline without an external library export:
synth -> analyze -> rank, then prints the headline numbers (top node depth,
fitted growth slope, matched regime rows, and the five highest-ranked
elements).
"""

import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from macrolab.cli import main as cli_main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(out_root: str, base: int, height: int) -> int:
    graph = os.path.join(out_root, "synth", "graph.jsonl")
    steps = [
        ["synth", "--kind", "hierarchy", "--b", str(base), "--height", str(height),
         "--out", os.path.join(out_root, "synth")],
        ["analyze", "--graph", graph, "--full-unwrapped",
         "--out", os.path.join(out_root, "analysis")],
        ["rank", "--graph", graph, "--out", os.path.join(out_root, "ranking")],
    ]
    for args in steps:
        code = cli_main(args)
        if code != 0:
            return code

    metrics = read_csv(os.path.join(out_root, "analysis", "metrics.csv"))
    deepest = max(metrics, key=lambda r: int(r["depth"]))
    print(f"deepest element: {deepest['name']} at depth {deepest['depth']}, "
          f"unwrapped length {deepest['unwrapped']}")

    fit = read_csv(os.path.join(out_root, "analysis", "fit_log2_unwrapped_vs_depth.csv"))[0]
    print(f"bits per level: slope {float(fit['slope']):.4f} "
          f"(r^2 {float(fit['r_squared']):.4f})")

    regime = read_csv(os.path.join(out_root, "analysis", "regime.csv"))[0]
    print(f"curve labels: unwrapped-vs-depth {regime['log2_unwrapped_vs_depth']}, "
          f"wrapped-vs-depth {regime['wrapped_vs_depth']}, "
          f"unwrapped-vs-wrapped {regime['log2_unwrapped_vs_wrapped']}")
    print(f"matched regimes: {regime['matches'] or '(none)'}")

    ranking = read_csv(os.path.join(out_root, "ranking", "rank.csv"))
    print("top elements by stationary mass:")
    for row in ranking[:5]:
        print(f"  {row['rank']:>2s}. {row['name']} pi={float(row['pi']):.4f}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="hierarchy_run")
    parser.add_argument("--b", type=int, default=2, help="branching factor")
    parser.add_argument("--height", type=int, default=30)
    args = parser.parse_args()
    raise SystemExit(run(args.out, args.b, args.height))
